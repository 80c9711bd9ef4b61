#include "rewrite/equiv.h"

namespace mvopt {

void EquivalenceClasses::AddTableColumns(int32_t table_ref, int num_columns) {
  if (table_ref < 0 || table_ref >= kMaxIndexedSlot) {
    for (int c = 0; c < num_columns; ++c) {
      EnsureIndex(ColumnRefId{table_ref, c});
    }
    return;
  }
  const size_t t = static_cast<size_t>(table_ref);
  if (t >= slot_offset_.size()) {
    slot_offset_.resize(t + 1, -1);
    slot_width_.resize(t + 1, 0);
  }
  const int32_t width = slot_width_[t];
  if (num_columns <= width) return;
  // A new (or wider) block: keep the indices already assigned to the
  // slot's columns and to strays that belong to it; number the rest.
  const int32_t offset = static_cast<int32_t>(slot_index_.size());
  slot_index_.resize(slot_index_.size() + static_cast<size_t>(num_columns));
  for (int c = 0; c < num_columns; ++c) {
    int32_t idx;
    if (c < width) {
      idx = slot_index_[static_cast<size_t>(slot_offset_[t] + c)];
    } else if (auto it = strays_.find(ColumnRefId{table_ref, c});
               it != strays_.end()) {
      idx = it->second;
      strays_.erase(it);
    } else {
      idx = AppendColumn(ColumnRefId{table_ref, c});
    }
    slot_index_[static_cast<size_t>(offset + c)] = idx;
  }
  slot_offset_[t] = offset;
  slot_width_[t] = num_columns;
}

void EquivalenceClasses::AddEquality(ColumnRefId a, ColumnRefId b) {
  const int ia = EnsureIndex(a);
  const int ib = EnsureIndex(b);
  if (Union(ia, ib)) RebuildClasses();
}

void EquivalenceClasses::AddEqualities(
    std::span<const ColumnEqualityPred> preds) {
  bool merged = false;
  for (const auto& p : preds) {
    const int ia = EnsureIndex(p.lhs);
    const int ib = EnsureIndex(p.rhs);
    merged |= Union(ia, ib);
  }
  if (merged) RebuildClasses();
}

bool EquivalenceClasses::IsTrivial(ColumnRefId col) const {
  const int cls = ClassOf(col);
  return cls < 0 || ClassMembers(cls).size() == 1;
}

int EquivalenceClasses::IndexOf(ColumnRefId col) const {
  const int32_t t = col.table_ref;
  if (t >= 0 && static_cast<size_t>(t) < slot_offset_.size() &&
      col.column >= 0 && col.column < slot_width_[static_cast<size_t>(t)]) {
    return slot_index_[static_cast<size_t>(
        slot_offset_[static_cast<size_t>(t)] + col.column)];
  }
  if (strays_.empty()) return -1;
  auto it = strays_.find(col);
  return it == strays_.end() ? -1 : it->second;
}

int EquivalenceClasses::EnsureIndex(ColumnRefId col) {
  const int idx = IndexOf(col);
  if (idx >= 0) return idx;
  const int added = AppendColumn(col);
  strays_.emplace(col, added);
  return added;
}

int EquivalenceClasses::AppendColumn(ColumnRefId col) {
  const int32_t idx = static_cast<int32_t>(columns_.size());
  columns_.push_back(col);
  parent_.push_back(idx);
  // A new index is larger than every existing one, so its trivial class
  // takes the next id and the CSR just grows by one entry.
  class_of_.push_back(NumClasses());
  members_.push_back(col);
  class_start_.push_back(static_cast<int32_t>(members_.size()));
  return idx;
}

int EquivalenceClasses::Find(int x) {
  while (parent_[static_cast<size_t>(x)] != x) {
    const int32_t grand =
        parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
    parent_[static_cast<size_t>(x)] = grand;  // path halving
    x = grand;
  }
  return x;
}

bool EquivalenceClasses::Union(int a, int b) {
  const int ra = Find(a);
  const int rb = Find(b);
  if (ra == rb) return false;
  // The smaller index roots the merged class, so a class's root is its
  // first member in registration order (RebuildClasses relies on it).
  if (ra < rb) {
    parent_[static_cast<size_t>(rb)] = ra;
  } else {
    parent_[static_cast<size_t>(ra)] = rb;
  }
  return true;
}

void EquivalenceClasses::RebuildClasses() {
  const size_t n = columns_.size();
  // Pass 1: class ids by first member (= root) in registration order,
  // plus class sizes (accumulated in class_start_[id + 1]).
  int32_t num_classes = 0;
  class_start_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const int root = Find(static_cast<int>(i));
    const int32_t cls = static_cast<size_t>(root) == i
                            ? num_classes++
                            : class_of_[static_cast<size_t>(root)];
    class_of_[i] = cls;
    ++class_start_[static_cast<size_t>(cls) + 1];
  }
  class_start_.resize(static_cast<size_t>(num_classes) + 1);
  nontrivial_.clear();
  for (int32_t k = 0; k < num_classes; ++k) {
    if (class_start_[static_cast<size_t>(k) + 1] >= 2) {
      nontrivial_.push_back(k);
    }
    class_start_[static_cast<size_t>(k) + 1] +=
        class_start_[static_cast<size_t>(k)];
  }
  // Pass 2: members in registration order, written through the start
  // offsets used as cursors; afterwards each offset holds its class's
  // end, i.e. the next class's start, so one shift restores them.
  for (size_t i = 0; i < n; ++i) {
    members_[static_cast<size_t>(
        class_start_[static_cast<size_t>(class_of_[i])]++)] = columns_[i];
  }
  for (int32_t k = num_classes - 1; k > 0; --k) {
    class_start_[static_cast<size_t>(k)] =
        class_start_[static_cast<size_t>(k) - 1];
  }
  class_start_[0] = 0;
}

}  // namespace mvopt
