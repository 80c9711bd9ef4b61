// Column equivalence classes (§3.1.1).
//
// Knowledge about column equality predicates is captured as a set of
// equivalence classes over column references, computed by union-find.
// Every column of every referenced table starts in its own (trivial)
// class; each (Ti.Cp = Tj.Cq) predicate merges two classes.
//
// Layout. This is the first structure every §3.1 test builds, once per
// probe (rewrite/match_program.h), so it is kept dense: the columns of a
// slot registered by AddTableColumns are addressed by slot offset (no
// hashing), the union-find is one flat parent array, and the classes are
// recomputed eagerly by each mutation into a CSR array (class id ->
// member span), so every const method is a plain read. Only "stray"
// columns — ones mentioned by AddEquality before (or without) their slot
// being registered — go through a hash map.
//
// Numbering contract (the match tiers' compensating-predicate order
// depends on it): every column gets a registration index when first
// seen, by AddTableColumns or AddEquality, and keeps it; class ids number
// the classes in the order of their first member by registration index,
// and ClassMembers lists a class in registration order. Ids therefore
// depend only on the partition and the registration order, never on the
// order the equalities were applied, and a copy extended with more slots
// and equalities numbers exactly like an object built from scratch with
// the same registrations and equalities.

#ifndef MVOPT_REWRITE_EQUIV_H_
#define MVOPT_REWRITE_EQUIV_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "expr/classify.h"
#include "expr/expr.h"

namespace mvopt {

class EquivalenceClasses {
 public:
  /// Registers columns 0..num_columns-1 of table slot `table_ref` as
  /// trivial classes. Idempotent per column: re-registering a slot (or a
  /// column first seen through AddEquality) keeps existing indices.
  void AddTableColumns(int32_t table_ref, int num_columns);

  /// Merges the classes of `a` and `b` (registering them if needed).
  void AddEquality(ColumnRefId a, ColumnRefId b);

  /// Applies every equality predicate in `preds` (one class recompute).
  void AddEqualities(std::span<const ColumnEqualityPred> preds);

  /// Dense id of the class containing `col`; -1 if the column was never
  /// registered.
  int ClassOf(ColumnRefId col) const {
    const int idx = IndexOf(col);
    return idx < 0 ? -1 : class_of_[static_cast<size_t>(idx)];
  }

  bool AreEquivalent(ColumnRefId a, ColumnRefId b) const {
    const int ca = ClassOf(a);
    return ca >= 0 && ca == ClassOf(b);
  }

  /// True if the column's class has exactly one member. An unregistered
  /// column is equal only to itself, so it counts as trivial too.
  bool IsTrivial(ColumnRefId col) const;

  /// Members of the class with dense id `class_id`, registration order.
  std::span<const ColumnRefId> ClassMembers(int class_id) const {
    const size_t k = static_cast<size_t>(class_id);
    return {members_.data() + class_start_[k],
            members_.data() + class_start_[k + 1]};
  }

  /// Number of classes (trivial included).
  int NumClasses() const {
    return static_cast<int>(class_start_.size()) - 1;
  }

  /// Dense ids of all classes with >= 2 members, ascending.
  std::span<const int32_t> NontrivialClasses() const { return nontrivial_; }

 private:
  /// Slots at or above this bound (and negative ones) are never
  /// slot-indexed; their columns are strays.
  static constexpr int32_t kMaxIndexedSlot = 1024;

  int IndexOf(ColumnRefId col) const;
  /// Registration index of `col`, registering it (as a new trivial
  /// class) when unseen.
  int EnsureIndex(ColumnRefId col);
  /// Appends a new trivial class holding only `col`; returns its index.
  int AppendColumn(ColumnRefId col);
  int Find(int x);
  /// Unions two indices; true when two classes merged.
  bool Union(int a, int b);
  /// Recomputes class_of_ / CSR / nontrivial_ from the union-find.
  void RebuildClasses();

  // Slot-indexed registrations: slot t's columns 0..slot_width_[t]-1
  // live at slot_index_[slot_offset_[t] + c] (registration indices).
  std::vector<int32_t> slot_offset_;
  std::vector<int32_t> slot_width_;
  std::vector<int32_t> slot_index_;
  std::unordered_map<ColumnRefId, int32_t, ColumnRefIdHash> strays_;

  std::vector<ColumnRefId> columns_;  // registration index -> column
  // Union-find; the root of every class is its smallest index.
  std::vector<int32_t> parent_;
  std::vector<int32_t> class_of_;     // registration index -> class id
  std::vector<int32_t> class_start_{0};  // CSR offsets, NumClasses()+1
  std::vector<ColumnRefId> members_;  // CSR payload
  std::vector<int32_t> nontrivial_;
};

}  // namespace mvopt

#endif  // MVOPT_REWRITE_EQUIV_H_
