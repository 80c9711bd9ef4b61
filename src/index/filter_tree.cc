#include "index/filter_tree.h"

#include <algorithm>
#include <cassert>

#include "common/cow.h"
#include "common/failpoint.h"

namespace mvopt {

namespace {

// True if sorted keys `a` and `b` intersect.
bool Intersects(const LatticeIndex::Key& a, const LatticeIndex::Key& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

template <typename T>
LatticeIndex::Key ToKey(const std::vector<T>& values) {
  LatticeIndex::Key key;
  key.reserve(values.size());
  for (T v : values) key.push_back(static_cast<uint32_t>(v));
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

// Grows `v`'s capacity to at least `n` (geometrically), so a later
// resize to `n` cannot throw.
template <typename T>
void ReserveFor(std::vector<T>* v, size_t n) {
  if (v->capacity() < n) v->reserve(std::max(n, 2 * v->capacity()));
}

}  // namespace

const char* FilterLevelName(FilterLevel level) {
  switch (level) {
    case FilterLevel::kHub:
      return "hub";
    case FilterLevel::kSourceTables:
      return "source-tables";
    case FilterLevel::kOutputExprs:
      return "output-exprs";
    case FilterLevel::kOutputColumns:
      return "output-columns";
    case FilterLevel::kResidual:
      return "residual";
    case FilterLevel::kRangeConstraints:
      return "range-constraints";
    case FilterLevel::kGroupingExprs:
      return "grouping-exprs";
    case FilterLevel::kGroupingColumns:
      return "grouping-columns";
  }
  return "?";
}

FilterTree::FilterTree()
    : edit_(NewEditToken()),
      spj_root_(NewNode()),
      agg_root_(NewNode()),
      atoms_(std::make_shared<AtomTable>()) {
  spj_levels_ = {FilterLevel::kHub,           FilterLevel::kSourceTables,
                 FilterLevel::kOutputExprs,   FilterLevel::kOutputColumns,
                 FilterLevel::kResidual,      FilterLevel::kRangeConstraints};
  agg_levels_ = spj_levels_;
  agg_levels_.push_back(FilterLevel::kGroupingExprs);
  agg_levels_.push_back(FilterLevel::kGroupingColumns);
  atoms_->owner = edit_;
}

std::shared_ptr<FilterTree::Node> FilterTree::NewNode() const {
  auto node = std::make_shared<Node>();
  node->owner = edit_;
  node->lattice = std::make_shared<Lattice>();
  node->lattice->owner = edit_;
  return node;
}

FilterTree::FilterTree(const FilterTree& other)
    : edit_(NewEditToken()),
      spj_levels_(other.spj_levels_),
      agg_levels_(other.agg_levels_),
      spj_root_(other.spj_root_),
      agg_root_(other.agg_root_),
      atoms_(other.atoms_),
      num_views_(other.num_views_),
      assume_backjoins_(other.assume_backjoins_) {
  other.edit_.store(NewEditToken(), std::memory_order_relaxed);
}

void FilterTree::SetLevels(std::vector<FilterLevel> spj_levels,
                           std::vector<FilterLevel> agg_levels) {
  assert(num_views_ == 0 && "SetLevels before any AddView");
  spj_levels_ = std::move(spj_levels);
  agg_levels_ = std::move(agg_levels);
}

uint32_t FilterTree::Intern(const std::string& text) {
  if (std::optional<uint32_t> atom = LookupAtom(text)) return *atom;
  // A new text: copy the table first if another generation shares it.
  // Atoms interned by an insert that then fails stay behind; they only
  // make a query text known that no view key carries.
  AtomTable* atoms = MutableCow(&atoms_, edit_);
  const auto atom = static_cast<uint32_t>(atoms->ids.size());
  atoms->ids.emplace(text, atom);
  return atom;
}

std::optional<uint32_t> FilterTree::LookupAtom(const std::string& text) const {
  auto it = atoms_->ids.find(text);
  if (it == atoms_->ids.end()) return std::nullopt;
  return it->second;
}

LatticeIndex::Key FilterTree::ViewKey(const ViewDescription& d,
                                      FilterLevel level) {
  switch (level) {
    case FilterLevel::kHub:
      return ToKey(d.hub);
    case FilterLevel::kSourceTables:
      return ToKey(d.source_tables);
    case FilterLevel::kOutputExprs: {
      LatticeIndex::Key key;
      for (const auto& t : d.output_expr_texts) key.push_back(Intern(t));
      std::sort(key.begin(), key.end());
      return key;
    }
    case FilterLevel::kOutputColumns:
      return ToKey(d.extended_output_columns);
    case FilterLevel::kResidual: {
      LatticeIndex::Key key;
      for (const auto& t : d.residual_texts) key.push_back(Intern(t));
      std::sort(key.begin(), key.end());
      return key;
    }
    case FilterLevel::kRangeConstraints:
      return ToKey(d.reduced_range_columns);
    case FilterLevel::kGroupingExprs: {
      LatticeIndex::Key key;
      for (const auto& t : d.grouping_expr_texts) key.push_back(Intern(t));
      std::sort(key.begin(), key.end());
      return key;
    }
    case FilterLevel::kGroupingColumns:
      return ToKey(d.extended_grouping_columns);
  }
  return {};
}

void FilterTree::AddView(ViewId id,
                         std::shared_ptr<const ViewDescription> description) {
  MVOPT_FAILPOINT("filter_tree.add_view");
  const ViewDescription& d = *description;
  const std::vector<FilterLevel>& levels =
      d.is_aggregate ? agg_levels_ : spj_levels_;
  std::vector<LatticeIndex::Key> keys;
  keys.reserve(levels.size());
  for (FilterLevel level : levels) keys.push_back(ViewKey(d, level));
  const size_t last = levels.size() - 1;

  // Follow the view's path while it already exists, making each node on
  // it writable (a shared node is swapped for a content-identical copy,
  // which no search can tell apart). `node` ends at the level where the
  // key — or, at the last level, the leaf entry — has to go.
  Node* node = MutableCow(d.is_aggregate ? &agg_root_ : &spj_root_, edit_);
  size_t depth = 0;
  for (; depth < last; ++depth) {
    const int n = node->index().Find(keys[depth]);
    if (n < 0 || !node->index().alive(n) ||
        static_cast<size_t>(n) >= node->children.size() ||
        node->children[n] == nullptr) {
      break;
    }
    node = MutableCow(&node->children[n], edit_);
  }

  // The levels below `depth` are new: build them bottom-up, unlinked.
  std::shared_ptr<Node> subtree;
  for (size_t k = last; k > depth; --k) {
    std::shared_ptr<Node> fresh = NewNode();
    fresh->lattice->index.Insert(keys[k]);  // node id 0
    if (k == last) {
      fresh->leaves.push_back({LeafView{id, description}});
    } else {
      fresh->children.push_back(std::move(subtree));
    }
    subtree = std::move(fresh);
  }

  // Link it in. Everything that can fail happens before the first
  // visible write, so a failure leaves the tree as it was and nothing
  // needs undoing: a live key always leads to the view. The lattice is
  // made writable (copied if shared) only when the key is new or erased.
  const LatticeIndex::Key& key = keys[depth];
  const int existing = node->index().Find(key);
  const size_t slot = static_cast<size_t>(
      existing >= 0 ? existing : node->index().num_nodes());
  LatticeIndex* lattice = nullptr;
  if (existing < 0 || !node->index().alive(existing)) {
    lattice = &MutableCow(&node->lattice, edit_)->index;
  }
  if (depth == last && existing >= 0) {
    if (node->leaves.size() <= slot) node->leaves.resize(slot + 1);
    MVOPT_FAILPOINT("filter_tree.insert_leaf");
    // The key exists, so reviving it cannot fail: the leaf push (strong
    // guarantee) is the visible write.
    node->leaves[slot].push_back(LeafView{id, std::move(description)});
    if (lattice != nullptr) lattice->Insert(key);
  } else if (depth == last) {
    std::vector<LeafView> leaf{LeafView{id, std::move(description)}};
    ReserveFor(&node->leaves, slot + 1);
    MVOPT_FAILPOINT("filter_tree.insert_leaf");
    lattice->Insert(key);
    node->leaves.resize(slot + 1);  // within capacity: no-throw
    node->leaves[slot] = std::move(leaf);
  } else {
    ReserveFor(&node->children, slot + 1);
    MVOPT_FAILPOINT("filter_tree.insert_leaf");
    if (lattice != nullptr) lattice->Insert(key);
    if (node->children.size() <= slot) node->children.resize(slot + 1);
    node->children[slot] = std::move(subtree);
  }
  ++num_views_;
}

void FilterTree::RemoveView(ViewId id, const ViewDescription& d) {
  const std::vector<FilterLevel>& levels =
      d.is_aggregate ? agg_levels_ : spj_levels_;
  Node* node = MutableCow(d.is_aggregate ? &agg_root_ : &spj_root_, edit_);
  for (size_t depth = 0; depth < levels.size(); ++depth) {
    LatticeIndex::Key key = ViewKey(d, levels[depth]);
    int lattice_node = node->index().Find(key);
    assert(lattice_node >= 0 && "view path must exist");
    const bool last = depth + 1 == levels.size();
    if (last) {
      auto& leaf = node->leaves[lattice_node];
      // Emptying the leaf erases its key: make the lattice writable
      // before the first visible write.
      LatticeIndex* lattice =
          leaf.size() == 1 ? &MutableCow(&node->lattice, edit_)->index
                           : nullptr;
      leaf.erase(std::remove_if(leaf.begin(), leaf.end(),
                                [id](const LeafView& v) { return v.id == id; }),
                 leaf.end());
      if (leaf.empty() && lattice != nullptr) lattice->Erase(key);
    } else {
      node = MutableCow(&node->children[lattice_node], edit_);
    }
  }
  --num_views_;
}

void FilterTree::CollectNodes(const Node& node,
                              std::unordered_set<const Node*>* out) {
  out->insert(&node);
  for (const std::shared_ptr<Node>& child : node.children) {
    if (child != nullptr) CollectNodes(*child, out);
  }
}

int FilterTree::SharedNodeCount(const FilterTree& other) const {
  std::unordered_set<const Node*> mine;
  CollectNodes(*spj_root_, &mine);
  CollectNodes(*agg_root_, &mine);
  std::unordered_set<const Node*> theirs;
  CollectNodes(*other.spj_root_, &theirs);
  CollectNodes(*other.agg_root_, &theirs);
  int shared = 0;
  for (const Node* node : mine) shared += theirs.count(node) > 0 ? 1 : 0;
  return shared;
}

void FilterTree::SearchLevel(const Node& node, FilterLevel level,
                             const SearchContext& ctx, bool agg_tree,
                             std::vector<int>* out,
                             FilterSearchStats* stats) const {
  // Lattice search kinds by level (the §4.4 walk each condition uses);
  // recorded before the dispatch so impossible-key early returns still
  // count as a performed search.
  if (stats != nullptr) {
    switch (level) {
      case FilterLevel::kHub:
      case FilterLevel::kResidual:
      case FilterLevel::kRangeConstraints:
        ++stats->subset_searches;
        break;
      case FilterLevel::kSourceTables:
      case FilterLevel::kOutputExprs:
      case FilterLevel::kGroupingExprs:
        ++stats->superset_searches;
        break;
      case FilterLevel::kOutputColumns:
      case FilterLevel::kGroupingColumns:
        ++stats->scan_searches;
        break;
    }
  }
  const LatticeIndex& index = node.index();
  switch (level) {
    case FilterLevel::kHub:
      // Hub condition (§4.2.2): hub ⊆ query source tables.
      index.SearchSubsets(ctx.source_tables, out);
      return;
    case FilterLevel::kSourceTables:
      // Source table condition (§4.2.1): view tables ⊇ query tables.
      index.SearchSupersets(ctx.source_tables, out);
      return;
    case FilterLevel::kOutputExprs: {
      const bool impossible = agg_tree ? ctx.output_agg_exprs_impossible
                                       : ctx.output_exprs_impossible;
      if (impossible) return;  // a required text exists in no view
      const LatticeIndex::Key& atoms =
          agg_tree ? ctx.output_agg_expr_atoms : ctx.output_expr_atoms;
      index.SearchSupersets(atoms, out);
      return;
    }
    case FilterLevel::kOutputColumns: {
      // Output column condition (§4.2.3): every query output class must
      // be hit by the view's extended output list. Upward-closed, so
      // descend from the tops. Not applicable when backjoins can recover
      // missing columns.
      if (assume_backjoins_) {
        index.SearchDown([](const LatticeIndex::Key&) { return true; },
                              out);
        return;
      }
      const auto& classes =
          agg_tree ? ctx.output_classes_agg : ctx.output_classes_spj;
      index.SearchDown(
          [&classes](const LatticeIndex::Key& key) {
            for (const auto& cls : classes) {
              if (!Intersects(key, cls)) return false;
            }
            return true;
          },
          out);
      return;
    }
    case FilterLevel::kResidual:
      // Residual predicate condition (§4.2.6): view residual texts ⊆
      // query residual texts.
      index.SearchSubsets(ctx.residual_atoms, out);
      return;
    case FilterLevel::kRangeConstraints:
      // Weak range constraint condition (§4.2.5); the full condition is
      // applied per view after the leaf is reached.
      index.SearchSubsets(ctx.extended_range_columns, out);
      return;
    case FilterLevel::kGroupingExprs:
      if (assume_backjoins_) {
        // The FD relaxation lets grouping expressions be recovered via
        // backjoins; the textual containment is no longer necessary.
        index.SearchDown([](const LatticeIndex::Key&) { return true; },
                              out);
        return;
      }
      if (ctx.grouping_exprs_impossible) return;
      index.SearchSupersets(ctx.grouping_expr_atoms, out);
      return;
    case FilterLevel::kGroupingColumns:
      if (assume_backjoins_) {
        index.SearchDown([](const LatticeIndex::Key&) { return true; },
                              out);
        return;
      }
      index.SearchDown(
          [&ctx](const LatticeIndex::Key& key) {
            for (const auto& cls : ctx.grouping_classes) {
              if (!Intersects(key, cls)) return false;
            }
            return true;
          },
          out);
      return;
  }
}

bool FilterTree::PassesFullRangeCondition(const ViewDescription& d,
                                          const SearchContext& ctx) {
  // Range constraint condition (§4.2.5): every range-constrained view
  // equivalence class must have a column in the query's extended range
  // constraint list.
  for (const auto& cls : d.range_constrained_classes) {
    if (!Intersects(ToKey(cls), ctx.extended_range_columns)) return false;
  }
  return true;
}

void FilterTree::Search(const Node& node,
                        const std::vector<FilterLevel>& levels, size_t depth,
                        const SearchContext& ctx, bool agg_tree,
                        std::vector<ViewId>* out, FilterSearchStats* stats,
                        QueryBudget* budget) const {
  if (budget != nullptr && budget->TickDeadline()) return;
  std::vector<int> qualifying;
  SearchLevel(node, levels[depth], ctx, agg_tree, &qualifying, stats);
  if (stats != nullptr) {
    const size_t li = static_cast<size_t>(levels[depth]);
    ++stats->level_probes[li];
    stats->level_qualifying[li] += static_cast<int64_t>(qualifying.size());
    stats->lattice_nodes_visited += static_cast<int64_t>(qualifying.size());
  }
  const bool last = depth + 1 == levels.size();
  for (int n : qualifying) {
    if (last) {
      if (static_cast<size_t>(n) >= node.leaves.size()) continue;
      for (const LeafView& view : node.leaves[n]) {
        if (stats != nullptr) ++stats->views_range_checked;
        if (PassesFullRangeCondition(*view.description, ctx)) {
          if (budget != nullptr && budget->ConsumeCandidate()) return;
          out->push_back(view.id);
        } else if (stats != nullptr) {
          ++stats->views_range_rejected;
        }
      }
    } else {
      if (static_cast<size_t>(n) >= node.children.size() ||
          node.children[n] == nullptr) {
        continue;
      }
      Search(*node.children[n], levels, depth + 1, ctx, agg_tree, out, stats,
             budget);
      if (budget != nullptr && budget->exhausted()) return;
    }
  }
}

std::vector<ViewId> FilterTree::FindCandidates(const QueryDescription& query,
                                               FilterSearchStats* stats,
                                               QueryBudget* budget) const {
  SearchContext ctx;
  ctx.is_aggregate = query.is_aggregate;
  ctx.source_tables = ToKey(query.source_tables);
  ctx.extended_range_columns = ToKey(query.extended_range_columns);

  auto intern_required = [this](const std::vector<std::string>& texts,
                                LatticeIndex::Key* key, bool* impossible) {
    for (const auto& t : texts) {
      auto atom = LookupAtom(t);
      if (!atom.has_value()) {
        *impossible = true;  // no view carries this text
        return;
      }
      key->push_back(*atom);
    }
    std::sort(key->begin(), key->end());
    key->erase(std::unique(key->begin(), key->end()), key->end());
  };

  intern_required(query.output_expr_texts, &ctx.output_expr_atoms,
                  &ctx.output_exprs_impossible);
  {
    std::vector<std::string> combined = query.output_expr_texts;
    combined.insert(combined.end(), query.agg_expr_texts.begin(),
                    query.agg_expr_texts.end());
    intern_required(combined, &ctx.output_agg_expr_atoms,
                    &ctx.output_agg_exprs_impossible);
  }
  intern_required(query.grouping_expr_texts, &ctx.grouping_expr_atoms,
                  &ctx.grouping_exprs_impossible);

  // Residual atoms: unknown query texts can never appear in a view key,
  // so they are simply dropped from the superset-side set.
  for (const auto& t : query.residual_texts) {
    auto atom = LookupAtom(t);
    if (atom.has_value()) ctx.residual_atoms.push_back(*atom);
  }
  std::sort(ctx.residual_atoms.begin(), ctx.residual_atoms.end());

  for (const auto& cls : query.output_column_classes_spj) {
    ctx.output_classes_spj.push_back(ToKey(cls));
  }
  for (const auto& cls : query.output_column_classes_agg) {
    ctx.output_classes_agg.push_back(ToKey(cls));
  }
  for (const auto& cls : query.grouping_column_classes) {
    ctx.grouping_classes.push_back(ToKey(cls));
  }

  std::vector<ViewId> out;
  if (spj_root_->index().num_live_nodes() > 0 || !spj_root_->leaves.empty()) {
    Search(*spj_root_, spj_levels_, 0, ctx, /*agg_tree=*/false, &out, stats,
           budget);
  }
  if (query.is_aggregate &&
      (agg_root_->index().num_live_nodes() > 0 || !agg_root_->leaves.empty())) {
    Search(*agg_root_, agg_levels_, 0, ctx, /*agg_tree=*/true, &out, stats,
           budget);
  }
  return out;
}

}  // namespace mvopt
