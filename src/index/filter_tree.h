// Filter tree (§4): a multiway search tree over view descriptions that
// quickly discards views that cannot be used by a query. Every internal
// node partitions its views by one condition; the keys within a node are
// organized in a lattice index so subset/superset searches avoid scanning
// every key.
//
// Two parallel trees are kept: one for SPJ views and one for aggregation
// views (the paper's two extra grouping levels only exist for the
// latter). SPJ queries search only the SPJ tree — an aggregated view can
// never answer a pure SPJ query.
//
// Level order follows §4.3: hubs, source tables, output expressions,
// output columns, residual constraints, range constraints, and (for
// aggregation views) grouping expressions and grouping columns.
//
// Structure sharing (DESIGN.md §15): nodes and the interned-atom table
// are held through shared_ptrs, so copying a tree is O(1) and the copy
// shares every node with its source. AddView and RemoveView path-copy:
// they copy the nodes on the root-to-leaf path that another generation
// still shares and write the ones this tree already owns in place
// (common/cow.h); a node's lattice is copied only when its keys change.
// Copies keep lattice node ids and leaf order, so a copied tree answers
// every search exactly as its source did.
//
// Thread-safety: a tree is written by one thread at a time and never
// after it is published. MatchingService publishes each generation in a
// CatalogSnapshot and writes only unpublished copies, under its writer
// mutex; probes search published generations without locks, and any
// thread may copy a published tree, which keeps that generation's nodes
// alive. Standalone instances (tests, benches) are single-threaded.

#ifndef MVOPT_INDEX_FILTER_TREE_H_
#define MVOPT_INDEX_FILTER_TREE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/query_budget.h"
#include "common/query_context.h"
#include "index/lattice.h"
#include "query/view_def.h"
#include "rewrite/view_description.h"

namespace mvopt {

/// The partitioning conditions of §4.2.
enum class FilterLevel {
  kHub,
  kSourceTables,
  kOutputExprs,
  kOutputColumns,
  kResidual,
  kRangeConstraints,
  kGroupingExprs,
  kGroupingColumns,
};

/// Number of FilterLevel values, for level-indexed count arrays.
inline constexpr int kNumFilterLevels = 8;
static_assert(static_cast<int>(FilterLevel::kGroupingColumns) + 1 ==
                  kNumFilterLevels,
              "kNumFilterLevels must cover every FilterLevel");

const char* FilterLevelName(FilterLevel level);

/// Search-side instrumentation (for the §5 effectiveness numbers, the
/// level-ablation bench and the observability layer). Per-level arrays
/// are indexed by FilterLevel value, merging the SPJ and aggregation
/// trees.
struct FilterSearchStats {
  int64_t lattice_nodes_visited = 0;
  int64_t views_range_checked = 0;
  int64_t views_range_rejected = 0;
  /// Lattice search calls by kind (§4.4's subset/superset walks; scans
  /// are the backjoin-relaxed full-level walks).
  int64_t subset_searches = 0;
  int64_t superset_searches = 0;
  int64_t scan_searches = 0;
  /// Times each level's partitioning condition was evaluated.
  std::array<int64_t, kNumFilterLevels> level_probes{};
  /// Lattice nodes qualifying (candidate paths surviving) per level.
  std::array<int64_t, kNumFilterLevels> level_qualifying{};

  void MergeFrom(const FilterSearchStats& other) {
    lattice_nodes_visited += other.lattice_nodes_visited;
    views_range_checked += other.views_range_checked;
    views_range_rejected += other.views_range_rejected;
    subset_searches += other.subset_searches;
    superset_searches += other.superset_searches;
    scan_searches += other.scan_searches;
    for (int i = 0; i < kNumFilterLevels; ++i) {
      level_probes[i] += other.level_probes[i];
      level_qualifying[i] += other.level_qualifying[i];
    }
  }
};

class FilterTree {
 public:
  FilterTree();

  /// Next-generation copy: shares every node and the atom table with
  /// `other`; each of the two trees copies a shared node before its
  /// first write to it, so neither sees the other's later changes.
  FilterTree(const FilterTree& other);
  FilterTree& operator=(const FilterTree&) = delete;

  /// Overrides the default level orders (primarily for the ablation
  /// bench). Must be called before the first AddView. Grouping levels are
  /// ignored for the SPJ tree.
  void SetLevels(std::vector<FilterLevel> spj_levels,
                 std::vector<FilterLevel> agg_levels);

  /// When the matcher may add base-table backjoins (§7 extension), the
  /// output-column and grouping-column hitting conditions are no longer
  /// necessary conditions; this disables them.
  void set_assume_backjoins(bool v) { assume_backjoins_ = v; }

  /// Indexes view `id`, described by `description` (which the tree's
  /// leaf keeps for the full range check). Strongly exception-safe:
  /// everything fallible (keys, node copies, the new subtree, the
  /// failpoints) happens before the single visible write, so a failure
  /// leaves the tree as it was.
  void AddView(ViewId id, std::shared_ptr<const ViewDescription> description);

  /// Removes a previously added view (`description` as given to AddView).
  void RemoveView(ViewId id, const ViewDescription& description);

  /// Returns ids of views satisfying every partitioning condition for
  /// `query`, including the full range-constraint check (§4.2.5).
  /// When `budget` is given, the search stops early on deadline or
  /// candidate-cap exhaustion and returns the candidates found so far.
  std::vector<ViewId> FindCandidates(const QueryDescription& query,
                                     FilterSearchStats* stats = nullptr,
                                     QueryBudget* budget = nullptr) const;

  /// Context form: the probe draws its budget (deadline + candidate cap)
  /// from `ctx`. Preferred for new callers; the loose-parameter overload
  /// above is kept for back-compat.
  std::vector<ViewId> FindCandidates(const QueryDescription& query,
                                     QueryContext& ctx,
                                     FilterSearchStats* stats = nullptr) const {
    return FindCandidates(query, stats, ctx.budget());
  }

  int num_views() const { return num_views_; }

  /// Structure-sharing introspection: the number of nodes in this tree,
  /// and how many of them are the very same objects in `other` (two
  /// generations share every node no write between them copied).
  int NodeCount() const { return SharedNodeCount(*this); }
  int SharedNodeCount(const FilterTree& other) const;

 private:
  /// The invariant auditor (src/verify) walks the private tree structure
  /// read-only to validate it against the public search results.
  friend class InvariantAuditor;

  /// A leaf entry: the view and the description its range check reads.
  struct LeafView {
    ViewId id;
    std::shared_ptr<const ViewDescription> description;
  };

  /// A node's lattice, shared apart from the node: a write that only
  /// relinks a child (every node above the one that gets the new key)
  /// copies the node but not its lattice.
  struct Lattice {
    /// Edit token of the only tree that may write this lattice in place.
    uint64_t owner = 0;
    LatticeIndex index;
  };

  struct Node {
    /// Edit token of the only tree that may write this node in place.
    uint64_t owner = 0;
    std::shared_ptr<Lattice> lattice;
    /// Children / leaf payloads indexed by lattice node id.
    std::vector<std::shared_ptr<Node>> children;
    std::vector<std::vector<LeafView>> leaves;

    const LatticeIndex& index() const { return lattice->index; }
  };

  struct AtomTable {
    uint64_t owner = 0;
    std::unordered_map<std::string, uint32_t> ids;
  };

  /// Interned query-side keys, computed once per search.
  struct SearchContext {
    LatticeIndex::Key source_tables;
    LatticeIndex::Key output_expr_atoms;       // SPJ tree
    bool output_exprs_impossible = false;
    LatticeIndex::Key output_agg_expr_atoms;   // agg tree (incl. agg texts)
    bool output_agg_exprs_impossible = false;
    std::vector<LatticeIndex::Key> output_classes_spj;
    std::vector<LatticeIndex::Key> output_classes_agg;
    LatticeIndex::Key residual_atoms;          // unknown texts dropped
    LatticeIndex::Key extended_range_columns;
    LatticeIndex::Key grouping_expr_atoms;
    bool grouping_exprs_impossible = false;
    std::vector<LatticeIndex::Key> grouping_classes;
    bool is_aggregate = false;
  };

  /// A new, empty node this tree owns.
  std::shared_ptr<Node> NewNode() const;
  /// Adds every node of the subtree at `node` to `out`.
  static void CollectNodes(const Node& node,
                           std::unordered_set<const Node*>* out);
  LatticeIndex::Key ViewKey(const ViewDescription& d, FilterLevel level);
  void Search(const Node& node, const std::vector<FilterLevel>& levels,
              size_t depth, const SearchContext& ctx, bool agg_tree,
              std::vector<ViewId>* out, FilterSearchStats* stats,
              QueryBudget* budget) const;
  void SearchLevel(const Node& node, FilterLevel level,
                   const SearchContext& ctx, bool agg_tree,
                   std::vector<int>* out, FilterSearchStats* stats) const;
  static bool PassesFullRangeCondition(const ViewDescription& d,
                                       const SearchContext& ctx);

  uint32_t Intern(const std::string& text);
  std::optional<uint32_t> LookupAtom(const std::string& text) const;

  /// Edit token (common/cow.h). The copy constructor re-tokens its
  /// source too — an atomic, so a copy may be taken from any thread.
  mutable std::atomic<uint64_t> edit_;
  std::vector<FilterLevel> spj_levels_;
  std::vector<FilterLevel> agg_levels_;
  std::shared_ptr<Node> spj_root_;
  std::shared_ptr<Node> agg_root_;
  std::shared_ptr<AtomTable> atoms_;
  int num_views_ = 0;
  bool assume_backjoins_ = false;
};

}  // namespace mvopt

#endif  // MVOPT_INDEX_FILTER_TREE_H_
