// Union substitutes (§7): "Union substitutes cover the case when all rows
// needed are not available from a single view but can be collected from
// several views. Overlapping views together with SQL's bag semantics
// complicate the issue."
//
// This implementation is restricted to SPJ queries (the precedent set by
// Srivastava et al. [15], who considered unions "but only for SPJ views")
// and partitions the query's rows by *disjoint* subintervals of one
// column's range: each leg is compensated down to its assigned
// subinterval, so every query row is produced by exactly one leg and bag
// semantics are preserved even when the views overlap.
//
// Algorithm: pick a partition column, sweep the query's range on it from
// the lower end, at each step choosing a view whose range covers the
// current cursor and extends furthest; the leg is verified by running the
// ordinary single-view matcher on the query restricted to the assigned
// subinterval.

#ifndef MVOPT_REWRITE_UNION_MATCHER_H_
#define MVOPT_REWRITE_UNION_MATCHER_H_

#include <optional>
#include <vector>

#include "common/query_context.h"
#include "rewrite/matcher.h"
#include "rewrite/range.h"
#include "rewrite/view_catalog.h"

namespace mvopt {

/// A union of single-view substitutes producing disjoint row sets whose
/// union equals the query's result.
struct UnionSubstitute {
  std::vector<Substitute> legs;
};

struct UnionMatchOptions {
  int max_legs = 8;
  int max_partition_columns = 6;
  MatchOptions match;
};

class UnionMatcher {
 public:
  UnionMatcher(const Catalog* catalog, const ViewCatalog* views,
               UnionMatchOptions options = UnionMatchOptions())
      : catalog_(catalog),
        views_(views),
        options_(options),
        matcher_(catalog, options.match) {}

  /// Attempts a union substitute for an SPJ `query` over the candidate
  /// view ids (pass every view, or a pre-filtered set). Returns nullopt
  /// when no disjoint cover exists. With a `ctx`, the sweep checks the
  /// query's deadline at every partition column and leg boundary and
  /// gives up early (returning nullopt) on exhaustion, and records one
  /// verdict per attempted leg into the context's trace.
  std::optional<UnionSubstitute> Match(const SpjgQuery& query,
                                       const std::vector<ViewId>& candidates,
                                       QueryContext* ctx = nullptr) const;

 private:
  /// One sweep over `column`, whose class the query restricts to
  /// `target`.
  std::optional<UnionSubstitute> TryPartitionColumn(
      const SpjgQuery& query, ColumnRefId column, const ValueRange& target,
      const std::vector<ViewId>& candidates, QueryContext* ctx) const;

  const Catalog* catalog_;
  const ViewCatalog* views_;
  UnionMatchOptions options_;
  ViewMatcher matcher_;
};

}  // namespace mvopt

#endif  // MVOPT_REWRITE_UNION_MATCHER_H_
