// The view-matching algorithm of §3: decides whether an SPJG query
// expression can be computed from a materialized SPJG view and, if so,
// constructs the substitute expression.
//
// Pipeline (per candidate table-reference mapping):
//   1. translate the view into the query's table-reference space,
//   2. eliminate the view's extra tables through cardinality-preserving
//      foreign-key joins and extend the query's equivalence classes with
//      the eliminated join conditions (§3.2),
//   3. equijoin subsumption test + compensating column-equality
//      predicates (§3.1.2),
//   4. range subsumption test + compensating range predicates,
//   5. residual subsumption test + compensating residual predicates,
//   6. route every compensating predicate and query output to view output
//      columns (§3.1.3, §3.1.4),
//   7. aggregation handling: grouping containment, count(*) -> SUM(cnt),
//      SUM rollup, AVG -> SUM/COUNT (§3.3).

#ifndef MVOPT_REWRITE_MATCHER_H_
#define MVOPT_REWRITE_MATCHER_H_

#include <optional>
#include <string>

#include "catalog/catalog.h"
#include "common/enum_coverage.h"
#include "query/spjg.h"
#include "query/substitute.h"
#include "query/view_def.h"

namespace mvopt {

struct MatchOptions {
  /// §3.2 relaxation: accept a nullable FK column when the query has a
  /// null-rejecting predicate on it.
  bool allow_nullable_fk_with_null_rejection = true;
  /// Cap on table-reference mappings tried for self-join ambiguity.
  int max_table_mappings = 24;
  /// Allow MIN/MAX in views and queries (§7 extension).
  bool allow_min_max = true;
  /// Fold CHECK constraints into the antecedent of Wq => Wv (§3.1.2).
  bool use_check_constraints = true;
  /// §7 extension: when a column cannot be routed to a view output, allow
  /// joining the view back to a base table whose unique key the view
  /// outputs, recovering every column of that table. Off by default
  /// (paper-faithful single-table substitutes).
  bool enable_backjoins = false;
};

/// Why a view was rejected (ordered roughly by test order; used by the
/// experiment harness to report where candidates die).
enum class RejectReason {
  kNone,
  kSourceTables,            ///< view lacks tables the query needs
  kExtraTableElimination,   ///< extra tables not cardinality-preserving
  kEquijoinSubsumption,     ///< view equates columns the query does not
  kRangeSubsumption,        ///< view range does not contain query range
  kResidualSubsumption,     ///< view residual missing from query
  kCompensationNotComputable,  ///< compensating predicate column not in output
  kOutputNotComputable,     ///< query output not computable from view output
  kViewMoreAggregated,      ///< SPJ query, aggregated view
  kGroupingMismatch,        ///< query grouping not a subset of view grouping
  kAggregateNotComputable,  ///< query aggregate has no matching view output
  kStale,                   ///< view lags its base tables beyond tolerance
};

/// Number of RejectReason values, for reason-indexed count arrays
/// (mirrors kNumCheckCodes in src/verify).
inline constexpr int kNumRejectReasons = 12;
static_assert(static_cast<int>(RejectReason::kStale) + 1 ==
                  kNumRejectReasons,
              "kNumRejectReasons must cover every RejectReason");

/// Exhaustive (switch-based, no default): a new RejectReason without a
/// name is a -Wswitch error, and the static_assert below proves every
/// value maps to a real name even where that warning is demoted.
constexpr const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kSourceTables:
      return "source-tables";
    case RejectReason::kExtraTableElimination:
      return "extra-table-elimination";
    case RejectReason::kEquijoinSubsumption:
      return "equijoin-subsumption";
    case RejectReason::kRangeSubsumption:
      return "range-subsumption";
    case RejectReason::kResidualSubsumption:
      return "residual-subsumption";
    case RejectReason::kCompensationNotComputable:
      return "compensation-not-computable";
    case RejectReason::kOutputNotComputable:
      return "output-not-computable";
    case RejectReason::kViewMoreAggregated:
      return "view-more-aggregated";
    case RejectReason::kGroupingMismatch:
      return "grouping-mismatch";
    case RejectReason::kAggregateNotComputable:
      return "aggregate-not-computable";
    case RejectReason::kStale:
      return "stale-view";
  }
  return "?";
}

static_assert(
    AllEnumeratorsNamed<RejectReason, RejectReasonName>(kNumRejectReasons),
    "every RejectReason needs a RejectReasonName entry");

struct MatchResult {
  std::optional<Substitute> substitute;
  RejectReason reason = RejectReason::kNone;

  bool ok() const { return substitute.has_value(); }
};

struct MatchProbeContext;  // rewrite/match_program.h

class ViewMatcher {
 public:
  explicit ViewMatcher(const Catalog* catalog, MatchOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// Tests whether `query` can be computed from `view` alone and builds
  /// the substitute. Both expressions must be in SPJG normal form with
  /// CNF conjunct lists (SpjgBuilder guarantees this). Analyzes the query
  /// for this one call; a probe testing several views analyzes once and
  /// uses the overload below.
  MatchResult Match(const SpjgQuery& query, const ViewDefinition& view) const;

  /// Same, reading the query side from a complete probe analysis built
  /// under this matcher's options (BuildMatchProbeContext).
  MatchResult Match(const MatchProbeContext& query,
                    const ViewDefinition& view) const;

 private:
  MatchResult MatchWithMapping(const MatchProbeContext& query,
                               const ViewDefinition& view,
                               const std::vector<int32_t>& view_to_slot) const;

  const Catalog* catalog_;
  MatchOptions options_;
};

}  // namespace mvopt

#endif  // MVOPT_REWRITE_MATCHER_H_
