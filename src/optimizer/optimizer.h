// Transformation-based optimizer in the style of Cascades (§1, §5): a
// memo of groups keyed by (table-reference set, aggregation spec), logical
// alternatives generated by join reordering and pre-aggregation, and the
// view-matching rule invoked once per SPJG group. Every substitute the
// rule produces becomes an alternative in its group and participates in
// cost-based plan selection like any other expression — including the
// automatic consideration of secondary indexes on materialized views.

#ifndef MVOPT_OPTIMIZER_OPTIMIZER_H_
#define MVOPT_OPTIMIZER_OPTIMIZER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/query_budget.h"
#include "common/query_context.h"
#include "index/matching_service.h"
#include "observe/observe.h"
#include "observe/trace.h"
#include "optimizer/cardinality.h"
#include "optimizer/physical.h"
#include "query/spjg.h"
#include "verify/invariant_auditor.h"

namespace mvopt {

struct OptimizerOptions {
  /// Invoke the view-matching rule (Figure 2's "Alt" vs no-views runs).
  bool enable_view_matching = true;
  /// Run view matching but discard its substitutes — Figure 2's "No Alt"
  /// series, which isolates the cost of finding and checking views from
  /// the cost of optimizing the extra alternatives.
  bool produce_substitutes = true;
  /// Consider index range scans (base-table and view indexes).
  bool enable_index_scans = true;
  /// Enable the pre-aggregation transformation (Example 4).
  bool enable_preaggregation = true;
  /// Audit the finished memo's structural invariants (src/verify) and
  /// report violations in OptimizationResult::memo_audit.
  bool audit_memo = false;
  /// Observability (see observe/observe.h): counters mirror the per-query
  /// OptimizerMetrics into the shared registry; full-trace mode
  /// additionally attaches a QueryTrace to every OptimizationResult.
  /// The MatchingService carries its own ObserveOptions — give both the
  /// same registry for a complete pipeline picture.
  ObserveOptions observe;
};

/// Per-query instrumentation mirroring the measurements of §5.
struct OptimizerMetrics {
  int64_t view_matching_invocations = 0;
  int64_t substitutes_produced = 0;
  int64_t groups_created = 0;
  int64_t expressions_generated = 0;
  /// View-matching probes that raised (failpoint, internal error) and
  /// were isolated — optimization continued without their substitutes.
  int64_t view_matching_failures = 0;
  double view_matching_seconds = 0;
};

struct OptimizationResult {
  PhysPlanPtr plan;
  double cost = 0;
  bool uses_view = false;
  /// kNone for a full optimization; otherwise the first budget limit
  /// that tripped. A degraded result still carries a valid plan — the
  /// best one found before the budget ran out (at worst the base-table
  /// plan).
  DegradationReason degradation = DegradationReason::kNone;
  OptimizerMetrics metrics;
  /// Populated when OptimizerOptions::audit_memo is set.
  AuditReport memo_audit;
  /// Per-query span recorder, attached in full-trace mode (null
  /// otherwise): stage wall-clock, per-candidate-view verdicts, named
  /// counts; QueryTrace::ToJson dumps it for offline analysis.
  std::shared_ptr<QueryTrace> trace;
};

class Optimizer {
 public:
  /// `matching` may be nullptr (optimization without materialized views).
  /// Any SubstituteSource works: the single-store MatchingService or the
  /// fault-isolated ShardedCatalogService — the optimizer only probes
  /// for substitutes and resolves the view ids they carry.
  Optimizer(const Catalog* catalog, SubstituteSource* matching,
            OptimizerOptions options = OptimizerOptions());

  /// Optimizes an SPJG query and returns the best physical plan. The
  /// query must reference at most 30 tables. The context carries every
  /// per-query cross-cutting concern:
  ///   - with a budget, memo expansion, view matching and candidate
  ///     enumeration stop cooperatively on exhaustion and the best plan
  ///     found so far is returned;
  ///   - its staleness tolerance flows into every FindSubstitutes probe;
  ///   - a caller-attached trace receives the probes' stage spans. In
  ///     full-trace mode without one, the optimizer attaches its own
  ///     trace for the duration of the call and hands it back in
  ///     OptimizationResult::trace.
  /// OptimizationResult::degradation is the context's degradation,
  /// advisories included: even without a budget, a query that only
  /// stale views could answer reports kStaleViewsOnly. A
  /// default-constructed context means no deadline, no caps and fresh
  /// views only.
  OptimizationResult Optimize(const SpjgQuery& query, QueryContext& ctx);

 private:
  struct AggSpec {
    std::vector<ExprPtr> group_by;      // query-space
    std::vector<OutputExpr> outputs;    // query-space (may use synthetic)
    bool scalar = false;                // aggregate without grouping
  };

  enum class ExprKindL { kGet, kJoin, kAggregate, kViewGet };
  struct LogicalExpr {
    ExprKindL kind = ExprKindL::kGet;
    int32_t table_ref = -1;       // kGet
    int children[2] = {-1, -1};   // group ids (kJoin: both; kAggregate: 0)
    int child_agg_spec = -1;      // kAggregate input spec? (unused)
    Substitute substitute;        // kViewGet
  };
  struct Group {
    uint32_t mask = 0;
    int agg_spec = -1;  // -1 = SPJ
    std::vector<LogicalExpr> exprs;
    bool matched = false;     // view-matching rule applied?
    bool costed = false;
    PhysPlanPtr best;
    double best_cost = 0;
    // Cached signature info for SPJ groups.
    std::vector<ColumnRefId> required_columns;
  };

  // Per-query state (reset by Optimize).
  struct Context;

  int MakeSpjGroup(Context* ctx, uint32_t mask);
  int MakeAggGroup(Context* ctx, uint32_t mask, int agg_spec);
  void ApplyViewMatching(Context* ctx, int group_id);
  void ApplyPreAggregation(Context* ctx, int root_group);
  struct MaskSignature;
  /// The mask's remapped tables + conjuncts (cached in the context).
  const MaskSignature& SignatureOf(Context* ctx, uint32_t mask) const;
  /// The group's view-matching probe: its mask signature plus outputs.
  SpjgQuery GroupSignature(Context* ctx, const Group& group) const;
  PhysPlanPtr OptimizeGroup(Context* ctx, int group_id);
  PhysPlanPtr ImplementGet(Context* ctx, const Group& group,
                           const LogicalExpr& expr);
  PhysPlanPtr ImplementJoin(Context* ctx, const Group& group,
                            const LogicalExpr& expr);
  PhysPlanPtr ImplementAggregate(Context* ctx, const Group& group,
                                 const LogicalExpr& expr);
  std::vector<PhysPlanPtr> ImplementViewGet(Context* ctx, const Group& group,
                                            const LogicalExpr& expr);
  double SpjCardinality(Context* ctx, uint32_t mask);

  /// Cached registry instruments; all null when counters are off.
  struct OptMetrics {
    Counter* optimizations = nullptr;
    Counter* memo_groups = nullptr;
    Counter* memo_exprs = nullptr;
    Counter* view_matching_invocations = nullptr;
    Counter* view_matching_failures = nullptr;
    std::array<Counter*, kNumDegradationReasons> degradations{};
    Histogram* optimize_latency = nullptr;
  };
  void RegisterMetrics();

  const Catalog* catalog_;
  SubstituteSource* matching_;
  OptimizerOptions options_;
  CardinalityEstimator estimator_;
  OptMetrics metrics_;
};

}  // namespace mvopt

#endif  // MVOPT_OPTIMIZER_OPTIMIZER_H_
