#include "optimizer/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

#include "expr/classify.h"

namespace mvopt {

namespace {

int PopCount(uint32_t x) { return __builtin_popcount(x); }

// Distinct column references of `expr` restricted to refs in `mask`.
void CollectMaskedColumns(const ExprPtr& expr, uint32_t mask,
                          std::vector<ColumnRefId>* out) {
  std::vector<ColumnRefId> cols;
  expr->CollectColumnRefs(&cols);
  for (ColumnRefId c : cols) {
    if (c.table_ref >= kSyntheticRefBase) continue;
    if (!(mask & (1u << c.table_ref))) continue;
    if (std::find(out->begin(), out->end(), c) == out->end()) {
      out->push_back(c);
    }
  }
}

constexpr int kJoinedAggKeyBase = 100000;

void CollectViewNames(const PhysPlan& plan, std::vector<std::string>* out) {
  if (plan.kind == PhysKind::kViewScan ||
      plan.kind == PhysKind::kViewIndexScan) {
    out->push_back(plan.view_name);
  }
  for (const PhysPlanPtr& child : plan.children) {
    CollectViewNames(*child, out);
  }
}

// Tie-break between alternatives of exactly equal cost that read
// different views: the one whose sorted view names compare smaller wins.
// The chosen plan then does not depend on the order a substitute source
// lists its substitutes (a sharded catalog lists them shard by shard).
// Every other tie keeps the earlier alternative.
bool WinsCostTie(const PhysPlan& challenger, const PhysPlan& incumbent) {
  std::vector<std::string> mine;
  std::vector<std::string> theirs;
  CollectViewNames(challenger, &mine);
  CollectViewNames(incumbent, &theirs);
  if (mine.empty() || theirs.empty()) return false;
  std::sort(mine.begin(), mine.end());
  std::sort(theirs.begin(), theirs.end());
  return mine < theirs;
}

}  // namespace

// Per memo mask: the mask's tables and conjuncts remapped into the
// group's own slot space (remap[query slot] = group slot, -1 outside).
// Built once per mask and shared by cardinality estimation and the
// view-matching probes of the mask's SPJ and aggregate groups.
struct Optimizer::MaskSignature {
  std::vector<int32_t> remap;
  SpjgQuery spj;  // tables + conjuncts only
};

struct Optimizer::Context {
  const SpjgQuery* query = nullptr;
  QueryContext* qctx = nullptr;   // the caller's per-query context
  QueryBudget* budget = nullptr;  // == qctx->budget(); may be null
  uint32_t full_mask = 0;
  std::vector<uint32_t> conjunct_mask;  // per query conjunct
  std::map<std::pair<uint32_t, int>, int> group_index;
  std::vector<Group> groups;
  std::vector<AggSpec> agg_specs;
  std::map<uint32_t, double> card_cache;
  std::map<uint32_t, MaskSignature> signatures;
  OptimizerMetrics metrics;
  QueryTrace* trace = nullptr;  // full-trace mode only

  uint32_t MaskOf(const ExprPtr& e) const {
    std::vector<ColumnRefId> cols;
    e->CollectColumnRefs(&cols);
    uint32_t m = 0;
    for (ColumnRefId c : cols) {
      if (c.table_ref < kSyntheticRefBase) m |= 1u << c.table_ref;
    }
    return m;
  }

  // Conjunct indices fully inside `mask`.
  std::vector<int> ConjunctsWithin(uint32_t mask) const {
    std::vector<int> out;
    for (size_t i = 0; i < conjunct_mask.size(); ++i) {
      if ((conjunct_mask[i] & ~mask) == 0) out.push_back(static_cast<int>(i));
    }
    return out;
  }

  // Conjunct indices crossing the (a, b) partition.
  std::vector<int> ConjunctsCrossing(uint32_t a, uint32_t b) const {
    std::vector<int> out;
    for (size_t i = 0; i < conjunct_mask.size(); ++i) {
      uint32_t m = conjunct_mask[i];
      if ((m & a) != 0 && (m & b) != 0 && (m & ~(a | b)) == 0) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  }
};

Optimizer::Optimizer(const Catalog* catalog, SubstituteSource* matching,
                     OptimizerOptions options)
    : catalog_(catalog),
      matching_(matching),
      options_(options),
      estimator_(catalog) {
  RegisterMetrics();
}

void Optimizer::RegisterMetrics() {
  if (!options_.observe.counters_enabled()) return;
  MetricsRegistry* r = options_.observe.registry;
  metrics_.optimizations = r->FindOrCreateCounter(
      "mvopt_optimize_total", "Optimize calls completed");
  metrics_.memo_groups = r->FindOrCreateCounter(
      "mvopt_memo_groups_total", "Memo groups created");
  metrics_.memo_exprs = r->FindOrCreateCounter(
      "mvopt_memo_exprs_total", "Memo logical expressions generated");
  metrics_.view_matching_invocations = r->FindOrCreateCounter(
      "mvopt_view_matching_invocations_total",
      "View-matching rule invocations");
  metrics_.view_matching_failures = r->FindOrCreateCounter(
      "mvopt_view_matching_failures_total",
      "View-matching probes that raised and were isolated");
  for (int i = 0; i < kNumDegradationReasons; ++i) {
    const auto reason = static_cast<DegradationReason>(i);
    if (reason == DegradationReason::kNone) continue;
    metrics_.degradations[i] = r->FindOrCreateCounter(
        "mvopt_budget_degradations_total",
        "Optimizations degraded by a budget limit, by first tripped reason",
        {{"reason", DegradationReasonName(reason)}});
  }
  metrics_.optimize_latency = r->FindOrCreateHistogram(
      "mvopt_optimize_latency_seconds", "Optimize wall-clock latency");
}

const Optimizer::MaskSignature& Optimizer::SignatureOf(Context* ctx,
                                                       uint32_t mask) const {
  auto [it, inserted] = ctx->signatures.try_emplace(mask);
  MaskSignature& sig = it->second;
  if (!inserted) return sig;
  const SpjgQuery& q = *ctx->query;
  sig.remap.assign(q.num_tables(), -1);
  for (int t = 0; t < q.num_tables(); ++t) {
    if (mask & (1u << t)) {
      sig.remap[t] = static_cast<int32_t>(sig.spj.tables.size());
      sig.spj.tables.push_back(q.tables[t]);
    }
  }
  for (int ci : ctx->ConjunctsWithin(mask)) {
    sig.spj.conjuncts.push_back(q.conjuncts[ci]->RemapTableRefs(sig.remap));
  }
  return sig;
}

SpjgQuery Optimizer::GroupSignature(Context* ctx, const Group& group) const {
  const MaskSignature& base = SignatureOf(ctx, group.mask);
  const std::vector<int32_t>& remap = base.remap;
  SpjgQuery sig = base.spj;
  if (group.agg_spec < 0) {
    for (size_t i = 0; i < group.required_columns.size(); ++i) {
      ColumnRefId c = group.required_columns[i];
      sig.outputs.push_back(OutputExpr{
          "o" + std::to_string(i),
          Expr::MakeColumn(remap[c.table_ref], c.column)});
    }
    sig.is_aggregate = false;
  } else {
    const AggSpec& spec = ctx->agg_specs[group.agg_spec];
    for (const auto& g : spec.group_by) {
      sig.group_by.push_back(g->RemapTableRefs(remap));
    }
    for (const auto& o : spec.outputs) {
      sig.outputs.push_back(OutputExpr{o.name, o.expr->RemapTableRefs(remap)});
    }
    sig.is_aggregate = true;
  }
  return sig;
}

void Optimizer::ApplyViewMatching(Context* ctx, int group_id) {
  Group& group = ctx->groups[group_id];
  if (group.matched) return;
  group.matched = true;
  if (!options_.enable_view_matching || matching_ == nullptr) return;
  // Substitutes are optional alternatives: an exhausted budget skips the
  // rule entirely (the group keeps its base-table expressions).
  if (ctx->budget != nullptr && ctx->budget->TickDeadline()) return;

  SpjgQuery sig = GroupSignature(ctx, group);
  auto start = std::chrono::steady_clock::now();
  std::vector<Substitute> subs;
  try {
    subs = matching_->FindSubstitutes(sig, *ctx->qctx);
  } catch (const std::exception&) {
    // Fault isolation: a failing matching service degrades the plan (no
    // substitutes for this group), never the optimization.
    ++ctx->metrics.view_matching_failures;
  }
  auto end = std::chrono::steady_clock::now();
  ctx->metrics.view_matching_seconds +=
      std::chrono::duration<double>(end - start).count();
  ++ctx->metrics.view_matching_invocations;
  ctx->metrics.substitutes_produced += static_cast<int64_t>(subs.size());
  if (!options_.produce_substitutes) return;

  for (Substitute& sub : subs) {
    LogicalExpr e;
    e.kind = ExprKindL::kViewGet;
    e.substitute = std::move(sub);
    ctx->groups[group_id].exprs.push_back(std::move(e));
    ++ctx->metrics.expressions_generated;
  }
}

int Optimizer::MakeSpjGroup(Context* ctx, uint32_t mask) {
  auto key = std::make_pair(mask, -1);
  auto it = ctx->group_index.find(key);
  if (it != ctx->group_index.end()) return it->second;

  int gid = static_cast<int>(ctx->groups.size());
  ctx->group_index[key] = gid;
  ctx->groups.push_back(Group{});
  ++ctx->metrics.groups_created;
  // Charge the budget for the group; creation itself always proceeds
  // (the memo needs the group for a complete plan), but once the cap
  // trips every group is built minimally below.
  if (ctx->budget != nullptr) ctx->budget->ConsumeMemoGroup();
  {
    Group& g = ctx->groups[gid];
    g.mask = mask;
    g.agg_spec = -1;
    // Required columns: every column of the group's tables referenced
    // anywhere in the query (predicates, outputs, grouping).
    std::vector<ColumnRefId> required;
    for (const auto& c : ctx->query->conjuncts) {
      CollectMaskedColumns(c, mask, &required);
    }
    for (const auto& o : ctx->query->outputs) {
      CollectMaskedColumns(o.expr, mask, &required);
    }
    for (const auto& gb : ctx->query->group_by) {
      CollectMaskedColumns(gb, mask, &required);
    }
    std::sort(required.begin(), required.end());
    g.required_columns = std::move(required);
  }

  if (PopCount(mask) == 1) {
    LogicalExpr e;
    e.kind = ExprKindL::kGet;
    e.table_ref = static_cast<int32_t>(__builtin_ctz(mask));
    ctx->groups[gid].exprs.push_back(e);
    ++ctx->metrics.expressions_generated;
  } else {
    // All binary splits; prefer splits where both sides are internally
    // connected and linked to each other by a crossing conjunct, falling
    // back to every split for disconnected queries (cross joins).
    auto internally_connected = [ctx](uint32_t m) {
      uint32_t reached = m & (~m + 1);  // lowest bit
      bool grew = true;
      while (grew && reached != m) {
        grew = false;
        for (uint32_t cm : ctx->conjunct_mask) {
          if ((cm & ~m) == 0 && (cm & reached) != 0 &&
              (cm & m & ~reached) != 0) {
            reached |= cm & m;
            grew = true;
          }
        }
      }
      return reached == m;
    };
    std::vector<uint32_t> connected;
    std::vector<uint32_t> all;
    for (uint32_t s = (mask - 1) & mask; s != 0; s = (s - 1) & mask) {
      all.push_back(s);
      if (!ctx->ConjunctsCrossing(s, mask & ~s).empty() &&
          internally_connected(s) && internally_connected(mask & ~s)) {
        connected.push_back(s);
      }
    }
    const std::vector<uint32_t>& splits = connected.empty() ? all : connected;
    for (uint32_t s : splits) {
      // Graceful degradation: the first split always materializes (its
      // recursion gives every group at least one complete alternative,
      // so a plan always exists); further splits stop once the budget is
      // exhausted.
      if (ctx->budget != nullptr && !ctx->groups[gid].exprs.empty()) {
        ctx->budget->TickDeadline();
        ctx->budget->ConsumeMemoExpr();
        if (ctx->budget->exhausted()) break;
      }
      int left = MakeSpjGroup(ctx, s);
      int right = MakeSpjGroup(ctx, mask & ~s);
      LogicalExpr e;
      e.kind = ExprKindL::kJoin;
      e.children[0] = left;
      e.children[1] = right;
      ctx->groups[gid].exprs.push_back(e);
      ++ctx->metrics.expressions_generated;
    }
  }
  ApplyViewMatching(ctx, gid);
  return gid;
}

int Optimizer::MakeAggGroup(Context* ctx, uint32_t mask, int agg_spec) {
  auto key = std::make_pair(mask, agg_spec);
  auto it = ctx->group_index.find(key);
  if (it != ctx->group_index.end()) return it->second;
  int gid = static_cast<int>(ctx->groups.size());
  ctx->group_index[key] = gid;
  ctx->groups.push_back(Group{});
  ++ctx->metrics.groups_created;
  ctx->groups[gid].mask = mask;
  ctx->groups[gid].agg_spec = agg_spec;

  int child = MakeSpjGroup(ctx, mask);
  LogicalExpr e;
  e.kind = ExprKindL::kAggregate;
  e.children[0] = child;
  e.child_agg_spec = agg_spec;  // compute spec == group spec
  ctx->groups[gid].exprs.push_back(e);
  ++ctx->metrics.expressions_generated;
  ApplyViewMatching(ctx, gid);
  return gid;
}

void Optimizer::ApplyPreAggregation(Context* ctx, int root_group) {
  const SpjgQuery& q = *ctx->query;
  Group& root = ctx->groups[root_group];
  const uint32_t mask = root.mask;
  if (PopCount(mask) < 2) return;
  const AggSpec spec0 = ctx->agg_specs[root.agg_spec];

  ClassifiedPredicates all_preds = ClassifyConjuncts(q.conjuncts);

  for (int r = 0; r < q.num_tables(); ++r) {
    // Pre-aggregation alternatives are pure gravy — stop on exhaustion.
    if (ctx->budget != nullptr &&
        (ctx->budget->TickDeadline() || ctx->budget->exhausted())) {
      break;
    }
    const uint32_t rbit = 1u << r;
    if (!(mask & rbit)) continue;
    const uint32_t inner_mask = mask & ~rbit;

    // (a) No aggregate argument may reference the pushed-over table.
    bool aggs_ok = true;
    for (const auto& o : spec0.outputs) {
      if (o.expr->kind() != ExprKind::kAggregate) continue;
      if (o.expr->num_children() == 1 &&
          (ctx->MaskOf(o.expr->child(0)) & rbit) != 0) {
        aggs_ok = false;
        break;
      }
    }
    if (!aggs_ok) continue;

    // (b) The crossing predicates must be column equalities whose r-side
    // columns cover a unique key of r's table (each inner row then joins
    // at most one r row, so pre-aggregated sums stay correct).
    std::vector<int> crossing = ctx->ConjunctsCrossing(inner_mask, rbit);
    if (crossing.empty()) continue;
    std::vector<ColumnOrdinal> r_cols;
    std::vector<ColumnRefId> inner_join_cols;
    bool equalities_ok = true;
    for (int ci : crossing) {
      const Expr& e = *q.conjuncts[ci];
      if (e.kind() != ExprKind::kComparison ||
          e.compare_op() != CompareOp::kEq ||
          e.child(0)->kind() != ExprKind::kColumnRef ||
          e.child(1)->kind() != ExprKind::kColumnRef) {
        equalities_ok = false;
        break;
      }
      ColumnRefId a = e.child(0)->column_ref();
      ColumnRefId b = e.child(1)->column_ref();
      if (a.table_ref == r) std::swap(a, b);
      if (b.table_ref != r || a.table_ref == r) {
        equalities_ok = false;
        break;
      }
      r_cols.push_back(b.column);
      inner_join_cols.push_back(a);
    }
    if (!equalities_ok) continue;
    if (!catalog_->table(q.tables[r].table).CoversUniqueKey(r_cols)) {
      continue;
    }

    // Inner grouping: join columns + all inner-side columns referenced by
    // the outer grouping expressions.
    std::vector<ColumnRefId> inner_group_cols = inner_join_cols;
    for (const auto& g : spec0.group_by) {
      CollectMaskedColumns(g, inner_mask, &inner_group_cols);
    }
    std::sort(inner_group_cols.begin(), inner_group_cols.end());
    inner_group_cols.erase(
        std::unique(inner_group_cols.begin(), inner_group_cols.end()),
        inner_group_cols.end());

    // Build the inner aggregation spec.
    AggSpec inner;
    for (size_t i = 0; i < inner_group_cols.size(); ++i) {
      ExprPtr col = Expr::MakeColumn(inner_group_cols[i]);
      inner.group_by.push_back(col);
      inner.outputs.push_back(OutputExpr{"pg" + std::to_string(i), col});
    }
    const int count_ordinal = static_cast<int>(inner.outputs.size());
    inner.outputs.push_back(OutputExpr{
        "pcnt", Expr::MakeAggregate(AggKind::kCountStar, nullptr)});
    // One pushed aggregate per outer aggregate (AVG contributes a SUM).
    struct PushedAgg {
      size_t outer_index;  // index into spec0.outputs
      int inner_ordinal;
      AggKind kind;
    };
    std::vector<PushedAgg> pushed;
    bool push_ok = true;
    for (size_t i = 0; i < spec0.outputs.size(); ++i) {
      const Expr& oe = *spec0.outputs[i].expr;
      if (oe.kind() != ExprKind::kAggregate) continue;
      switch (oe.agg_kind()) {
        case AggKind::kCountStar:
          pushed.push_back({i, count_ordinal, AggKind::kCountStar});
          break;
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax: {
          int ord = static_cast<int>(inner.outputs.size());
          inner.outputs.push_back(OutputExpr{
              "pa" + std::to_string(i),
              Expr::MakeAggregate(oe.agg_kind(), oe.child(0))});
          pushed.push_back({i, ord, oe.agg_kind()});
          break;
        }
        case AggKind::kAvg: {
          int ord = static_cast<int>(inner.outputs.size());
          inner.outputs.push_back(OutputExpr{
              "pa" + std::to_string(i),
              Expr::MakeAggregate(AggKind::kSum, oe.child(0))});
          pushed.push_back({i, ord, AggKind::kAvg});
          break;
        }
      }
    }
    if (!push_ok) continue;
    inner.scalar = inner.group_by.empty();

    const int inner_spec_id = static_cast<int>(ctx->agg_specs.size());
    ctx->agg_specs.push_back(inner);
    const int32_t syn = kSyntheticRefBase + inner_spec_id;

    // Outer spec: original grouping; aggregates roll up over synthetics.
    AggSpec outer;
    outer.group_by = spec0.group_by;
    outer.scalar = spec0.scalar;
    outer.outputs = spec0.outputs;
    ExprPtr syn_cnt = Expr::MakeColumn(syn, count_ordinal);
    for (const PushedAgg& p : pushed) {
      ExprPtr syn_col = Expr::MakeColumn(syn, p.inner_ordinal);
      ExprPtr rewritten;
      switch (p.kind) {
        case AggKind::kCountStar:
          rewritten = Expr::MakeAggregate(AggKind::kSum, syn_cnt);
          break;
        case AggKind::kSum:
          rewritten = Expr::MakeAggregate(AggKind::kSum, syn_col);
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          rewritten = Expr::MakeAggregate(p.kind, syn_col);
          break;
        case AggKind::kAvg:
          rewritten = Expr::MakeArith(
              ArithOp::kDiv, Expr::MakeAggregate(AggKind::kSum, syn_col),
              Expr::MakeAggregate(AggKind::kSum, syn_cnt));
          break;
      }
      outer.outputs[p.outer_index].expr = rewritten;
    }
    const int outer_spec_id = static_cast<int>(ctx->agg_specs.size());
    ctx->agg_specs.push_back(std::move(outer));

    // Memo wiring: inner agg group, the join-above-aggregate group, and
    // the alternative root expression.
    int inner_gid = MakeAggGroup(ctx, inner_mask, inner_spec_id);
    auto jkey = std::make_pair(mask, kJoinedAggKeyBase + inner_spec_id);
    int join_gid;
    auto jit = ctx->group_index.find(jkey);
    if (jit != ctx->group_index.end()) {
      join_gid = jit->second;
    } else {
      join_gid = static_cast<int>(ctx->groups.size());
      ctx->group_index[jkey] = join_gid;
      ctx->groups.push_back(Group{});
      ++ctx->metrics.groups_created;
      ctx->groups[join_gid].mask = mask;
      ctx->groups[join_gid].agg_spec = kJoinedAggKeyBase + inner_spec_id;
      ctx->groups[join_gid].matched = true;  // not an SPJG expression
      int r_gid = MakeSpjGroup(ctx, rbit);
      LogicalExpr je;
      je.kind = ExprKindL::kJoin;
      je.children[0] = inner_gid;
      je.children[1] = r_gid;
      ctx->groups[join_gid].exprs.push_back(je);
      ++ctx->metrics.expressions_generated;
    }
    LogicalExpr re;
    re.kind = ExprKindL::kAggregate;
    re.children[0] = join_gid;
    re.child_agg_spec = outer_spec_id;
    ctx->groups[root_group].exprs.push_back(re);
    ++ctx->metrics.expressions_generated;
  }
}

double Optimizer::SpjCardinality(Context* ctx, uint32_t mask) {
  auto it = ctx->card_cache.find(mask);
  if (it != ctx->card_cache.end()) return it->second;
  double card = estimator_.EstimateSpj(SignatureOf(ctx, mask).spj);
  ctx->card_cache[mask] = card;
  return card;
}

PhysPlanPtr Optimizer::ImplementGet(Context* ctx, const Group& group,
                                    const LogicalExpr& expr) {
  const SpjgQuery& q = *ctx->query;
  const int32_t ref = expr.table_ref;
  const TableId tid = q.tables[ref].table;
  const TableDef& def = catalog_->table(tid);
  const double base_rows = std::max<int64_t>(1, def.row_count());
  const double out_rows = std::max(1.0, SpjCardinality(ctx, group.mask));

  std::vector<ExprPtr> filters;
  for (int ci : ctx->ConjunctsWithin(group.mask)) {
    filters.push_back(q.conjuncts[ci]);
  }

  auto scan = std::make_shared<PhysPlan>();
  scan->kind = PhysKind::kTableScan;
  scan->table = tid;
  scan->table_ref = ref;
  scan->filter = filters;
  scan->rows = out_rows;
  scan->cost = base_rows + out_rows;

  PhysPlanPtr best = scan;
  if (options_.enable_index_scans && !def.unique_keys().empty()) {
    // Consider the primary index when a range predicate constrains its
    // leading column.
    ClassifiedPredicates preds = ClassifyConjuncts(filters);
    const ColumnOrdinal lead = def.unique_keys()[0][0];
    ValueRange range;
    bool constrained = false;
    for (const auto& p : preds.ranges) {
      if (p.column.column == lead) {
        range.Apply(p.op, p.bound);
        constrained = true;
      }
    }
    if (constrained) {
      double sel = 1.0;
      if (!range.lo.is_infinite) {
        sel = estimator_.RangeSelectivity(
            def, lead, range.lo.inclusive ? CompareOp::kGe : CompareOp::kGt,
            range.lo.value);
      }
      if (!range.hi.is_infinite) {
        double s2 = estimator_.RangeSelectivity(
            def, lead, range.hi.inclusive ? CompareOp::kLe : CompareOp::kLt,
            range.hi.value);
        sel = std::max(0.0, sel + s2 - 1.0);
      }
      auto idx = std::make_shared<PhysPlan>();
      idx->kind = PhysKind::kIndexRangeScan;
      idx->table = tid;
      idx->table_ref = ref;
      idx->index_name = def.name() + "_pk";
      idx->index_column = lead;
      idx->index_range = range;
      idx->filter = filters;
      idx->rows = out_rows;
      idx->cost = sel * base_rows + std::log2(base_rows + 2) + out_rows;
      if (idx->cost < best->cost) best = idx;
    }
  }
  return best;
}

PhysPlanPtr Optimizer::ImplementJoin(Context* ctx, const Group& group,
                                     const LogicalExpr& expr) {
  PhysPlanPtr left = OptimizeGroup(ctx, expr.children[0]);
  PhysPlanPtr right = OptimizeGroup(ctx, expr.children[1]);
  if (left == nullptr || right == nullptr) return nullptr;

  const Group& lg = ctx->groups[expr.children[0]];
  const Group& rg = ctx->groups[expr.children[1]];
  std::vector<ExprPtr> crossing;
  for (int ci : ctx->ConjunctsCrossing(lg.mask, rg.mask)) {
    crossing.push_back(ctx->query->conjuncts[ci]);
  }

  double out_rows;
  if (group.agg_spec >= kJoinedAggKeyBase) {
    // Join of a pre-aggregated child with a unique-key side: cardinality
    // is bounded by the aggregated child's rows.
    out_rows = left->rows;
  } else {
    out_rows = std::max(1.0, SpjCardinality(ctx, group.mask));
  }

  auto join = std::make_shared<PhysPlan>();
  join->kind = PhysKind::kHashJoin;
  join->children = {left, right};
  join->filter = crossing;
  join->rows = out_rows;
  join->cost = left->cost + right->cost + left->rows + right->rows +
               out_rows;
  return join;
}

PhysPlanPtr Optimizer::ImplementAggregate(Context* ctx, const Group& group,
                                          const LogicalExpr& expr) {
  (void)group;  // semantics are fully described by the expression's spec
  PhysPlanPtr child = OptimizeGroup(ctx, expr.children[0]);
  if (child == nullptr) return nullptr;
  const AggSpec& spec = ctx->agg_specs[expr.child_agg_spec];

  double groups_estimate = 1.0;
  for (const auto& g : spec.group_by) {
    double d = 100.0;
    if (g->kind() == ExprKind::kColumnRef &&
        g->column_ref().table_ref < kSyntheticRefBase) {
      const TableDef& t =
          catalog_->table(ctx->query->tables[g->column_ref().table_ref]
                              .table);
      int64_t nd = t.column(g->column_ref().column).stats.distinct;
      if (nd > 0) d = static_cast<double>(nd);
    }
    groups_estimate *= d;
  }
  groups_estimate = std::min(groups_estimate, std::max(1.0, child->rows));

  auto agg = std::make_shared<PhysPlan>();
  agg->kind = PhysKind::kHashAggregate;
  agg->children = {child};
  agg->group_by = spec.group_by;
  agg->outputs = spec.outputs;
  agg->agg_spec_id = expr.child_agg_spec;
  agg->rows = groups_estimate;
  agg->cost = child->cost + child->rows + groups_estimate;
  return agg;
}

std::vector<PhysPlanPtr> Optimizer::ImplementViewGet(
    Context* ctx, const Group& group, const LogicalExpr& expr) {
  std::vector<PhysPlanPtr> out;
  const Substitute& sub = expr.substitute;
  const ViewDefinition& view = matching_->ResolveView(sub.view_id);

  // View size: actual row count when materialized, estimated otherwise.
  double view_rows;
  TableId vt = view.materialized_table();
  if (vt != kInvalidTableId) {
    view_rows = std::max<int64_t>(1, catalog_->table(vt).row_count());
  } else {
    view_rows = std::max(1.0, estimator_.EstimateResult(view.query()));
  }

  // Selectivity of the compensating predicates (coarse: per-predicate
  // defaults; real systems use view statistics, which we have when the
  // view is materialized but the classifier works on view-output columns
  // whose stats live in the view's table definition).
  ClassifiedPredicates preds = ClassifyConjuncts(sub.predicates);
  double sel = 1.0;
  for (const auto& p : preds.ranges) {
    if (vt != kInvalidTableId) {
      sel *= estimator_.RangeSelectivity(catalog_->table(vt),
                                         p.column.column, p.op, p.bound);
    } else {
      sel *= (p.op == CompareOp::kEq) ? 0.05 : (1.0 / 3.0);
    }
  }
  for (size_t i = 0; i < preds.equalities.size() + preds.residual.size();
       ++i) {
    sel *= 1.0 / 3.0;
  }
  double selected_rows = std::max(1.0, view_rows * sel);
  double final_rows = selected_rows;
  double agg_cost = 0;
  if (sub.needs_aggregation) {
    final_rows = std::max(1.0, selected_rows / 2);
    agg_cost = selected_rows;
  }

  double backjoin_cost = 0;
  for (const auto& bj : sub.backjoins) {
    backjoin_cost +=
        std::max<int64_t>(1, catalog_->table(bj.table).row_count());
  }

  auto scan = std::make_shared<PhysPlan>();
  scan->kind = PhysKind::kViewScan;
  scan->table = vt;
  scan->view = sub.view_id;
  scan->view_name = view.name();
  scan->substitute = sub;
  if (group.agg_spec < 0) {
    scan->provides = group.required_columns;
  } else {
    // Aggregation groups expose their spec outputs: grouping columns keep
    // their global identity, aggregates get synthetic references.
    const AggSpec& spec = ctx->agg_specs[group.agg_spec];
    for (size_t i = 0; i < spec.outputs.size(); ++i) {
      const Expr& oe = *spec.outputs[i].expr;
      if (oe.kind() == ExprKind::kColumnRef &&
          oe.column_ref().table_ref < kSyntheticRefBase) {
        scan->provides.push_back(oe.column_ref());
      } else {
        scan->provides.push_back(
            ColumnRefId{kSyntheticRefBase + group.agg_spec,
                        static_cast<ColumnOrdinal>(i)});
      }
    }
  }
  scan->rows = final_rows;
  scan->cost =
      view_rows + backjoin_cost + selected_rows + agg_cost + final_rows;
  out.push_back(scan);

  if (options_.enable_index_scans && sub.backjoins.empty()) {
    // Secondary (and clustered) indexes on the view are considered
    // automatically: any index whose leading output column carries a
    // compensating range or point predicate becomes an index range scan.
    std::vector<const IndexDef*> indexes;
    if (view.has_clustered_index()) indexes.push_back(&view.clustered_index());
    for (const auto& si : view.secondary_indexes()) indexes.push_back(&si);
    for (const IndexDef* idx : indexes) {
      if (idx->key_columns.empty()) continue;
      const int lead = idx->key_columns[0];
      ValueRange range;
      bool constrained = false;
      for (const auto& p : preds.ranges) {
        if (p.column.column == lead) {
          range.Apply(p.op, p.bound);
          constrained = true;
        }
      }
      if (!constrained) continue;
      double isel = 0.3;
      if (vt != kInvalidTableId) {
        const TableDef& vdef = catalog_->table(vt);
        isel = 1.0;
        if (!range.lo.is_infinite) {
          isel = estimator_.RangeSelectivity(
              vdef, lead,
              range.lo.inclusive ? CompareOp::kGe : CompareOp::kGt,
              range.lo.value);
        }
        if (!range.hi.is_infinite) {
          double s2 = estimator_.RangeSelectivity(
              vdef, lead,
              range.hi.inclusive ? CompareOp::kLe : CompareOp::kLt,
              range.hi.value);
          isel = std::max(0.0, isel + s2 - 1.0);
        }
      }
      auto iscan = std::make_shared<PhysPlan>(*scan);
      iscan->kind = PhysKind::kViewIndexScan;
      iscan->index_name = idx->name;
      iscan->index_column = lead;
      iscan->index_range = range;
      iscan->cost = isel * view_rows + std::log2(view_rows + 2) +
                    selected_rows + agg_cost + final_rows;
      out.push_back(iscan);
    }
  }
  return out;
}

PhysPlanPtr Optimizer::OptimizeGroup(Context* ctx, int group_id) {
  {
    Group& group = ctx->groups[group_id];
    if (group.costed) return group.best;
    group.costed = true;
  }
  PhysPlanPtr best;
  // Note: expression list may grow while iterating (children recursion
  // does not add to this group, but be defensive with index iteration).
  for (size_t i = 0; i < ctx->groups[group_id].exprs.size(); ++i) {
    LogicalExpr expr = ctx->groups[group_id].exprs[i];
    const Group& group = ctx->groups[group_id];
    std::vector<PhysPlanPtr> candidates;
    switch (expr.kind) {
      case ExprKindL::kGet:
        candidates.push_back(ImplementGet(ctx, group, expr));
        break;
      case ExprKindL::kJoin:
        candidates.push_back(ImplementJoin(ctx, group, expr));
        break;
      case ExprKindL::kAggregate:
        candidates.push_back(ImplementAggregate(ctx, group, expr));
        break;
      case ExprKindL::kViewGet:
        candidates = ImplementViewGet(ctx, group, expr);
        break;
    }
    for (const auto& c : candidates) {
      if (c == nullptr) continue;
      if (best == nullptr || c->cost < best->cost ||
          (c->cost == best->cost && WinsCostTie(*c, *best))) {
        best = c;
      }
    }
  }
  Group& group = ctx->groups[group_id];
  group.best = best;
  group.best_cost = best != nullptr ? best->cost : 0;
  return best;
}

OptimizationResult Optimizer::Optimize(const SpjgQuery& query,
                                       QueryContext& qctx) {
  assert(query.num_tables() <= 30);
  QueryBudget* budget = qctx.budget();
  // A budget object may be reused across queries; per-query outcome
  // state (degradation reason, tick/candidate counters) must not leak
  // from one optimization into the next. Limits and the wall-clock
  // deadline are preserved.
  if (budget != nullptr) budget->ResetForQuery();
  Context ctx;
  ctx.query = &query;
  ctx.qctx = &qctx;
  ctx.budget = budget;
  ctx.full_mask = query.num_tables() >= 32
                      ? 0xffffffffu
                      : ((1u << query.num_tables()) - 1);
  for (const auto& c : query.conjuncts) {
    ctx.conjunct_mask.push_back(ctx.MaskOf(c));
  }

  const bool counters = metrics_.optimizations != nullptr;
  // Tracing: a trace already on the context (caller-owned) wins;
  // otherwise full-trace mode attaches an optimizer-owned one for the
  // duration of this call and hands it back in the result — unless the
  // context suppresses tracing for this query (serving-tier degradation).
  QueryTrace* const caller_trace = qctx.trace();
  std::shared_ptr<QueryTrace> trace;
  if (caller_trace != nullptr) {
    ctx.trace = caller_trace;
  } else if (options_.observe.trace_enabled() && !qctx.suppress_trace()) {
    trace = std::make_shared<QueryTrace>();
    trace->set_query(query.ToSql(*catalog_));
    ctx.trace = trace.get();
    qctx.set_trace(trace.get());
  }
  const bool observing = counters || ctx.trace != nullptr;
  std::chrono::steady_clock::time_point t_start{};
  if (observing) t_start = std::chrono::steady_clock::now();

  int root;
  if (query.is_aggregate) {
    AggSpec spec0;
    spec0.group_by = query.group_by;
    spec0.outputs = query.outputs;
    spec0.scalar = query.group_by.empty();
    ctx.agg_specs.push_back(std::move(spec0));
    root = MakeAggGroup(&ctx, ctx.full_mask, 0);
    if (options_.enable_preaggregation) {
      ApplyPreAggregation(&ctx, root);
    }
  } else {
    root = MakeSpjGroup(&ctx, ctx.full_mask);
  }

  std::chrono::steady_clock::time_point t_memo{};
  if (observing) t_memo = std::chrono::steady_clock::now();

  PhysPlanPtr plan = OptimizeGroup(&ctx, root);
  OptimizationResult result;
  if (plan != nullptr && !query.is_aggregate) {
    // Top projection computing the query's output expressions.
    auto project = std::make_shared<PhysPlan>();
    project->kind = PhysKind::kProject;
    project->children = {plan};
    project->outputs = query.outputs;
    project->rows = plan->rows;
    project->cost = plan->cost + plan->rows;
    plan = project;
  }
  result.plan = plan;
  result.cost = plan != nullptr ? plan->cost : 0;
  result.uses_view = plan != nullptr && plan->UsesView();
  result.degradation = qctx.degradation();
  result.metrics = ctx.metrics;

  if (observing) {
    const auto t_end = std::chrono::steady_clock::now();
    // Memo exploration nests the view-matching probes; the probes record
    // their own stages (filter probe, match tests), so subtract them to
    // keep the four stage spans additive.
    const double memo_seconds = std::max(
        0.0, std::chrono::duration<double>(t_memo - t_start).count() -
                 ctx.metrics.view_matching_seconds);
    const double costing_seconds =
        std::chrono::duration<double>(t_end - t_memo).count();
    if (ctx.trace != nullptr) {
      ctx.trace->AddStageSeconds(QueryTrace::Stage::kMemoExploration,
                                 memo_seconds);
      ctx.trace->AddStageSeconds(QueryTrace::Stage::kCosting,
                                 costing_seconds);
      ctx.trace->AddCount("memo_groups", ctx.metrics.groups_created);
      ctx.trace->AddCount("memo_exprs", ctx.metrics.expressions_generated);
      ctx.trace->AddCount("view_matching_invocations",
                          ctx.metrics.view_matching_invocations);
      ctx.trace->AddCount("substitutes_produced",
                          ctx.metrics.substitutes_produced);
      if (trace != nullptr) result.trace = std::move(trace);
    }
    if (counters) {
      metrics_.optimizations->Increment();
      metrics_.optimize_latency->Observe(
          std::chrono::duration<double>(t_end - t_start).count());
      if (ctx.metrics.groups_created != 0) {
        metrics_.memo_groups->Increment(ctx.metrics.groups_created);
      }
      if (ctx.metrics.expressions_generated != 0) {
        metrics_.memo_exprs->Increment(ctx.metrics.expressions_generated);
      }
      if (ctx.metrics.view_matching_invocations != 0) {
        metrics_.view_matching_invocations->Increment(
            ctx.metrics.view_matching_invocations);
      }
      if (ctx.metrics.view_matching_failures != 0) {
        metrics_.view_matching_failures->Increment(
            ctx.metrics.view_matching_failures);
      }
      Counter* degraded =
          metrics_.degradations[static_cast<size_t>(result.degradation)];
      if (degraded != nullptr) degraded->Increment();
    }
  }
  if (options_.audit_memo) {
    std::vector<MemoGroupRecord> records;
    records.reserve(ctx.groups.size());
    for (const Group& g : ctx.groups) {
      MemoGroupRecord rec;
      rec.mask = g.mask;
      rec.agg_spec = g.agg_spec;
      for (const LogicalExpr& e : g.exprs) {
        MemoExprRecord er;
        switch (e.kind) {
          case ExprKindL::kGet:
            er.kind = MemoExprRecord::Kind::kGet;
            break;
          case ExprKindL::kJoin:
            er.kind = MemoExprRecord::Kind::kJoin;
            break;
          case ExprKindL::kAggregate:
            er.kind = MemoExprRecord::Kind::kAggregate;
            break;
          case ExprKindL::kViewGet:
            er.kind = MemoExprRecord::Kind::kViewGet;
            break;
        }
        er.table_ref = e.table_ref;
        er.child0 = e.children[0];
        er.child1 = e.children[1];
        er.view_id =
            e.kind == ExprKindL::kViewGet ? e.substitute.view_id : -1;
        rec.exprs.push_back(er);
      }
      records.push_back(std::move(rec));
    }
    result.memo_audit = InvariantAuditor().AuditMemo(
        records, ctx.full_mask, static_cast<int>(ctx.agg_specs.size()),
        kJoinedAggKeyBase);
  }
  // Detach an optimizer-owned trace from the caller's context: the
  // result owns it now, and the context outlives this call.
  if (qctx.trace() != caller_trace) qctx.set_trace(caller_trace);
  return result;
}

}  // namespace mvopt
