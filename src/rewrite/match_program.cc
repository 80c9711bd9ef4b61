#include "rewrite/match_program.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mvopt {

namespace {

/// The §3.1.2 decomposition of a table's check constraints, remapped onto
/// slot `t` (constraints are written against table_ref 0).
void AppendCheckConjuncts(const Catalog& catalog, TableId table, int32_t slot,
                          std::vector<ExprPtr>* out) {
  for (const auto& c : catalog.table(table).check_constraints()) {
    std::vector<int32_t> self = {slot};
    out->push_back(c->RemapTableRefs(self));
  }
}

MatchProbeContext::CachedExpr CacheExpr(const ExprPtr& e) {
  MatchProbeContext::CachedExpr cached;
  cached.expr = e;
  if (e->kind() == ExprKind::kLiteral) {
    cached.kind = MatchProbeContext::CachedExpr::Kind::kLiteral;
  } else if (e->kind() == ExprKind::kColumnRef) {
    cached.kind = MatchProbeContext::CachedExpr::Kind::kColumn;
    cached.column = e->column_ref();
  } else {
    cached.kind = MatchProbeContext::CachedExpr::Kind::kComplex;
    cached.shape = ComputeShape(*e);
  }
  return cached;
}

}  // namespace

MatchProbeContext AnalyzeQuery(const Catalog& catalog, const SpjgQuery& query,
                               const MatchOptions& options) {
  MatchProbeContext ctx;
  ctx.catalog = &catalog;
  ctx.query = &query;
  ctx.is_aggregate = query.is_aggregate;
  ctx.use_check_constraints = options.use_check_constraints;
  ctx.allow_nullable_fk_with_null_rejection =
      options.allow_nullable_fk_with_null_rejection;

  // The predicate decomposition and equivalence classes of §3.1.1–§3.1.2.
  // Check constraints strengthen the antecedent of Wq => Wv; their
  // equalities join the query classes.
  const int32_t num_slots = query.num_tables();
  ctx.query_preds = ClassifyConjuncts(query.conjuncts);
  if (options.use_check_constraints) {
    std::vector<ExprPtr> check_conjuncts;
    for (int32_t t = 0; t < num_slots; ++t) {
      AppendCheckConjuncts(catalog, query.tables[t].table, t,
                           &check_conjuncts);
    }
    ctx.check_preds = ClassifyConjuncts(check_conjuncts);
  }
  for (int32_t t = 0; t < num_slots; ++t) {
    ctx.query_ec.AddTableColumns(t,
                                 catalog.table(query.tables[t].table)
                                     .num_columns());
  }
  ctx.query_ec.AddEqualities(ctx.query_preds.equalities);
  ctx.query_ec.AddEqualities(ctx.check_preds.equalities);

  std::vector<RangePred> checked = ctx.query_preds.ranges;
  checked.insert(checked.end(), ctx.check_preds.ranges.begin(),
                 ctx.check_preds.ranges.end());
  ctx.query_ranges_checked = RangeMap::Build(checked, ctx.query_ec);

  ctx.query_residual_shapes.reserve(ctx.query_preds.residual.size());
  for (const auto& r : ctx.query_preds.residual) {
    ctx.query_residual_shapes.push_back(ComputeShape(*r));
  }
  for (const auto& r : ctx.check_preds.residual) {
    ctx.check_residual_shapes.push_back(ComputeShape(*r));
  }

  ctx.outputs.reserve(query.outputs.size());
  for (const auto& o : query.outputs) {
    MatchProbeContext::OutputInfo info;
    // Aggregate outputs only exist in aggregate queries (SpjgBuilder
    // invariant); for SPJ queries every output goes through the plain
    // compute_expr path.
    if (query.is_aggregate && o.expr->kind() == ExprKind::kAggregate) {
      info.is_aggregate = true;
      info.agg_kind = o.expr->agg_kind();
      if (info.agg_kind != AggKind::kCountStar) {
        info.value = CacheExpr(o.expr->child(0));
        info.agg_arg_shape = ComputeShape(*o.expr->child(0));
      }
    } else {
      info.value = CacheExpr(o.expr);
    }
    ctx.outputs.push_back(std::move(info));
  }
  ctx.group_by.reserve(query.group_by.size());
  ctx.group_by_shapes.reserve(query.group_by.size());
  for (const auto& g : query.group_by) {
    ctx.group_by.push_back(CacheExpr(g));
    ctx.group_by_shapes.push_back(ComputeShape(*g));
  }
  return ctx;
}

void CompleteMatchProbeContext(MatchProbeContext* ctx) {
  if (ctx->match_ready) return;
  ctx->match_ready = true;
  const SpjgQuery& query = *ctx->query;
  const Catalog& catalog = *ctx->catalog;
  const int32_t num_slots = query.num_tables();

  ctx->slot_by_table.reserve(static_cast<size_t>(num_slots));
  for (int32_t t = 0; t < num_slots; ++t) {
    ctx->slot_by_table.emplace_back(query.tables[t].table, t);
  }
  std::sort(ctx->slot_by_table.begin(), ctx->slot_by_table.end());
  for (size_t i = 1; i < ctx->slot_by_table.size(); ++i) {
    if (ctx->slot_by_table[i].first == ctx->slot_by_table[i - 1].first) {
      ctx->has_dup_tables = true;
      break;
    }
  }

  ctx->col_base.resize(static_cast<size_t>(num_slots));
  int32_t base = 0;
  for (int32_t t = 0; t < num_slots; ++t) {
    ctx->col_base[static_cast<size_t>(t)] = base;
    base += catalog.table(query.tables[t].table).num_columns();
  }
  ctx->class_of.resize(static_cast<size_t>(base));
  for (int32_t t = 0; t < num_slots; ++t) {
    const int32_t ncols = catalog.table(query.tables[t].table).num_columns();
    for (int32_t c = 0; c < ncols; ++c) {
      ctx->class_of[static_cast<size_t>(
          ctx->col_base[static_cast<size_t>(t)] + c)] =
          ctx->query_ec.ClassOf(ColumnRefId{t, c});
    }
  }
  ctx->num_classes = ctx->query_ec.NumClasses();
  ctx->query_ranges =
      RangeMap::Build(ctx->query_preds.ranges, ctx->query_ec);

  // The §3.2 nullable-FK relaxation set: columns the query's own
  // predicates null-reject (check constraints accept NULLs, so they do
  // not count). Query slot space, like every consumer's.
  if (ctx->allow_nullable_fk_with_null_rejection) {
    for (const auto& p : ctx->query_preds.ranges) {
      ctx->null_rejected.push_back(p.column);
    }
    for (const auto& p : ctx->query_preds.equalities) {
      ctx->null_rejected.push_back(p.lhs);
      ctx->null_rejected.push_back(p.rhs);
    }
    for (const auto& r : ctx->query_preds.residual) {
      std::vector<ColumnRefId> cols;
      r->CollectColumnRefs(&cols);
      for (ColumnRefId c : cols) {
        if (IsNullRejectingOn(*r, c)) ctx->null_rejected.push_back(c);
      }
    }
  }
}

MatchProbeContext BuildMatchProbeContext(const Catalog& catalog,
                                         const SpjgQuery& query,
                                         const MatchOptions& options) {
  MatchProbeContext ctx = AnalyzeQuery(catalog, query, options);
  CompleteMatchProbeContext(&ctx);
  return ctx;
}

std::shared_ptr<const MatchProgram> CompileMatchProgram(
    const Catalog& catalog, const ViewDefinition& view,
    const MatchOptions& options) {
  // The compiled envelope. Backjoin mode routes columns through base-
  // table re-joins the program does not model; a self-join FROM list
  // reintroduces the mapping enumeration the envelope removes; and a
  // zero mapping budget makes the generic matcher reject every pair
  // (Enumerate() returns nothing), which the program must not outrun.
  if (options.enable_backjoins) return nullptr;
  if (options.max_table_mappings < 1) return nullptr;
  const SpjgQuery& vq = view.query();
  // The §3.2 pre-check manipulates slot bitmasks (as FkJoinGraph does).
  if (vq.num_tables() > 64) return nullptr;
  {
    std::vector<TableId> ids;
    ids.reserve(vq.tables.size());
    for (const TableRef& t : vq.tables) ids.push_back(t.table);
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      return nullptr;
    }
  }

  auto program = std::make_shared<MatchProgram>();
  program->view_id = view.id();
  program->view_is_aggregate = vq.is_aggregate;
  program->allow_min_max = options.allow_min_max;

  const int32_t num_slots = vq.num_tables();
  program->table_of_slot.reserve(static_cast<size_t>(num_slots));
  program->num_columns_of_slot.reserve(static_cast<size_t>(num_slots));
  for (const TableRef& t : vq.tables) {
    program->table_of_slot.push_back(t.table);
    program->num_columns_of_slot.push_back(
        catalog.table(t.table).num_columns());
  }

  // View-side §3.1 structures in view slot space (the identity mapping;
  // kBindRouting permutes them into query slots at probe time). Check
  // equalities join the view classes exactly as in matcher.cc: the
  // constraints hold on the view's rows too.
  ClassifiedPredicates view_preds = ClassifyConjuncts(vq.conjuncts);
  ClassifiedPredicates check_preds;
  if (options.use_check_constraints) {
    std::vector<ExprPtr> check_conjuncts;
    for (int32_t t = 0; t < num_slots; ++t) {
      AppendCheckConjuncts(catalog, vq.tables[t].table, t, &check_conjuncts);
    }
    check_preds = ClassifyConjuncts(check_conjuncts);
  }
  EquivalenceClasses view_ec;
  for (int32_t t = 0; t < num_slots; ++t) {
    view_ec.AddTableColumns(t, program->num_columns_of_slot[
                                   static_cast<size_t>(t)]);
  }
  view_ec.AddEqualities(view_preds.equalities);
  view_ec.AddEqualities(check_preds.equalities);

  int32_t base = 0;
  program->col_base.resize(static_cast<size_t>(num_slots));
  for (int32_t t = 0; t < num_slots; ++t) {
    program->col_base[static_cast<size_t>(t)] = base;
    base += program->num_columns_of_slot[static_cast<size_t>(t)];
  }
  program->class_of.resize(static_cast<size_t>(base));
  for (int32_t t = 0; t < num_slots; ++t) {
    const int32_t ncols = program->num_columns_of_slot[static_cast<size_t>(t)];
    for (int32_t c = 0; c < ncols; ++c) {
      program->class_of[static_cast<size_t>(
          program->col_base[static_cast<size_t>(t)] + c)] =
          view_ec.ClassOf(ColumnRefId{t, c});
    }
  }
  program->num_classes = view_ec.NumClasses();
  program->class_members.reserve(static_cast<size_t>(program->num_classes));
  for (int32_t cls = 0; cls < program->num_classes; ++cls) {
    const auto members = view_ec.ClassMembers(cls);
    program->class_members.emplace_back(members.begin(), members.end());
  }

  // Outputs and the §3.1.3 routing table: first simple output per view
  // class, in output order — identical to route_column's first-match
  // scan under view equivalences.
  program->route_of_class.assign(static_cast<size_t>(program->num_classes),
                                 -1);
  for (size_t k = 0; k < vq.outputs.size(); ++k) {
    const ExprPtr& e = vq.outputs[k].expr;
    if (e->kind() == ExprKind::kColumnRef) {
      program->simple_outputs.push_back(
          {e->column_ref(), static_cast<int32_t>(k)});
      int32_t& route =
          program->route_of_class[static_cast<size_t>(program->class_of[
              static_cast<size_t>(program->col_base[static_cast<size_t>(
                                      e->column_ref().table_ref)] +
                                  e->column_ref().column)])];
      if (route < 0) route = static_cast<int32_t>(k);
    } else {
      program->complex_outputs.push_back(
          {ComputeShape(*e), static_cast<int32_t>(k)});
    }
  }

  RangeMap view_ranges = RangeMap::Build(view_preds.ranges, view_ec);
  program->range_index_of_class.assign(
      static_cast<size_t>(program->num_classes), -1);
  for (const auto& [cls, range] : view_ranges.ranges()) {
    program->range_index_of_class[static_cast<size_t>(cls)] =
        static_cast<int32_t>(program->ranges.size());
    program->ranges.push_back({cls, range});
  }

  program->residual_shapes.reserve(view_preds.residual.size());
  for (const auto& r : view_preds.residual) {
    program->residual_shapes.push_back(ComputeShape(*r));
  }

  if (vq.is_aggregate) {
    for (size_t k = 0; k < vq.outputs.size(); ++k) {
      const ExprPtr& e = vq.outputs[k].expr;
      if (e->kind() != ExprKind::kAggregate) continue;
      if (e->agg_kind() == AggKind::kCountStar) {
        program->count_ordinal = static_cast<int32_t>(k);
      } else {
        program->aggs.push_back({e->agg_kind(), ComputeShape(*e->child(0)),
                                 static_cast<int32_t>(k)});
      }
    }
    for (const auto& g : vq.group_by) {
      int32_t ordinal = -1;
      for (size_t k = 0; k < vq.outputs.size(); ++k) {
        if (vq.outputs[k].expr->Equals(*g)) {
          ordinal = static_cast<int32_t>(k);
          break;
        }
      }
      assert(ordinal >= 0 && "validated views output all grouping exprs");
      program->groupings.push_back({ComputeShape(*g), ordinal});
    }
  }

  // §3.2 pre-check pool: candidate FK join edges between view slots,
  // admitted by the same five tests as FkJoinGraph::Build — declared
  // foreign key, referenced columns cover a unique key, every FK column
  // equated with its key column under the view equivalence classes —
  // except non-nullness, which is deferred per column: the edge becomes
  // probe-active only when the query null-rejects each nullable FK
  // column (the relaxation the oracle applies with the query in hand).
  // With the relaxation off, nullable-FK candidates can never activate
  // and are dropped here, exactly as Build drops them.
  for (int32_t i = 0; i < num_slots; ++i) {
    const TableDef& ti = catalog.table(vq.tables[i].table);
    for (const ForeignKeyDef& fk : ti.foreign_keys()) {
      for (int32_t j = 0; j < num_slots; ++j) {
        if (i == j || fk.referenced_table != vq.tables[j].table) continue;
        const TableDef& tj = catalog.table(vq.tables[j].table);
        if (!tj.CoversUniqueKey(fk.key_columns)) continue;
        MatchProgram::FkEdgeCandidate cand;
        cand.from_slot = i;
        cand.to_slot = j;
        bool ok = true;
        for (size_t k = 0; k < fk.fk_columns.size(); ++k) {
          const ColumnRefId fcol{i, fk.fk_columns[k]};
          const ColumnRefId kcol{j, fk.key_columns[k]};
          if (!view_ec.AreEquivalent(fcol, kcol)) {
            ok = false;
            break;
          }
          if (!ti.column(fk.fk_columns[k]).not_null) {
            if (!options.allow_nullable_fk_with_null_rejection) {
              ok = false;
              break;
            }
            cand.nullable_fk_cols.push_back(fcol);
          }
        }
        if (ok) program->fk_edge_candidates.push_back(std::move(cand));
      }
    }
  }

  // The instruction stream: the generic matcher's test order, unrolled
  // per view class / range / residual.
  program->insns.push_back({MatchOp::kCheckAggCompat});
  program->insns.push_back({MatchOp::kCheckTableSet});
  program->insns.push_back({MatchOp::kCheckExtraTables});
  program->insns.push_back({MatchOp::kBindRouting});
  for (int cls : view_ec.NontrivialClasses()) {
    program->insns.push_back({MatchOp::kCheckEquivClass, cls});
  }
  program->insns.push_back({MatchOp::kEmitEqualityCompensation});
  for (size_t i = 0; i < program->ranges.size(); ++i) {
    program->insns.push_back(
        {MatchOp::kCheckRangeSubsumes, static_cast<int32_t>(i)});
  }
  program->insns.push_back({MatchOp::kEmitRangeCompensation});
  for (size_t i = 0; i < program->residual_shapes.size(); ++i) {
    program->insns.push_back(
        {MatchOp::kCheckResidualSubsumes, static_cast<int32_t>(i)});
  }
  program->insns.push_back({MatchOp::kEmitResidualCompensation});
  program->insns.push_back({MatchOp::kEmitOutputs});
  program->insns.push_back({MatchOp::kCheckGrouping});
  program->insns.push_back({MatchOp::kEmitGroupBy});
  program->insns.push_back({MatchOp::kEmitAggOutputs});
  program->insns.push_back({MatchOp::kAccept});
  return program;
}

namespace {

/// Executor state threaded through the switch loop.
struct ExecState {
  const MatchProgram& program;
  const MatchProbeContext& ctx;
  MatchProgramScratch& scratch;
  Substitute sub;
  bool regroup = true;
  bool needs_aggregation = true;

  ExecState(const MatchProgram& p, const MatchProbeContext& c,
            MatchProgramScratch& s)
      : program(p), ctx(c), scratch(s) {}

  /// The query-slot image of a view-space column reference.
  ColumnRefId ToQuery(ColumnRefId view_col) const {
    return ColumnRefId{scratch.qslot_of_vslot[static_cast<size_t>(
                           view_col.table_ref)],
                       view_col.column};
  }

  /// Dense view-class id of a query-space column.
  int32_t ViewClassOf(ColumnRefId query_col) const {
    const int32_t vslot =
        scratch.vslot_of_qslot[static_cast<size_t>(query_col.table_ref)];
    return program.class_of[static_cast<size_t>(
        program.col_base[static_cast<size_t>(vslot)] + query_col.column)];
  }

  /// route_column through QUERY equivalences (§3.1.3): first simple view
  /// output whose query class matches, via the kBindRouting table.
  int32_t RouteQuery(ColumnRefId query_col) const {
    const int32_t qc = ctx.QueryClassOf(query_col);
    if (scratch.route_stamp[static_cast<size_t>(qc)] != scratch.stamp) {
      return -1;
    }
    return scratch.route_of_qclass[static_cast<size_t>(qc)];
  }

  /// ShapesEquivalent with `a` in query space and `b` in view space.
  bool ShapesEquivalentViewB(const ExprShape& a, const ExprShape& b) const {
    if (a.text != b.text) return false;
    if (a.columns.size() != b.columns.size()) return false;
    for (size_t i = 0; i < a.columns.size(); ++i) {
      if (ctx.QueryClassOf(a.columns[i]) !=
          ctx.QueryClassOf(ToQuery(b.columns[i]))) {
        return false;
      }
    }
    return true;
  }

  /// compute_expr (§3.1.4) over a cached query expression: literal
  /// shared, column routed, complex matched against complex view outputs
  /// then routed per column.
  ExprPtr ComputeExpr(const MatchProbeContext::CachedExpr& e) const {
    using Kind = MatchProbeContext::CachedExpr::Kind;
    switch (e.kind) {
      case Kind::kLiteral:
        return e.expr;
      case Kind::kColumn: {
        const int32_t out = RouteQuery(e.column);
        return out >= 0 ? Expr::MakeColumn(0, out) : nullptr;
      }
      case Kind::kComplex:
        break;
    }
    for (const auto& co : program.complex_outputs) {
      if (ShapesEquivalentViewB(e.shape, co.shape)) {
        return Expr::MakeColumn(0, co.ordinal);
      }
    }
    return e.expr->RewriteColumns([this](ColumnRefId col) -> ExprPtr {
      const int32_t out = RouteQuery(col);
      return out >= 0 ? Expr::MakeColumn(0, out) : nullptr;
    });
  }

  /// find_view_agg (§3.3): first view aggregate of `kind` whose argument
  /// shape matches under query equivalences.
  int32_t FindViewAgg(AggKind kind, const ExprShape& arg_shape) const {
    for (const auto& va : program.aggs) {
      if (va.kind == kind && ShapesEquivalentViewB(arg_shape, va.arg_shape)) {
        return va.ordinal;
      }
    }
    return -1;
  }
};

MatchExecResult Decided(RejectReason reason) {
  MatchExecResult r;
  r.status = MatchExecStatus::kDecided;
  r.result.reason = reason;
  return r;
}

}  // namespace

MatchExecResult ExecuteMatchProgram(const MatchProgram& program,
                                    const MatchProbeContext& ctx,
                                    MatchProgramScratch& scratch) {
  ExecState st(program, ctx, scratch);
  const SpjgQuery& query = *ctx.query;
  st.sub.view_id = program.view_id;

  for (const MatchInsn& insn : program.insns) {
    switch (insn.op) {
      case MatchOp::kCheckAggCompat: {
        // Aggregated views cannot answer pure SPJ queries (§3.3
        // requirement 3) — checked before anything else, like Match().
        if (program.view_is_aggregate && !ctx.is_aggregate) {
          return Decided(RejectReason::kViewMoreAggregated);
        }
        break;
      }

      case MatchOp::kCheckTableSet: {
        // The feasibility screen of the mapping enumerator: every query
        // table id needs at least as many view references. A compiled
        // view has one reference per id, so any duplicate query id — or
        // any query id the view lacks — is infeasible. Extra view tables
        // are legal; kCheckExtraTables rules on them next.
        if (ctx.has_dup_tables) return Decided(RejectReason::kSourceTables);
        const size_t num_vslots = program.table_of_slot.size();
        const size_t num_qslots = ctx.slot_by_table.size();
        scratch.qslot_of_vslot.assign(num_vslots, -1);
        scratch.vslot_of_qslot.assign(num_qslots, -1);
        for (const auto& [tid, qslot] : ctx.slot_by_table) {
          int32_t vslot = -1;
          for (size_t v = 0; v < num_vslots; ++v) {
            if (program.table_of_slot[v] == tid) {
              vslot = static_cast<int32_t>(v);
              break;
            }
          }
          if (vslot < 0) return Decided(RejectReason::kSourceTables);
          scratch.qslot_of_vslot[static_cast<size_t>(vslot)] = qslot;
          scratch.vslot_of_qslot[static_cast<size_t>(qslot)] = vslot;
        }
        break;
      }

      case MatchOp::kCheckExtraTables: {
        // §3.2: extra view tables must be eliminable through
        // cardinality-preserving joins, or the candidate is dead. The
        // elimination fixpoint runs here over the precompiled edge pool
        // (edges conditioned on nullable FK columns activate only when
        // the probe null-rejects them); its verdict equals the oracle's
        // because the oracle's unified-space graph is isomorphic to the
        // view-space one and the fixpoint is labeling-independent. Only
        // the eliminable minority — needing real §3.2 compensation —
        // still falls back to the generic tier.
        const size_t num_vslots = program.table_of_slot.size();
        if (num_vslots == ctx.slot_by_table.size()) break;
        uint64_t keep = 0;
        for (size_t v = 0; v < num_vslots; ++v) {
          if (scratch.qslot_of_vslot[v] >= 0) keep |= 1ULL << v;
        }
        scratch.fk_edges.clear();
        scratch.fk_active_to.assign(num_vslots, 0);
        for (const auto& cand : program.fk_edge_candidates) {
          uint64_t& row =
              scratch.fk_active_to[static_cast<size_t>(cand.from_slot)];
          const uint64_t to_bit = 1ULL << cand.to_slot;
          if (row & to_bit) continue;  // slot pair already active
          bool active = true;
          for (ColumnRefId c : cand.nullable_fk_cols) {
            const int32_t q =
                scratch.qslot_of_vslot[static_cast<size_t>(c.table_ref)];
            // Extra-slot FK columns (q < 0) can never be null-rejected
            // by the query; the oracle reaches the same conclusion.
            const ColumnRefId qcol{q, c.column};
            if (q < 0 ||
                std::find(ctx.null_rejected.begin(), ctx.null_rejected.end(),
                          qcol) == ctx.null_rejected.end()) {
              active = false;
              break;
            }
          }
          if (!active) continue;
          row |= to_bit;
          scratch.fk_edges.push_back(
              FkJoinEdge{cand.from_slot, cand.to_slot, nullptr});
        }
        const uint64_t alive = FkJoinGraph::AliveAfterElimination(
            static_cast<int>(num_vslots), scratch.fk_edges, keep);
        if (alive != keep) {
          return Decided(RejectReason::kExtraTableElimination);
        }
        return MatchExecResult{};  // kFallback: real compensation needed
      }

      case MatchOp::kBindRouting: {
        // Per-candidate routing table: first simple view output per
        // QUERY equivalence class, in output order — route_column's
        // first-match scan under query equivalences, inverted.
        if (scratch.route_stamp.size() <
            static_cast<size_t>(ctx.num_classes)) {
          scratch.route_stamp.resize(static_cast<size_t>(ctx.num_classes), 0);
          scratch.route_of_qclass.resize(static_cast<size_t>(ctx.num_classes),
                                         -1);
        }
        if (++scratch.stamp == 0) {
          std::fill(scratch.route_stamp.begin(), scratch.route_stamp.end(),
                    0u);
          scratch.stamp = 1;
        }
        for (const auto& so : program.simple_outputs) {
          const int32_t qc = ctx.QueryClassOf(st.ToQuery(so.column));
          uint32_t& seen = scratch.route_stamp[static_cast<size_t>(qc)];
          if (seen != scratch.stamp) {
            seen = scratch.stamp;
            scratch.route_of_qclass[static_cast<size_t>(qc)] = so.ordinal;
          }
        }
        scratch.query_residual_matched.assign(
            ctx.query_residual_shapes.size(), 0);
        if (scratch.vclass_stamp.size() <
            static_cast<size_t>(program.num_classes)) {
          scratch.vclass_stamp.resize(static_cast<size_t>(program.num_classes),
                                      0);
        }
        break;
      }

      case MatchOp::kCheckEquivClass: {
        // §3.1.2 equijoin subsumption: this (nontrivial) view class must
        // lie inside one query class.
        const auto& members =
            program.class_members[static_cast<size_t>(insn.a)];
        const int32_t qc = ctx.QueryClassOf(st.ToQuery(members[0]));
        for (size_t i = 1; i < members.size(); ++i) {
          if (ctx.QueryClassOf(st.ToQuery(members[i])) != qc) {
            return Decided(RejectReason::kEquijoinSubsumption);
          }
        }
        break;
      }

      case MatchOp::kEmitEqualityCompensation: {
        // Chain view classes split inside one query class, each routed
        // through VIEW equivalences (the precompiled route_of_class).
        for (int32_t qc = 0; qc < ctx.num_classes; ++qc) {
          const auto& members = ctx.query_ec.ClassMembers(qc);
          if (members.size() < 2) continue;
          scratch.dist_vclasses.clear();
          for (ColumnRefId m : members) {
            const int32_t vc = st.ViewClassOf(m);
            if (std::find(scratch.dist_vclasses.begin(),
                          scratch.dist_vclasses.end(),
                          vc) == scratch.dist_vclasses.end()) {
              scratch.dist_vclasses.push_back(vc);
            }
          }
          if (scratch.dist_vclasses.size() < 2) continue;
          scratch.routed.clear();
          for (int32_t vc : scratch.dist_vclasses) {
            const int32_t out =
                program.route_of_class[static_cast<size_t>(vc)];
            if (out < 0) {
              return Decided(RejectReason::kCompensationNotComputable);
            }
            scratch.routed.push_back(Expr::MakeColumn(0, out));
          }
          for (size_t i = 0; i + 1 < scratch.routed.size(); ++i) {
            st.sub.predicates.push_back(Expr::MakeCompare(
                CompareOp::kEq, scratch.routed[i], scratch.routed[i + 1]));
          }
        }
        break;
      }

      case MatchOp::kCheckRangeSubsumes: {
        // §3.1.2 range subsumption: the view range must contain the
        // check-strengthened query range of the enclosing query class.
        const MatchProgram::ClassRange& cr =
            program.ranges[static_cast<size_t>(insn.a)];
        const ColumnRefId col =
            program.class_members[static_cast<size_t>(cr.cls)][0];
        const int32_t qc = ctx.QueryClassOf(st.ToQuery(col));
        const ValueRange qrange = ctx.query_ranges_checked.Get(qc);
        if (!cr.range.Contains(qrange)) {
          return Decided(RejectReason::kRangeSubsumption);
        }
        break;
      }

      case MatchOp::kEmitRangeCompensation: {
        // Per constrained query class (ascending class id — RangeMap is
        // ordered): intersect the view ranges of the distinct view
        // classes inside it, enforce any differing bound, routed through
        // query equivalences.
        for (const auto& [qc, qrange] : ctx.query_ranges.ranges()) {
          ValueRange effective;  // unconstrained
          const auto& members = ctx.query_ec.ClassMembers(qc);
          if (++scratch.vclass_counter == 0) {
            std::fill(scratch.vclass_stamp.begin(),
                      scratch.vclass_stamp.end(), 0u);
            scratch.vclass_counter = 1;
          }
          for (ColumnRefId m : members) {
            const int32_t vc = st.ViewClassOf(m);
            uint32_t& seen = scratch.vclass_stamp[static_cast<size_t>(vc)];
            if (seen == scratch.vclass_counter) continue;
            seen = scratch.vclass_counter;
            const int32_t idx =
                program.range_index_of_class[static_cast<size_t>(vc)];
            if (idx < 0) continue;
            const ValueRange& vr =
                program.ranges[static_cast<size_t>(idx)].range;
            if (!vr.lo.is_infinite) {
              effective.Apply(
                  vr.lo.inclusive ? CompareOp::kGe : CompareOp::kGt,
                  vr.lo.value);
            }
            if (!vr.hi.is_infinite) {
              effective.Apply(
                  vr.hi.inclusive ? CompareOp::kLe : CompareOp::kLt,
                  vr.hi.value);
            }
          }
          const bool need_lo = !qrange.SameLowerBound(effective);
          const bool need_hi = !qrange.SameUpperBound(effective);
          if (!need_lo && !need_hi) continue;
          const int32_t out = st.RouteQuery(members[0]);
          if (out < 0) {
            return Decided(RejectReason::kCompensationNotComputable);
          }
          ExprPtr col = Expr::MakeColumn(0, out);
          if (qrange.IsPoint()) {
            st.sub.predicates.push_back(Expr::MakeCompare(
                CompareOp::kEq, col, Expr::MakeLiteral(qrange.lo.value)));
            continue;
          }
          if (need_lo && !qrange.lo.is_infinite) {
            st.sub.predicates.push_back(Expr::MakeCompare(
                qrange.lo.inclusive ? CompareOp::kGe : CompareOp::kGt, col,
                Expr::MakeLiteral(qrange.lo.value)));
          }
          if (need_hi && !qrange.hi.is_infinite) {
            st.sub.predicates.push_back(Expr::MakeCompare(
                qrange.hi.inclusive ? CompareOp::kLe : CompareOp::kLt, col,
                Expr::MakeLiteral(qrange.hi.value)));
          }
        }
        break;
      }

      case MatchOp::kCheckResidualSubsumes: {
        // §3.1.2 residual subsumption: this view residual must match a
        // query residual (marking every match) or a check residual.
        const ExprShape& vshape =
            program.residual_shapes[static_cast<size_t>(insn.a)];
        bool matched = false;
        for (size_t i = 0; i < ctx.query_residual_shapes.size(); ++i) {
          if (st.ShapesEquivalentViewB(ctx.query_residual_shapes[i],
                                       vshape)) {
            scratch.query_residual_matched[i] = 1;
            matched = true;
          }
        }
        if (!matched) {
          for (const ExprShape& cs : ctx.check_residual_shapes) {
            if (st.ShapesEquivalentViewB(cs, vshape)) {
              matched = true;
              break;
            }
          }
        }
        if (!matched) return Decided(RejectReason::kResidualSubsumption);
        break;
      }

      case MatchOp::kEmitResidualCompensation: {
        // Unmatched query residuals are applied to the view, columns
        // routed through query equivalences.
        for (size_t i = 0; i < ctx.query_preds.residual.size(); ++i) {
          if (scratch.query_residual_matched[i]) continue;
          ExprPtr routed = ctx.query_preds.residual[i]->RewriteColumns(
              [&st](ColumnRefId col) -> ExprPtr {
                const int32_t out = st.RouteQuery(col);
                return out >= 0 ? Expr::MakeColumn(0, out) : nullptr;
              });
          if (routed == nullptr) {
            return Decided(RejectReason::kCompensationNotComputable);
          }
          st.sub.predicates.push_back(std::move(routed));
        }
        break;
      }

      case MatchOp::kEmitOutputs: {
        // SPJ-query outputs (§3.1.4); aggregate queries emit through
        // kEmitGroupBy/kEmitAggOutputs instead.
        if (ctx.is_aggregate) break;
        for (size_t k = 0; k < ctx.outputs.size(); ++k) {
          ExprPtr routed = st.ComputeExpr(ctx.outputs[k].value);
          if (routed == nullptr) {
            return Decided(RejectReason::kOutputNotComputable);
          }
          st.sub.outputs.push_back(
              OutputExpr{query.outputs[k].name, std::move(routed)});
        }
        st.sub.needs_aggregation = false;
        break;
      }

      case MatchOp::kCheckGrouping: {
        // §3.3 requirement 3: every query grouping expression matches a
        // view grouping expression, preferring unused ones so equated
        // grouping columns do not force a needless regroup.
        if (!ctx.is_aggregate) break;
        st.regroup = true;
        if (program.view_is_aggregate) {
          scratch.grouping_used.assign(program.groupings.size(), 0);
          for (const ExprShape& shape : ctx.group_by_shapes) {
            int match = -1;
            for (size_t k = 0; k < program.groupings.size(); ++k) {
              if (st.ShapesEquivalentViewB(shape,
                                           program.groupings[k].shape)) {
                match = static_cast<int>(k);
                if (!scratch.grouping_used[k]) break;
              }
            }
            if (match < 0) {
              return Decided(RejectReason::kGroupingMismatch);
            }
            scratch.grouping_used[static_cast<size_t>(match)] = 1;
          }
          st.regroup = false;
          for (char used : scratch.grouping_used) {
            if (!used) {
              st.regroup = true;
              break;
            }
          }
        }
        st.needs_aggregation = !program.view_is_aggregate || st.regroup;
        break;
      }

      case MatchOp::kEmitGroupBy: {
        if (!ctx.is_aggregate) break;
        if (st.needs_aggregation) {
          for (const auto& g : ctx.group_by) {
            ExprPtr routed = st.ComputeExpr(g);
            if (routed == nullptr) {
              return Decided(RejectReason::kOutputNotComputable);
            }
            st.sub.group_by.push_back(std::move(routed));
          }
        }
        st.sub.needs_aggregation = st.needs_aggregation;
        break;
      }

      case MatchOp::kEmitAggOutputs: {
        // §3.3 output emission: count(*) -> SUM(cnt) rollup, SUM/MIN/MAX
        // rollup, AVG = SUM/COUNT.
        if (!ctx.is_aggregate) break;
        for (size_t k = 0; k < ctx.outputs.size(); ++k) {
          const MatchProbeContext::OutputInfo& oi = ctx.outputs[k];
          const std::string& name = query.outputs[k].name;
          if (!oi.is_aggregate) {
            ExprPtr routed = st.ComputeExpr(oi.value);
            if (routed == nullptr) {
              return Decided(RejectReason::kOutputNotComputable);
            }
            st.sub.outputs.push_back(OutputExpr{name, std::move(routed)});
            continue;
          }
          const AggKind kind = oi.agg_kind;
          if (!program.allow_min_max &&
              (kind == AggKind::kMin || kind == AggKind::kMax)) {
            return Decided(RejectReason::kAggregateNotComputable);
          }
          if (!program.view_is_aggregate) {
            // Compensating aggregation over an SPJ view.
            ExprPtr arg;
            if (kind != AggKind::kCountStar) {
              arg = st.ComputeExpr(oi.value);
              if (arg == nullptr) {
                return Decided(RejectReason::kAggregateNotComputable);
              }
            }
            st.sub.outputs.push_back(OutputExpr{
                name, Expr::MakeAggregate(kind, std::move(arg))});
            continue;
          }
          switch (kind) {
            case AggKind::kCountStar: {
              if (program.count_ordinal < 0) {
                return Decided(RejectReason::kAggregateNotComputable);
              }
              ExprPtr cnt = Expr::MakeColumn(0, program.count_ordinal);
              st.sub.outputs.push_back(OutputExpr{
                  name, st.regroup ? Expr::MakeAggregate(AggKind::kSum, cnt)
                                   : cnt});
              break;
            }
            case AggKind::kSum:
            case AggKind::kMin:
            case AggKind::kMax: {
              const int32_t ordinal =
                  st.FindViewAgg(kind, oi.agg_arg_shape);
              if (ordinal < 0) {
                return Decided(RejectReason::kAggregateNotComputable);
              }
              ExprPtr col = Expr::MakeColumn(0, ordinal);
              ExprPtr out = col;
              if (st.regroup) {
                out = Expr::MakeAggregate(
                    kind == AggKind::kSum ? AggKind::kSum : kind, col);
              }
              st.sub.outputs.push_back(OutputExpr{name, std::move(out)});
              break;
            }
            case AggKind::kAvg: {
              const int32_t sum_ordinal =
                  st.FindViewAgg(AggKind::kSum, oi.agg_arg_shape);
              if (sum_ordinal < 0 || program.count_ordinal < 0) {
                return Decided(RejectReason::kAggregateNotComputable);
              }
              ExprPtr sum_col = Expr::MakeColumn(0, sum_ordinal);
              ExprPtr cnt_col = Expr::MakeColumn(0, program.count_ordinal);
              ExprPtr out;
              if (st.regroup) {
                out = Expr::MakeArith(
                    ArithOp::kDiv,
                    Expr::MakeAggregate(AggKind::kSum, sum_col),
                    Expr::MakeAggregate(AggKind::kSum, cnt_col));
              } else {
                out = Expr::MakeArith(ArithOp::kDiv, sum_col, cnt_col);
              }
              st.sub.outputs.push_back(OutputExpr{name, std::move(out)});
              break;
            }
          }
        }
        break;
      }

      case MatchOp::kAccept: {
        MatchExecResult out;
        out.status = MatchExecStatus::kDecided;
        out.result.substitute = std::move(st.sub);
        return out;
      }
    }
  }
  // A well-formed program always ends in kAccept; an instruction stream
  // that falls off the end (a corrupted program) declines to the oracle.
  return MatchExecResult{};
}

}  // namespace mvopt
