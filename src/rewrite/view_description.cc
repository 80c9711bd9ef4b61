#include "rewrite/view_description.h"

#include <algorithm>
#include <cassert>

#include "expr/classify.h"
#include "rewrite/equiv.h"
#include "rewrite/fk_graph.h"
#include "rewrite/match_program.h"
#include "rewrite/range.h"

namespace mvopt {

namespace {

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// Catalog ids of every member of `col`'s equivalence class.
std::vector<uint32_t> ClassCatalogIds(const SpjgQuery& q,
                                      const EquivalenceClasses& ec,
                                      ColumnRefId col) {
  std::vector<uint32_t> out;
  int cls = ec.ClassOf(col);
  for (ColumnRefId m : ec.ClassMembers(cls)) {
    out.push_back(CatalogColId(q.tables[m.table_ref].table, m.column));
  }
  SortUnique(&out);
  return out;
}

// A view's own analysis: classified predicates + equivalence classes +
// ranges, from the view's own conjuncts only.
struct ViewAnalysis {
  ClassifiedPredicates preds;
  EquivalenceClasses ec;
  RangeMap ranges;
};

ViewAnalysis AnalyzeView(const Catalog& catalog, const SpjgQuery& q) {
  ViewAnalysis a;
  a.preds = ClassifyConjuncts(q.conjuncts);
  for (int t = 0; t < q.num_tables(); ++t) {
    a.ec.AddTableColumns(t, catalog.table(q.tables[t].table).num_columns());
  }
  a.ec.AddEqualities(a.preds.equalities);
  a.ranges = RangeMap::Build(a.preds.ranges, a.ec);
  return a;
}

}  // namespace

ViewDescription DescribeView(const Catalog& catalog,
                             const ViewDefinition& view) {
  const SpjgQuery& q = view.query();
  ViewAnalysis a = AnalyzeView(catalog, q);

  ViewDescription d;
  d.id = view.id();
  d.is_aggregate = q.is_aggregate;

  for (const auto& tr : q.tables) d.source_tables.push_back(tr.table);
  SortUnique(&d.source_tables);

  // Hub (§4.2.2): eliminate as far as possible, protecting tables with a
  // range or residual predicate on a column in a trivial equivalence
  // class. Nullable FKs are treated optimistically (see FkGraphOptions).
  uint64_t protect = 0;
  auto protect_column = [&](ColumnRefId col) {
    if (a.ec.IsTrivial(col)) protect |= 1ULL << col.table_ref;
  };
  for (const auto& p : a.preds.ranges) protect_column(p.column);
  for (const auto& r : a.preds.residual) {
    std::vector<ColumnRefId> cols;
    r->CollectColumnRefs(&cols);
    for (ColumnRefId c : cols) protect_column(c);
  }
  FkGraphOptions fk_options;
  fk_options.optimistic_nullable_fk = true;
  FkJoinGraph graph =
      FkJoinGraph::Build(catalog, q.tables, a.ec, fk_options, nullptr);
  uint64_t hub_mask = graph.ComputeHub(protect);
  for (int t = 0; t < q.num_tables(); ++t) {
    if (hub_mask & (1ULL << t)) d.hub.push_back(q.tables[t].table);
  }
  SortUnique(&d.hub);

  // Output columns / expressions (§4.2.3, §4.2.7).
  for (const auto& o : q.outputs) {
    if (o.expr->kind() == ExprKind::kColumnRef) {
      auto ids = ClassCatalogIds(q, a.ec, o.expr->column_ref());
      d.extended_output_columns.insert(d.extended_output_columns.end(),
                                       ids.begin(), ids.end());
    } else {
      d.output_expr_texts.push_back(ComputeShape(*o.expr).text);
    }
  }
  SortUnique(&d.extended_output_columns);
  SortUnique(&d.output_expr_texts);

  // Residual texts (§4.2.6).
  for (const auto& r : a.preds.residual) {
    d.residual_texts.push_back(ComputeShape(*r).text);
  }
  SortUnique(&d.residual_texts);

  // Range constraint lists (§4.2.5).
  for (const auto& [cls, range] : a.ranges.ranges()) {
    (void)range;
    const auto& members = a.ec.ClassMembers(cls);
    std::vector<uint32_t> ids;
    for (ColumnRefId m : members) {
      ids.push_back(CatalogColId(q.tables[m.table_ref].table, m.column));
    }
    SortUnique(&ids);
    if (members.size() == 1) d.reduced_range_columns.push_back(ids[0]);
    d.range_constrained_classes.push_back(std::move(ids));
  }
  SortUnique(&d.reduced_range_columns);

  // Grouping lists (§4.2.4, §4.2.8).
  if (q.is_aggregate) {
    for (const auto& g : q.group_by) {
      d.grouping_expr_texts.push_back(ComputeShape(*g).text);
      if (g->kind() == ExprKind::kColumnRef) {
        auto ids = ClassCatalogIds(q, a.ec, g->column_ref());
        d.extended_grouping_columns.insert(d.extended_grouping_columns.end(),
                                           ids.begin(), ids.end());
      }
    }
    SortUnique(&d.extended_grouping_columns);
    SortUnique(&d.grouping_expr_texts);
  }
  return d;
}

QueryDescription DescribeQuery(const Catalog& catalog,
                               const SpjgQuery& query) {
  return DescribeQuery(AnalyzeQuery(catalog, query, MatchOptions{}));
}

QueryDescription DescribeQuery(const MatchProbeContext& a) {
  // Query-side search keys include check constraints, mirroring their
  // role in the matcher's antecedent (§3.1.2) so the filter conditions
  // stay necessary conditions.
  assert(a.use_check_constraints);
  const SpjgQuery& query = *a.query;
  QueryDescription d;
  d.is_aggregate = query.is_aggregate;
  for (const auto& tr : query.tables) d.source_tables.push_back(tr.table);
  SortUnique(&d.source_tables);

  auto add_class = [&](ColumnRefId col,
                       std::vector<std::vector<uint32_t>>* into) {
    into->push_back(ClassCatalogIds(query, a.query_ec, col));
  };

  using CachedExpr = MatchProbeContext::CachedExpr;
  for (size_t k = 0; k < a.outputs.size(); ++k) {
    const MatchProbeContext::OutputInfo& o = a.outputs[k];
    if (!o.is_aggregate) {
      switch (o.value.kind) {
        case CachedExpr::Kind::kColumn:
          add_class(o.value.column, &d.output_column_classes_spj);
          add_class(o.value.column, &d.output_column_classes_agg);
          break;
        case CachedExpr::Kind::kComplex:
          // Complex non-aggregate output: paper-faithful textual
          // condition.
          d.output_expr_texts.push_back(o.value.shape.text);
          break;
        case CachedExpr::Kind::kLiteral:
          d.output_expr_texts.push_back(ComputeShape(*o.value.expr).text);
          break;
      }
      continue;
    }
    // Normalized aggregate text requirement for aggregation views.
    switch (o.agg_kind) {
      case AggKind::kCountStar:
        break;  // every aggregation view has count(*)
      case AggKind::kSum:
      case AggKind::kAvg:
        d.agg_expr_texts.push_back("sum(" + o.agg_arg_shape.text + ")");
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        d.agg_expr_texts.push_back(ComputeShape(*query.outputs[k].expr).text);
        break;
    }
    // SPJ views compute the aggregate by compensation; a simple column
    // argument must then be routable.
    if (o.agg_kind != AggKind::kCountStar &&
        o.value.kind == CachedExpr::Kind::kColumn) {
      add_class(o.value.column, &d.output_column_classes_spj);
    }
  }
  for (size_t i = 0; i < a.group_by.size(); ++i) {
    d.grouping_expr_texts.push_back(a.group_by_shapes[i].text);
    if (a.group_by[i].kind == CachedExpr::Kind::kColumn) {
      const ColumnRefId col = a.group_by[i].column;
      add_class(col, &d.output_column_classes_spj);
      add_class(col, &d.output_column_classes_agg);
      add_class(col, &d.grouping_column_classes);
    }
  }
  SortUnique(&d.output_expr_texts);
  SortUnique(&d.agg_expr_texts);
  SortUnique(&d.grouping_expr_texts);

  for (const ExprShape& r : a.query_residual_shapes) {
    d.residual_texts.push_back(r.text);
  }
  for (const ExprShape& r : a.check_residual_shapes) {
    d.residual_texts.push_back(r.text);
  }
  SortUnique(&d.residual_texts);

  for (const auto& [cls, range] : a.query_ranges_checked.ranges()) {
    (void)range;
    for (ColumnRefId m : a.query_ec.ClassMembers(cls)) {
      d.extended_range_columns.push_back(
          CatalogColId(query.tables[m.table_ref].table, m.column));
    }
  }
  SortUnique(&d.extended_range_columns);
  return d;
}

}  // namespace mvopt
