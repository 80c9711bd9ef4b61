// Micro-benchmarks of the view-matching algorithm itself (§3): single
// Match() calls for the paper's example shapes — plain SPJ subsumption,
// extra-table elimination through foreign-key joins, and aggregation
// rollup — plus a full MatchingService probe (filter + match) at 1000
// views.

#include <benchmark/benchmark.h>

#include "index/matching_service.h"
#include "rewrite/matcher.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

struct Fixture {
  Fixture() : schema(tpch::BuildSchema(&catalog, 0.5)) {}
  Catalog catalog;
  tpch::Schema schema;

  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
  }
  static ExprPtr Gt(ExprPtr a, int64_t v) {
    return Expr::MakeCompare(CompareOp::kGt, std::move(a),
                             Expr::MakeLiteral(Value::Int64(v)));
  }
};

void BM_MatchSpj(benchmark::State& state) {
  Fixture f;
  SpjgBuilder vb(&f.catalog);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  vb.Where(f.Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Where(f.Gt(vb.Col(l, "l_partkey"), 100));
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  vb.Output(vb.Col(o, "o_custkey"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&f.catalog);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(f.Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Where(f.Gt(qb.Col(ql, "l_partkey"), 500));
  qb.Output(qb.Col(ql, "l_orderkey"));
  SpjgQuery query = qb.Build();

  ViewMatcher matcher(&f.catalog);
  for (auto _ : state) {
    MatchResult r = matcher.Match(query, view);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MatchSpj);

void BM_MatchExtraTables(benchmark::State& state) {
  Fixture f;
  SpjgBuilder vb(&f.catalog);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  int c = vb.AddTable("customer");
  int n = vb.AddTable("nation");
  vb.Where(f.Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Where(f.Eq(vb.Col(o, "o_custkey"), vb.Col(c, "c_custkey")));
  vb.Where(f.Eq(vb.Col(c, "c_nationkey"), vb.Col(n, "n_nationkey")));
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_quantity"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&f.catalog);
  int ql = qb.AddTable("lineitem");
  qb.Where(f.Gt(qb.Col(ql, "l_orderkey"), 1000));
  qb.Output(qb.Col(ql, "l_orderkey"));
  qb.Output(qb.Col(ql, "l_quantity"));
  SpjgQuery query = qb.Build();

  ViewMatcher matcher(&f.catalog);
  for (auto _ : state) {
    MatchResult r = matcher.Match(query, view);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MatchExtraTables);

void BM_MatchAggregationRollup(benchmark::State& state) {
  Fixture f;
  SpjgBuilder vb(&f.catalog);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  vb.Where(f.Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Output(vb.Col(o, "o_custkey"));
  vb.Output(vb.Col(l, "l_suppkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(AggKind::kSum, vb.Col(l, "l_quantity")),
            "sumq");
  vb.GroupBy(vb.Col(o, "o_custkey"));
  vb.GroupBy(vb.Col(l, "l_suppkey"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&f.catalog);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(f.Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Output(qb.Col(qo, "o_custkey"));
  qb.Output(Expr::MakeAggregate(AggKind::kSum, qb.Col(ql, "l_quantity")),
            "q");
  qb.GroupBy(qb.Col(qo, "o_custkey"));
  SpjgQuery query = qb.Build();

  ViewMatcher matcher(&f.catalog);
  for (auto _ : state) {
    MatchResult r = matcher.Match(query, view);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MatchAggregationRollup);

void BM_ServiceProbe(benchmark::State& state) {
  const int num_views = static_cast<int>(state.range(0));
  Fixture f;
  MatchingService service(&f.catalog);
  tpch::WorkloadGenerator view_gen(&f.catalog, 5);
  for (int i = 0; i < num_views; ++i) {
    std::string error;
    service.AddView("v" + std::to_string(i), view_gen.GenerateView(),
                    &error);
  }
  tpch::WorkloadGenerator query_gen(&f.catalog, 999);
  std::vector<SpjgQuery> queries;
  for (int i = 0; i < 32; ++i) queries.push_back(query_gen.GenerateQuery());
  size_t qi = 0;
  for (auto _ : state) {
    QueryContext ctx;
    auto subs = service.FindSubstitutes(queries[qi++ % queries.size()], ctx);
    benchmark::DoNotOptimize(subs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceProbe)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace mvopt

BENCHMARK_MAIN();
