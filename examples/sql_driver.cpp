// A miniature SQL driver: create materialized views and run queries
// written as SQL text, watching the optimizer rewrite them.
//
//   ./sql_driver                      # runs the built-in demo script
//   ./sql_driver "SELECT ... FROM .." # optimizes one ad-hoc query
//
// Views are created with "CREATE VIEW <name> AS SELECT ..." lines; other
// lines are optimized, executed, and reported.

#include <cstdio>
#include <string>
#include <vector>

#include "engine/database.h"
#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_exec.h"
#include "query/parser.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"

using namespace mvopt;

namespace {

bool StartsWithNoCase(const std::string& s, const std::string& prefix) {
  if (s.size() < prefix.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(s[i])) !=
        std::toupper(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Catalog catalog;
  tpch::Schema schema = tpch::BuildSchema(&catalog, 0.001);
  Database db(&catalog);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.001;
  tpch::GenerateData(&db, schema, dg);
  MatchingService service(&catalog);
  Optimizer optimizer(&catalog, &service);
  PlanExecutor exec(&db);

  std::vector<std::string> script;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) script.push_back(argv[i]);
  } else {
    script = {
        "CREATE VIEW rev_by_cust AS SELECT o_custkey, COUNT_BIG(*) AS cnt,"
        " SUM(l_quantity * l_extendedprice) AS revenue"
        " FROM lineitem, orders WHERE l_orderkey = o_orderkey"
        " GROUP BY o_custkey",
        "SELECT o_custkey, SUM(l_quantity * l_extendedprice) AS rev"
        " FROM lineitem, orders WHERE l_orderkey = o_orderkey"
        " GROUP BY o_custkey",
        "SELECT c_nationkey, SUM(l_quantity * l_extendedprice) AS rev"
        " FROM lineitem, orders, customer"
        " WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
        " GROUP BY c_nationkey",
        "SELECT l_orderkey, l_quantity FROM lineitem"
        " WHERE l_quantity BETWEEN 10 AND 20",
    };
  }

  for (const std::string& stmt : script) {
    std::printf("\n=== %s\n", stmt.c_str());
    std::string error;
    if (StartsWithNoCase(stmt, "CREATE VIEW ")) {
      size_t as = stmt.find(" AS ");
      if (as == std::string::npos) {
        std::printf("!! missing AS in CREATE VIEW\n");
        continue;
      }
      std::string name = stmt.substr(12, as - 12);
      auto q = ParseSpjg(catalog, stmt.substr(as + 4), &error);
      if (!q.has_value()) {
        std::printf("!! parse error: %s\n", error.c_str());
        continue;
      }
      ViewDefinition* v = service.AddView(name, std::move(*q), &error);
      if (v == nullptr) {
        std::printf("!! not indexable: %s\n", error.c_str());
        continue;
      }
      db.MaterializeView(v);
      std::printf("view '%s' materialized: %lld rows\n", name.c_str(),
                  static_cast<long long>(
                      catalog.table(v->materialized_table()).row_count()));
      continue;
    }
    auto q = ParseSpjg(catalog, stmt, &error);
    if (!q.has_value()) {
      std::printf("!! parse error: %s\n", error.c_str());
      continue;
    }
    QueryContext ctx;
    OptimizationResult r = optimizer.Optimize(*q, ctx);
    if (r.plan == nullptr) {
      std::printf("!! no plan\n");
      continue;
    }
    std::printf("%s", r.plan->ToString(catalog).c_str());
    auto rows = exec.Execute(r.plan);
    std::printf("-> %zu rows, cost %.0f, %s, %lld matching invocations, "
                "%lld substitutes\n",
                rows.size(), r.cost,
                r.uses_view ? "USES MATERIALIZED VIEW" : "base tables only",
                static_cast<long long>(
                    r.metrics.view_matching_invocations),
                static_cast<long long>(r.metrics.substitutes_produced));
  }
  return 0;
}
