// Two-tier matching tests (DESIGN.md §16): the compiled tier must be a
// perfect stand-in for the generic oracle. A seeded §5 workload sweep
// asserts that every verdict a MatchProgram decides — accept or reject,
// compensations, outputs, reject reasons — is structurally identical to
// ViewMatcher::Match on the same (query, view) pair, and that the only
// declines are the documented ones (extra view tables needing
// foreign-key elimination). An adversarial suite then corrupts a
// compiled program behind the service's back and proves the enforce-mode
// cross-check detects the disagreement, serves the oracle verdict, and
// quarantines the view.

#include "rewrite/match_program.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/matching_service.h"
#include "rewrite/matcher.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

bool SameExprList(const std::vector<ExprPtr>& a,
                  const std::vector<ExprPtr>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i]->Equals(*b[i])) return false;
  }
  return true;
}

/// Structural verdict equality, mirroring the service's cross-check:
/// same accept/reject and reason; on accept the same substitute
/// (view, predicates, outputs, group-by, aggregation flag, backjoins),
/// compared node-by-node.
bool SameVerdict(const MatchResult& a, const MatchResult& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.reason == b.reason;
  const Substitute& x = *a.substitute;
  const Substitute& y = *b.substitute;
  if (x.view_id != y.view_id) return false;
  if (x.needs_aggregation != y.needs_aggregation) return false;
  if (!x.backjoins.empty() || !y.backjoins.empty()) return false;
  if (!SameExprList(x.predicates, y.predicates)) return false;
  if (!SameExprList(x.group_by, y.group_by)) return false;
  if (x.outputs.size() != y.outputs.size()) return false;
  for (size_t i = 0; i < x.outputs.size(); ++i) {
    if (x.outputs[i].name != y.outputs[i].name ||
        !x.outputs[i].expr->Equals(*y.outputs[i].expr)) {
      return false;
    }
  }
  return true;
}

std::string Describe(const MatchResult& r) {
  if (!r.ok()) return std::string("reject(") + RejectReasonName(r.reason) + ")";
  return "accept(preds=" + std::to_string(r.substitute->predicates.size()) +
         ",outputs=" + std::to_string(r.substitute->outputs.size()) +
         ",group_by=" + std::to_string(r.substitute->group_by.size()) +
         (r.substitute->needs_aggregation ? ",agg" : "") + ")";
}

/// The only legal compiled-tier decline: every query table is present in
/// the view and the view carries extra tables (§3.2 foreign-key
/// elimination territory, generic-only by design).
bool LegalFallback(const SpjgQuery& query, const SpjgQuery& view) {
  std::vector<TableId> vtables;
  for (const TableRef& t : view.tables) vtables.push_back(t.table);
  for (const TableRef& t : query.tables) {
    if (std::find(vtables.begin(), vtables.end(), t.table) == vtables.end()) {
      return false;
    }
  }
  return view.tables.size() > query.tables.size();
}

// --- randomized cross-tier equivalence ------------------------------------

class CrossTierPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossTierPropertyTest, CompiledVerdictsAreByteIdenticalToOracle) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  const MatchOptions mopts;  // defaults: the compiled envelope
  ViewMatcher matcher(&catalog, mopts);
  ViewCatalog views(&catalog);
  tpch::WorkloadGenerator view_gen(&catalog, seed * 19 + 3);
  std::vector<std::shared_ptr<const MatchProgram>> programs;
  for (int i = 0; i < 40; ++i) {
    std::string error;
    ViewDefinition* v = views.AddView("v" + std::to_string(i),
                                      view_gen.GenerateView(), &error);
    ASSERT_NE(v, nullptr) << error;
    programs.push_back(CompileMatchProgram(catalog, *v, mopts));
  }
  const int compiled =
      static_cast<int>(std::count_if(programs.begin(), programs.end(),
                                     [](const auto& p) { return p != nullptr; }));
  // The workload generator never emits self-joins, so every view should
  // land inside the compiled envelope under default options.
  EXPECT_EQ(compiled, views.num_views());

  // Probe with 60 random queries plus every view's own definition — the
  // latter guarantee the accept path runs for every seed (self-matches
  // always succeed), so the sweep covers compensation/output emission,
  // not just rejects.
  tpch::WorkloadGenerator query_gen(&catalog, seed * 23 + 9);
  std::vector<SpjgQuery> probe_queries;
  for (int j = 0; j < 60; ++j) probe_queries.push_back(query_gen.GenerateQuery());
  for (ViewId v = 0; v < views.num_views(); ++v) {
    probe_queries.push_back(views.view(v).query());
  }
  MatchProgramScratch scratch;
  int64_t decided = 0, fallbacks = 0, accepts = 0;
  for (const SpjgQuery& query : probe_queries) {
    MatchProbeContext pctx = BuildMatchProbeContext(catalog, query, mopts);
    for (ViewId v = 0; v < views.num_views(); ++v) {
      MatchResult oracle = matcher.Match(query, views.view(v));
      if (programs[v] == nullptr) continue;
      MatchExecResult exec = ExecuteMatchProgram(*programs[v], pctx, scratch);
      if (exec.status == MatchExecStatus::kFallback) {
        ++fallbacks;
        EXPECT_TRUE(LegalFallback(query, views.view(v).query()))
            << "compiled tier declined for an undocumented reason on view "
            << v << "\nquery: " << query.ToSql(catalog);
        continue;
      }
      ++decided;
      if (exec.result.ok()) ++accepts;
      EXPECT_TRUE(SameVerdict(exec.result, oracle))
          << "tier disagreement on view " << v << ": compiled="
          << Describe(exec.result) << " oracle=" << Describe(oracle)
          << "\nquery: " << query.ToSql(catalog)
          << "\nview:  " << views.view(v).query().ToSql(catalog);
    }
  }
  // The sweep must exercise both the decided path and accepts within it
  // (at least the self-matches); fallbacks depend on the seed.
  EXPECT_GT(decided, 0);
  EXPECT_GE(accepts, static_cast<int64_t>(views.num_views()));
  (void)fallbacks;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossTierPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Every compiled view must decide (and accept) a query identical to its
// own definition: the simplest completeness property of the fast tier.
TEST(CrossTierSelfMatchTest, CompiledViewsDecideAndAcceptThemselves) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  const MatchOptions mopts;
  tpch::WorkloadGenerator gen(&catalog, 424242);
  MatchProgramScratch scratch;
  for (int i = 0; i < 60; ++i) {
    SpjgQuery def = gen.GenerateView();
    ViewDefinition view(0, "self", def);
    auto program = CompileMatchProgram(catalog, view, mopts);
    ASSERT_NE(program, nullptr);
    MatchProbeContext pctx = BuildMatchProbeContext(catalog, def, mopts);
    MatchExecResult exec = ExecuteMatchProgram(*program, pctx, scratch);
    ASSERT_EQ(exec.status, MatchExecStatus::kDecided)
        << "self-match fell back for\n" << def.ToSql(catalog);
    ASSERT_TRUE(exec.result.ok())
        << Describe(exec.result) << "\n" << def.ToSql(catalog);
  }
}

// Views outside the envelope must compile to nullptr, not to a program
// that misbehaves: self-joins, backjoin mode, zero mapping budget.
TEST(CompiledEnvelopeTest, OutOfEnvelopeViewsDeclineToCompile) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  tpch::WorkloadGenerator gen(&catalog, 7);
  SpjgQuery def = gen.GenerateView();
  ViewDefinition view(0, "v", def);

  MatchOptions backjoins;
  backjoins.enable_backjoins = true;
  EXPECT_EQ(CompileMatchProgram(catalog, view, backjoins), nullptr);

  MatchOptions no_budget;
  no_budget.max_table_mappings = 0;
  EXPECT_EQ(CompileMatchProgram(catalog, view, no_budget), nullptr);

  // Self-join FROM list: lineitem twice.
  SpjgBuilder sb(&catalog);
  int a = sb.AddTable("lineitem", "l1");
  int b = sb.AddTable("lineitem", "l2");
  sb.Where(Expr::MakeCompare(CompareOp::kEq, sb.Col(a, "l_orderkey"),
                             sb.Col(b, "l_orderkey")));
  sb.Output(sb.Col(a, "l_orderkey"));
  SpjgQuery self_join = sb.Build();
  ASSERT_FALSE(ViewDefinition::Validate(self_join).has_value());
  ViewDefinition sj(0, "sj", std::move(self_join));
  EXPECT_EQ(CompileMatchProgram(catalog, sj, MatchOptions()), nullptr);
}

// --- service-level tier accounting ----------------------------------------

TEST(TierAccountingTest, CompiledHitsPlusFallbacksEqualsFullTests) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  MatchingService::Options opts;
  opts.use_filter_tree = false;  // every view is a candidate
  MatchingService service(&catalog, opts);
  tpch::WorkloadGenerator view_gen(&catalog, 11);
  for (int i = 0; i < 24; ++i) {
    std::string error;
    ASSERT_NE(service.AddView("v" + std::to_string(i), view_gen.GenerateView(),
                              &error),
              nullptr)
        << error;
  }
  tpch::WorkloadGenerator query_gen(&catalog, 13);
  for (int j = 0; j < 30; ++j) {
    QueryContext ctx;
    (void)service.FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.compiled_hits + stats.compiled_fallbacks, stats.full_tests);
  EXPECT_GT(stats.compiled_hits, 0);
  EXPECT_EQ(stats.cross_check_mismatches, 0);
}

TEST(TierAccountingTest, DisablingCompilationRoutesEverythingGeneric) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  MatchingService::Options opts;
  opts.compile_match_programs = false;
  opts.use_filter_tree = false;
  MatchingService service(&catalog, opts);
  tpch::WorkloadGenerator view_gen(&catalog, 11);
  for (int i = 0; i < 12; ++i) {
    std::string error;
    ASSERT_NE(service.AddView("v" + std::to_string(i), view_gen.GenerateView(),
                              &error),
              nullptr)
        << error;
  }
  tpch::WorkloadGenerator query_gen(&catalog, 13);
  for (int j = 0; j < 12; ++j) {
    QueryContext ctx;
    (void)service.FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }
  MatchingStats stats = service.stats();
  EXPECT_GT(stats.full_tests, 0);
  EXPECT_EQ(stats.compiled_hits, 0);
  EXPECT_EQ(stats.compiled_fallbacks, stats.full_tests);
}

// Enforce-mode cross-check on an honest catalog: every compiled verdict
// replays identically against the oracle, across both probe modes.
TEST(CrossCheckTest, HonestCatalogSurvivesEnforceMode) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  MatchingService::Options opts;
  opts.cross_check = MatchCrossCheck::kEnforce;
  opts.use_filter_tree = false;
  MatchingService service(&catalog, opts);
  tpch::WorkloadGenerator view_gen(&catalog, 31);
  for (int i = 0; i < 24; ++i) {
    std::string error;
    ASSERT_NE(service.AddView("v" + std::to_string(i), view_gen.GenerateView(),
                              &error),
              nullptr)
        << error;
  }
  tpch::WorkloadGenerator query_gen(&catalog, 37);
  for (int j = 0; j < 30; ++j) {
    QueryContext ctx;
    (void)service.FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }
  MatchingStats stats = service.stats();
  EXPECT_GT(stats.compiled_hits, 0);
  EXPECT_EQ(stats.cross_check_mismatches, 0);
  for (ViewId v = 0; v < service.views().num_views(); ++v) {
    EXPECT_FALSE(service.IsQuarantined(v)) << "view " << v;
  }
}

// --- adversarial mutant ---------------------------------------------------

/// Fixture: one simple SPJ view over lineitem plus a query it accepts,
/// so a corrupted program produces a *decided but wrong* verdict (the
/// mutant flips view_is_aggregate, turning the accept into a
/// view-more-aggregated reject) instead of a fallback.
class MutantProgramTest : public ::testing::Test {
 protected:
  MutantProgramTest() { tpch::BuildSchema(&catalog_, 0.5); }

  SpjgQuery LineitemQuery(int64_t bound) {
    SpjgBuilder b(&catalog_);
    int l = b.AddTable("lineitem");
    b.Where(Expr::MakeCompare(CompareOp::kGt, b.Col(l, "l_quantity"),
                              Expr::MakeLiteral(Value::Int64(bound))));
    b.Output(b.Col(l, "l_orderkey"));
    b.Output(b.Col(l, "l_quantity"));
    return b.Build();
  }

  /// Registers the view and installs a corrupted copy of its compiled
  /// program (aggregate flag flipped).
  ViewId RegisterAndCorrupt(MatchingService* service) {
    std::string error;
    ViewDefinition* v = service->AddView("mutant", LineitemQuery(10), &error);
    EXPECT_NE(v, nullptr) << error;
    const ViewId id = v->id();
    auto original = service->views().program(id);
    EXPECT_NE(original, nullptr);
    auto mutant = std::make_shared<MatchProgram>(*original);
    mutant->view_is_aggregate = !mutant->view_is_aggregate;
    service->ReplaceProgramForTest(id, std::move(mutant));
    return id;
  }

  Catalog catalog_;
};

TEST_F(MutantProgramTest, LogModeCountsMismatchesAndKeepsServing) {
  MatchingService service(&catalog_);
  const ViewId id = RegisterAndCorrupt(&service);
  service.set_cross_check(MatchCrossCheck::kLog);

  QueryContext ctx;
  std::vector<Substitute> subs =
      service.FindSubstitutes(LineitemQuery(20), ctx);
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.cross_check_mismatches, 1);
  // Log mode observes but does not override: the (wrong) compiled
  // verdict stands, so the mutant's bogus reject drops the substitute —
  // and the view stays in rotation.
  EXPECT_TRUE(subs.empty());
  EXPECT_FALSE(service.IsQuarantined(id));
}

TEST_F(MutantProgramTest, EnforceModeServesOracleVerdictAndQuarantines) {
  MatchingService::Options opts;
  opts.quarantine_threshold = 1;
  MatchingService service(&catalog_, opts);
  const ViewId id = RegisterAndCorrupt(&service);

  // Off: the corrupted program silently wins (this is exactly the hazard
  // the cross-check exists to catch).
  QueryContext ctx;
  ASSERT_TRUE(service.FindSubstitutes(LineitemQuery(20), ctx).empty());
  EXPECT_EQ(service.stats().cross_check_mismatches, 0);

  service.set_cross_check(MatchCrossCheck::kEnforce);
  std::vector<Substitute> subs =
      service.FindSubstitutes(LineitemQuery(20), ctx);
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.cross_check_mismatches, 1);
  // Enforce replaces the compiled verdict with the oracle's: the
  // substitute IS produced on the detecting probe...
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].view_id, id);
  // ...and the lying view is quarantined out of subsequent probes.
  EXPECT_TRUE(service.IsQuarantined(id));
  EXPECT_TRUE(service.FindSubstitutes(LineitemQuery(20), ctx).empty());
  EXPECT_GT(service.stats().quarantine_skips, 0);
}

TEST_F(MutantProgramTest, HonestProgramPassesEnforceUntouched) {
  MatchingService::Options opts;
  opts.quarantine_threshold = 1;
  opts.cross_check = MatchCrossCheck::kEnforce;
  MatchingService service(&catalog_, opts);
  std::string error;
  ViewDefinition* v = service.AddView("honest", LineitemQuery(10), &error);
  ASSERT_NE(v, nullptr) << error;

  QueryContext ctx;
  std::vector<Substitute> subs =
      service.FindSubstitutes(LineitemQuery(20), ctx);
  ASSERT_EQ(subs.size(), 1u);
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.cross_check_mismatches, 0);
  EXPECT_EQ(stats.compiled_hits, stats.full_tests);
  EXPECT_FALSE(service.IsQuarantined(v->id()));
}

}  // namespace
}  // namespace mvopt
