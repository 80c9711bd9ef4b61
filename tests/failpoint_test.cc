#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_exec.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/invariant_auditor.h"

namespace mvopt {
namespace {

// ---------------------------------------------------------------------
// Registry semantics (compiled regardless of MVOPT_FAILPOINTS).
// ---------------------------------------------------------------------

class FailpointRegistryTest : public ::testing::Test {
 protected:
  ~FailpointRegistryTest() override {
    FailpointRegistry::Instance().DisableAll();
  }
};

TEST_F(FailpointRegistryTest, SkipThenCountGatesFirings) {
  auto& reg = FailpointRegistry::Instance();
  FailpointConfig cfg;
  cfg.skip = 2;
  cfg.count = 3;
  reg.Enable("test.site", cfg);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(reg.ShouldFail("test.site"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true, false,
                                      false, false}));
  EXPECT_EQ(reg.HitCount("test.site"), 8);
  EXPECT_EQ(reg.FireCount("test.site"), 3);
}

TEST_F(FailpointRegistryTest, PauseRunsInsteadOfFailing) {
  auto& reg = FailpointRegistry::Instance();
  FailpointConfig cfg;
  cfg.skip = 1;
  int64_t hits_seen = -1;
  // The callback may use the registry: it runs outside the registry lock.
  cfg.pause = [&reg, &hits_seen] { hits_seen = reg.HitCount("test.pause"); };
  reg.Enable("test.pause", cfg);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(reg.ShouldFail("test.pause"));
  EXPECT_EQ(hits_seen, 2);  // the one firing: the second hit
  EXPECT_EQ(reg.FireCount("test.pause"), 1);
}

TEST_F(FailpointRegistryTest, NegativeCountFiresForever) {
  auto& reg = FailpointRegistry::Instance();
  FailpointConfig cfg;
  cfg.count = -1;
  reg.Enable("test.forever", cfg);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(reg.ShouldFail("test.forever"));
}

TEST_F(FailpointRegistryTest, ProbabilisticStreamReplaysForSeed) {
  auto& reg = FailpointRegistry::Instance();
  FailpointConfig cfg;
  cfg.count = -1;
  cfg.probability = 0.5;
  cfg.seed = 12345;
  auto draw = [&reg, &cfg] {
    reg.Enable("test.prob", cfg);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) out.push_back(reg.ShouldFail("test.prob"));
    return out;
  };
  std::vector<bool> first = draw();
  std::vector<bool> second = draw();
  EXPECT_EQ(first, second);
  // p=0.5 over 64 draws: all-equal outcomes are 2^-63 events.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FailpointRegistryTest, DisabledAndUnknownNamesNeverFire) {
  auto& reg = FailpointRegistry::Instance();
  EXPECT_FALSE(reg.ShouldFail("test.unknown"));
  EXPECT_EQ(reg.HitCount("test.unknown"), 0);
  reg.Enable("test.off");
  reg.Disable("test.off");
  EXPECT_FALSE(reg.ShouldFail("test.off"));
  reg.Enable("test.off");
  reg.Enable("test.other");
  reg.DisableAll();
  EXPECT_FALSE(reg.ShouldFail("test.off"));
  EXPECT_FALSE(reg.ShouldFail("test.other"));
  EXPECT_TRUE(reg.EnabledNames().empty());
}

#ifdef MVOPT_FAILPOINTS

// ---------------------------------------------------------------------
// Site behavior: every injected fault is contained, rolled back, and
// leaves the index structures audit-green.
// ---------------------------------------------------------------------

class FailpointSiteTest : public ::testing::Test {
 protected:
  FailpointSiteTest() : schema_(tpch::BuildSchema(&catalog_, 0.1)) {}
  ~FailpointSiteTest() override {
    FailpointRegistry::Instance().DisableAll();
  }

  /// A deterministic single-table view over lineitem that trivially
  /// matches its own definition.
  SpjgQuery SimpleLineitemDef() {
    SpjgBuilder b(&catalog_);
    int l = b.AddTable("lineitem");
    b.Output(b.Col(l, "l_orderkey"));
    b.Output(b.Col(l, "l_partkey"));
    return b.Build();
  }

  void AddWorkloadViews(MatchingService* service, int n, uint64_t seed) {
    tpch::WorkloadGenerator gen(&catalog_, seed);
    for (int i = 0; i < n; ++i) {
      std::string error;
      ASSERT_NE(service->AddView("w" + std::to_string(i), gen.GenerateView(),
                                 &error),
                nullptr)
          << error;
    }
  }

  void ExpectAuditGreen(const MatchingService& service) {
    InvariantAuditor auditor;
    AuditReport report = auditor.AuditFilterTree(service.filter_tree());
    EXPECT_TRUE(report.ok()) << report.Summary();
  }

  Catalog catalog_;
  tpch::Schema schema_;
};

TEST_F(FailpointSiteTest, AddViewErrorReturnLeavesNoTrace) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 3, 1);
  FailpointRegistry::Instance().Enable("view_catalog.add_view");
  std::string error;
  EXPECT_EQ(service.AddView("victim", SimpleLineitemDef(), &error), nullptr);
  EXPECT_NE(error.find("failpoint"), std::string::npos);
  EXPECT_EQ(service.views().num_views(), 3);
  EXPECT_EQ(service.views().FindView("victim"), nullptr);
  ExpectAuditGreen(service);
  // The site fired its single shot; the retry goes through unchanged.
  EXPECT_NE(service.AddView("victim", SimpleLineitemDef(), &error), nullptr)
      << error;
  EXPECT_EQ(service.views().num_views(), 4);
  ExpectAuditGreen(service);
}

TEST_F(FailpointSiteTest, DescribeThrowRollsBackRegistration) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 3, 2);
  FailpointRegistry::Instance().Enable("view_catalog.describe");
  std::string error;
  EXPECT_EQ(service.AddView("victim", SimpleLineitemDef(), &error), nullptr);
  EXPECT_NE(error.find("rolled back"), std::string::npos);
  EXPECT_EQ(service.views().num_views(), 3);
  EXPECT_EQ(service.views().FindView("victim"), nullptr);
  ExpectAuditGreen(service);
  ViewDefinition* v = service.AddView("victim", SimpleLineitemDef(), &error);
  ASSERT_NE(v, nullptr) << error;
  // The re-added view is reachable through the whole pipeline.
  QueryContext ctx;
  std::vector<Substitute> subs =
      service.FindSubstitutes(SimpleLineitemDef(), ctx);
  ASSERT_FALSE(subs.empty());
  bool found = false;
  for (const Substitute& s : subs) found = found || s.view_id == v->id();
  EXPECT_TRUE(found);
  ExpectAuditGreen(service);
}

TEST_F(FailpointSiteTest, FilterTreeEntryThrowRollsBackRegistration) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 5, 3);
  FailpointRegistry::Instance().Enable("filter_tree.add_view");
  std::string error;
  EXPECT_EQ(service.AddView("victim", SimpleLineitemDef(), &error), nullptr);
  EXPECT_NE(error.find("rolled back"), std::string::npos);
  EXPECT_EQ(service.views().num_views(), 5);
  ExpectAuditGreen(service);
  ASSERT_NE(service.AddView("victim", SimpleLineitemDef(), &error), nullptr)
      << error;
  ExpectAuditGreen(service);
}

TEST_F(FailpointSiteTest, InsertLeafThrowUndoesPartialTreeInsert) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 5, 4);
  FailpointRegistry::Instance().Enable("filter_tree.insert_leaf");
  std::string error;
  EXPECT_EQ(service.AddView("victim", SimpleLineitemDef(), &error), nullptr);
  EXPECT_NE(error.find("rolled back"), std::string::npos);
  EXPECT_EQ(service.views().num_views(), 5);
  // The failed insert wrote nothing: no lattice key it would have
  // created is live.
  ExpectAuditGreen(service);
  ViewDefinition* v = service.AddView("victim", SimpleLineitemDef(), &error);
  ASSERT_NE(v, nullptr) << error;
  QueryContext ctx;
  std::vector<Substitute> subs =
      service.FindSubstitutes(SimpleLineitemDef(), ctx);
  bool found = false;
  for (const Substitute& s : subs) found = found || s.view_id == v->id();
  EXPECT_TRUE(found);
  ExpectAuditGreen(service);
}

TEST_F(FailpointSiteTest, ProbeEntryFailureIsIsolatedByOptimizer) {
  MatchingService service(&catalog_);
  std::string error;
  ASSERT_NE(service.AddView("v", SimpleLineitemDef(), &error), nullptr);
  FailpointConfig cfg;
  cfg.count = -1;
  FailpointRegistry::Instance().Enable("matching_service.find_substitutes",
                                       cfg);
  SpjgBuilder qb(&catalog_);
  int l = qb.AddTable("lineitem");
  int o = qb.AddTable("orders");
  qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(l, "l_orderkey"),
                             qb.Col(o, "o_orderkey")));
  qb.Output(qb.Col(l, "l_partkey"));
  Optimizer optimizer(&catalog_, &service);
  QueryContext ctx;
  OptimizationResult r = optimizer.Optimize(qb.Build(), ctx);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_FALSE(r.uses_view);
  EXPECT_GT(r.metrics.view_matching_failures, 0);
  EXPECT_EQ(r.metrics.substitutes_produced, 0);
}

TEST_F(FailpointSiteTest, MatcherFailureIsIsolatedPerCandidate) {
  MatchingService service(&catalog_);
  std::string error;
  ASSERT_NE(service.AddView("a", SimpleLineitemDef(), &error), nullptr);
  ASSERT_NE(service.AddView("b", SimpleLineitemDef(), &error), nullptr);
  // Exactly the first candidate's matcher run fails.
  FailpointRegistry::Instance().Enable("matcher.match");
  QueryContext ctx;
  std::vector<Substitute> subs =
      service.FindSubstitutes(SimpleLineitemDef(), ctx);
  EXPECT_EQ(subs.size(), 1u);
  EXPECT_EQ(service.stats().match_failures, 1);
  EXPECT_EQ(service.stats().substitutes, 1);
}

TEST_F(FailpointSiteTest, CheckerFailpointQuarantinesRepeatOffenders) {
  MatchingService::Options opts;
  opts.verify_mode = VerifyMode::kEnforce;
  opts.quarantine_threshold = 2;
  MatchingService service(&catalog_, opts);
  std::string error;
  ViewDefinition* v = service.AddView("flaky", SimpleLineitemDef(), &error);
  ASSERT_NE(v, nullptr) << error;
  FailpointConfig cfg;
  cfg.count = -1;
  FailpointRegistry::Instance().Enable("rewrite_checker.check", cfg);
  // Two consecutive forced rejections reach the threshold.
  QueryContext ctx;
  EXPECT_TRUE(service.FindSubstitutes(SimpleLineitemDef(), ctx).empty());
  EXPECT_FALSE(service.IsQuarantined(v->id()));
  EXPECT_TRUE(service.FindSubstitutes(SimpleLineitemDef(), ctx).empty());
  EXPECT_TRUE(service.IsQuarantined(v->id()));
  // The third probe skips the view without running matcher or checker.
  int64_t checked_before = service.verify_stats().checked;
  EXPECT_TRUE(service.FindSubstitutes(SimpleLineitemDef(), ctx).empty());
  EXPECT_EQ(service.verify_stats().checked, checked_before);
  EXPECT_GE(service.stats().quarantine_skips, 1);
  EXPECT_EQ(service.verify_stats().quarantined_views, 1);
  ASSERT_EQ(service.QuarantinedViews().size(), 1u);
  EXPECT_EQ(service.QuarantinedViews()[0], "flaky");
  // Quarantine is sticky: disarming the fault does not readmit the view.
  FailpointRegistry::Instance().DisableAll();
  EXPECT_TRUE(service.FindSubstitutes(SimpleLineitemDef(), ctx).empty());
}

TEST_F(FailpointSiteTest, CheckerRejectionStreakResetsOnProvenSubstitute) {
  MatchingService::Options opts;
  opts.verify_mode = VerifyMode::kEnforce;
  opts.quarantine_threshold = 2;
  MatchingService service(&catalog_, opts);
  std::string error;
  ViewDefinition* v = service.AddView("flaky", SimpleLineitemDef(), &error);
  ASSERT_NE(v, nullptr) << error;
  // Reject once, prove once, reject once: the streak never reaches 2.
  FailpointRegistry::Instance().Enable("rewrite_checker.check");
  QueryContext ctx;
  EXPECT_TRUE(service.FindSubstitutes(SimpleLineitemDef(), ctx).empty());
  EXPECT_EQ(service.FindSubstitutes(SimpleLineitemDef(), ctx).size(), 1u);
  FailpointRegistry::Instance().Enable("rewrite_checker.check");
  EXPECT_TRUE(service.FindSubstitutes(SimpleLineitemDef(), ctx).empty());
  EXPECT_FALSE(service.IsQuarantined(v->id()));
  EXPECT_EQ(service.verify_stats().quarantined_views, 0);
}

TEST_F(FailpointSiteTest, PlanExecutionEntrySiteThrows) {
  Database db(&catalog_);
  PlanExecutor exec(&db);
  auto plan = std::make_shared<PhysPlan>();
  FailpointRegistry::Instance().Enable("plan_exec.execute");
  try {
    exec.Execute(plan);
    FAIL() << "failpoint did not fire";
  } catch (const FailpointTriggered& e) {
    EXPECT_EQ(e.name(), "plan_exec.execute");
  }
}

TEST_F(FailpointSiteTest, EveryRegisteredSiteLeavesStructuresAuditGreen) {
  for (const char* site : kFailpointSites) {
    SCOPED_TRACE(site);
    MatchingService service(&catalog_);
    AddWorkloadViews(&service, 4, 7);
    FailpointConfig cfg;
    cfg.count = -1;
    FailpointRegistry::Instance().Enable(site, cfg);
    std::string error;
    ViewDefinition* added = nullptr;
    EXPECT_NO_THROW(
        added = service.AddView("victim", SimpleLineitemDef(), &error));
    EXPECT_NO_THROW({
      try {
        QueryContext ctx;
        (void)service.FindSubstitutes(SimpleLineitemDef(), ctx);
      } catch (const FailpointTriggered&) {
        // Only the probe-entry site is allowed to surface to the caller
        // (the optimizer isolates it); nothing else may escape.
        EXPECT_STREQ(site, "matching_service.find_substitutes");
      }
    });
    FailpointRegistry::Instance().DisableAll();
    // Whatever the fault hit, catalog and tree agree and audit green.
    ExpectAuditGreen(service);
    const int expected = added != nullptr ? 5 : 4;
    EXPECT_EQ(service.views().num_views(), expected);
    QueryContext ctx;
    EXPECT_NO_THROW((void)service.FindSubstitutes(SimpleLineitemDef(), ctx));
    ASSERT_NE(service.AddView("after", SimpleLineitemDef(), &error), nullptr)
        << error;
    ExpectAuditGreen(service);
  }
}

#endif  // MVOPT_FAILPOINTS

}  // namespace
}  // namespace mvopt
