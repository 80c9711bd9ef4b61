// Byte-identity regression for the whole optimize path: a fixed set of
// §5 workload queries is optimized against ~200 views, and a digest of
// every chosen plan (PhysPlan::ToString plus the exact cost), the
// root-level substitute lists and the matching/verification counters is
// compared with a recorded value.
//
// Two streams:
//   - the paper stream: generated queries, as in the Figure 2 bench;
//   - the view-replay stream: each view's own definition optimized as a
//     query, with the soundness checker enforcing and every compiled
//     verdict replayed against the generic matcher, so both match tiers,
//     the compensation builders and RewriteChecker all decide real
//     candidates.
//
// A refactor that claims "plans, substitute order and stats unchanged"
// must leave both digests alone. A change that moves plans on purpose
// re-records them (run the test, copy the printed digest) and says why.
// The digests assume IEEE double arithmetic as compiled for x86-64 by
// the repository's toolchain; costs enter the digest at full precision.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

constexpr int kNumViews = 200;
constexpr int kNumQueries = 1000;
constexpr uint64_t kSeed = 3;

/// FNV-1a over a byte string, chained.
uint64_t Fold(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  h ^= 0xff;  // field separator
  h *= 1099511628211ULL;
  return h;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string StatsText(const MatchingStats& s) {
  std::string out = std::to_string(s.invocations) + "/" +
                    std::to_string(s.candidates) + "/" +
                    std::to_string(s.full_tests) + "/" +
                    std::to_string(s.substitutes) + "/" +
                    std::to_string(s.match_failures) + "/" +
                    std::to_string(s.budget_truncations) + "/" +
                    std::to_string(s.quarantine_skips) + "/" +
                    std::to_string(s.stale_tolerated) + "/" +
                    std::to_string(s.compiled_hits) + "/" +
                    std::to_string(s.compiled_fallbacks) + "/" +
                    std::to_string(s.cross_check_mismatches) + " rejects";
  for (int64_t r : s.rejects) out += " " + std::to_string(r);
  return out;
}

std::string VerifyText(const VerifyStats& s) {
  std::string out = std::to_string(s.checked) + "/" +
                    std::to_string(s.proven) + "/" +
                    std::to_string(s.rejected) + " codes";
  for (int64_t c : s.by_code) out += " " + std::to_string(c);
  return out;
}

std::string SubstituteText(const Substitute& sub) {
  std::string out = "view " + std::to_string(sub.view_id) + " preds";
  for (const ExprPtr& p : sub.predicates) out += " " + p->ToString();
  out += " outs";
  for (const OutputExpr& o : sub.outputs) {
    out += " " + o.name + "=" + o.expr->ToString();
  }
  out += " gb";
  for (const ExprPtr& g : sub.group_by) out += " " + g->ToString();
  out += sub.needs_aggregation ? " agg" : " noagg";
  out += " bj" + std::to_string(sub.backjoins.size());
  return out;
}

/// The §5 views of the Figure 2 harness: registered in order, each with
/// the generator's default indexes.
std::vector<SpjgQuery> RegisterViews(const Catalog& catalog,
                                     MatchingService* service) {
  std::vector<SpjgQuery> defs;
  tpch::WorkloadGenerator view_gen(&catalog, kSeed);
  tpch::WorkloadGenerator index_gen(&catalog, 4242);
  for (int i = 0; i < kNumViews; ++i) {
    defs.push_back(view_gen.GenerateView());
    std::string error;
    ViewDefinition* v =
        service->AddView("v" + std::to_string(i), defs.back(), &error);
    EXPECT_NE(v, nullptr) << error;
    if (v != nullptr) index_gen.AttachDefaultIndexes(v);
  }
  return defs;
}

/// Folds one optimization result into `h`; counts plans using views.
uint64_t FoldPlan(uint64_t h, const Catalog& catalog,
                  const OptimizationResult& r, int* using_views) {
  EXPECT_NE(r.plan, nullptr);
  if (r.plan == nullptr) return Fold(h, "no-plan");
  if (r.uses_view) ++*using_views;
  h = Fold(h, r.plan->ToString(catalog));
  h = Fold(h, Num(r.cost));
  return Fold(h, r.uses_view ? "view" : "base");
}

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

TEST(PlanDigestTest, PaperStream) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  MatchingService service(&catalog);
  RegisterViews(catalog, &service);
  Optimizer optimizer(&catalog, &service);
  tpch::WorkloadGenerator query_gen(&catalog, kSeed + 77777);

  uint64_t h = 14695981039346656037ULL;
  int using_views = 0;
  for (int j = 0; j < kNumQueries; ++j) {
    h = FoldPlan(h, catalog, optimizer.Optimize(query_gen.GenerateQuery()),
                 &using_views);
  }
  h = Fold(h, StatsText(service.stats()));
  // The stream must exercise view matching, or the digest pins little.
  EXPECT_GT(using_views, 0);
  EXPECT_GT(service.stats().full_tests, 0);
  EXPECT_EQ(Hex(h), "f39544f8c42eda3c")
      << "plans using views: " << using_views << "\nstats "
      << StatsText(service.stats());
}

TEST(PlanDigestTest, ViewReplayStreamWithEnforcedVerification) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  MatchingService::Options options;
  options.verify_mode = VerifyMode::kEnforce;
  options.cross_check = MatchCrossCheck::kLog;
  MatchingService service(&catalog, options);
  const std::vector<SpjgQuery> defs = RegisterViews(catalog, &service);
  Optimizer optimizer(&catalog, &service);

  uint64_t h = 14695981039346656037ULL;
  int using_views = 0;
  for (const SpjgQuery& def : defs) {
    h = FoldPlan(h, catalog, optimizer.Optimize(def), &using_views);
    // The root probe's substitutes, in the order the service returns
    // them (the optimizer's choice depends on that order only for exact
    // cost ties, so the plan digest alone does not pin it).
    for (const Substitute& sub : service.FindSubstitutes(def)) {
      h = Fold(h, SubstituteText(sub));
    }
  }
  h = Fold(h, StatsText(service.stats()));
  h = Fold(h, VerifyText(service.verify_stats()));
  EXPECT_GT(using_views, kNumViews / 2);
  EXPECT_GT(service.verify_stats().proven, 0);
  EXPECT_EQ(service.stats().cross_check_mismatches, 0);
  EXPECT_EQ(Hex(h), "3d4d6b55fa1407cc")
      << "plans using views: " << using_views << "\nstats "
      << StatsText(service.stats()) << "\nverify "
      << VerifyText(service.verify_stats());
}

}  // namespace
}  // namespace mvopt
