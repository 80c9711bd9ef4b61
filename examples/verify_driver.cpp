// Verify driver: exercises the src/verify soundness layer end to end.
//
//   1. Runs a seeded TPC-H workload through the matching service in `log`
//      mode and prints the checker's verdict tally (every substitute the
//      matcher produces should be proven).
//   2. Repeats in `enforce` mode and confirms no substitute is discarded.
//   3. Hand-corrupts a substitute and shows the checker rejecting it with
//      a machine-readable code.
//   4. Audits the structural invariants of the service's filter tree and
//      a standalone lattice, including after deletions.
//   5. Runs the optimizer with memo auditing on and reports the result.
//
// Exits non-zero on any unexpected outcome, so it doubles as a smoke
// check in CI.

#include <cstdio>
#include <string>
#include <vector>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/invariant_auditor.h"
#include "verify/rewrite_checker.h"

using namespace mvopt;

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what);
    ++g_failures;
  }
}

void PrintVerifyStats(const VerifyStats& vs) {
  std::printf("  checked=%lld proven=%lld rejected=%lld\n",
              static_cast<long long>(vs.checked),
              static_cast<long long>(vs.proven),
              static_cast<long long>(vs.rejected));
  for (int c = 0; c < kNumCheckCodes; ++c) {
    if (vs.by_code[c] == 0) continue;
    std::printf("    %-24s %lld\n", CheckCodeName(static_cast<CheckCode>(c)),
                static_cast<long long>(vs.by_code[c]));
  }
  for (const std::string& trace : vs.rejection_traces) {
    std::printf("    trace: %s\n", trace.c_str());
  }
}

// Replays every registered view's own definition as a query (each is
// guaranteed at least its self-match), then a batch of random queries for
// diversity.
void RunWorkload(MatchingService* service, uint64_t seed, int num_queries) {
  for (ViewId id = 0; id < service->views().num_views(); ++id) {
    QueryContext ctx;
    (void)service->FindSubstitutes(service->views().view(id).query(), ctx);
  }
  tpch::WorkloadGenerator query_gen(&service->catalog(), seed);
  for (int i = 0; i < num_queries; ++i) {
    QueryContext ctx;
    (void)service->FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }
}

}  // namespace

int main() {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);

  // --- 1+2: seeded workload under log, then enforce, mode. -------------
  MatchingService::Options opts;
  opts.verify_mode = VerifyMode::kLog;
  MatchingService service(&catalog, opts);

  tpch::WorkloadGenerator view_gen(&catalog, 101);
  for (int i = 0; i < 60; ++i) {
    std::string error;
    if (service.AddView("v" + std::to_string(i), view_gen.GenerateView(),
                        &error) == nullptr) {
      std::printf("AddView failed: %s\n", error.c_str());
      return 1;
    }
  }

  std::printf("mode=%s\n", VerifyModeName(service.verify_mode()));
  RunWorkload(&service, 202, 120);
  PrintVerifyStats(service.verify_stats());
  Expect(service.verify_stats().checked > 0, "log mode checked substitutes");
  Expect(service.verify_stats().rejected == 0,
         "log mode: every matcher substitute proves");

  int64_t produced_in_log_mode = service.stats().substitutes;
  service.ResetVerifyStats();
  service.ResetStats();
  service.set_verify_mode(VerifyMode::kEnforce);
  std::printf("\nmode=%s\n", VerifyModeName(service.verify_mode()));
  RunWorkload(&service, 202, 120);
  PrintVerifyStats(service.verify_stats());
  Expect(service.stats().substitutes == produced_in_log_mode,
         "enforce mode keeps the full substitute set");

  // --- 3: a corrupted substitute is rejected. --------------------------
  std::printf("\ncorrupted substitute:\n");
  bool showed_rejection = false;
  for (ViewId id = 0; id < service.views().num_views() && !showed_rejection;
       ++id) {
    SpjgQuery query = service.views().view(id).query();
    QueryContext ctx;
    std::vector<Substitute> subs = service.FindSubstitutes(query, ctx);
    if (subs.empty()) continue;
    Substitute bad = subs[0];
    bad.predicates.clear();  // drop every compensating predicate
    if (!bad.outputs.empty()) bad.outputs.pop_back();  // and break arity
    Verdict verdict = service.checker().Check(
        query, service.views().view(bad.view_id), bad);
    std::printf("  %s: %s\n", CheckCodeName(verdict.code),
                verdict.detail.c_str());
    Expect(!verdict.proven, "corrupted substitute is rejected");
    showed_rejection = true;
  }
  Expect(showed_rejection, "found a substitute to corrupt");

  // --- 4: structural invariant audits. ---------------------------------
  InvariantAuditor auditor;
  AuditReport tree_report = auditor.AuditFilterTree(service.filter_tree());
  std::printf("\nfilter tree audit: %s\n",
              tree_report.ok() ? "clean" : tree_report.Summary().c_str());
  Expect(tree_report.ok(), "filter tree invariants hold");

  LatticeIndex lattice;
  lattice.Insert({1, 2});
  lattice.Insert({1, 2, 3});
  lattice.Insert({2, 3});
  lattice.Insert({1});
  lattice.Insert({3, 4});
  lattice.Erase({1, 2});
  AuditReport lattice_report = auditor.AuditLattice(lattice);
  std::printf("lattice audit: %s\n",
              lattice_report.ok() ? "clean" : lattice_report.Summary().c_str());
  Expect(lattice_report.ok(), "lattice invariants hold after erase");

  // --- 5: optimizer memo audit. ----------------------------------------
  OptimizerOptions oopts;
  oopts.audit_memo = true;
  Optimizer optimizer(&catalog, &service, oopts);
  tpch::WorkloadGenerator opt_gen(&catalog, 303);
  int audited = 0;
  int clean = 0;
  for (int i = 0; i < 20; ++i) {
    QueryContext ctx;
    OptimizationResult result =
        optimizer.Optimize(opt_gen.GenerateQuery(), ctx);
    ++audited;
    if (result.memo_audit.ok()) {
      ++clean;
    } else {
      std::printf("memo audit violations:\n%s\n",
                  result.memo_audit.Summary().c_str());
    }
  }
  std::printf("memo audit: %d/%d clean\n", clean, audited);
  Expect(clean == audited, "optimizer memos audit clean");

  std::printf("\n%s\n", g_failures == 0 ? "verify driver: all checks passed"
                                        : "verify driver: FAILURES");
  return g_failures == 0 ? 0 : 1;
}
