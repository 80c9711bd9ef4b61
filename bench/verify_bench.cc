// Overhead of the rewrite soundness checker (src/verify) on the matching
// path: the same seeded view/query workload is pushed through
// FindSubstitutes with verification off, in log mode and in enforce mode.
// Every view definition is also replayed as a query so the checker sees a
// guaranteed self-match per view on top of the random matches — without
// this most invocations produce nothing and the checker never runs.
//
// Output: JSON document on stdout (committed as
// results/verify_overhead.json; see bench/bench_report.h), progress on
// stderr.
//
// Knobs: MVOPT_BENCH_VIEWS (default 200), MVOPT_BENCH_QUERIES (default
// 400).

#include <chrono>
#include <cstdio>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "verify/rewrite_checker.h"

int main() {
  using namespace mvopt;
  using namespace mvopt::bench;

  const int num_views = EnvInt("MVOPT_BENCH_VIEWS", 200);
  const int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 400);
  Workload workload(num_views, num_queries);

  JsonReport report("verify_overhead");
  report.Caveat("vs_off is a single-host wall-clock ratio; absolute "
                "seconds are not comparable across hosts");
  report.Meta("views", num_views);
  report.Meta("queries", num_queries);
  report.Meta("self_match_replays_per_mode", num_views);
  constexpr int kReps = 15;
  report.Meta("timed_passes_per_mode", kReps);

  double baseline = -1;
  int exit_code = 0;
  for (VerifyMode mode :
       {VerifyMode::kOff, VerifyMode::kLog, VerifyMode::kEnforce}) {
    auto service = workload.MakeService(num_views, /*use_filter_tree=*/true);
    service->set_verify_mode(mode);

    auto run_once = [&] {
      for (ViewId id = 0; id < service->views().num_views(); ++id) {
        QueryContext ctx;
        (void)service->FindSubstitutes(service->views().view(id).query(), ctx);
      }
      for (const SpjgQuery& query : workload.queries()) {
        QueryContext ctx;
        (void)service->FindSubstitutes(query, ctx);
      }
    };

    // Warm up caches, then take the best of kReps timed passes so mode
    // ordering and allocator state don't masquerade as checker cost. A
    // pass takes ~10 ms, so a best of three still moved vs_off by ±50%
    // between runs on a 4-thread host.
    run_once();
    service->ResetStats();
    service->ResetVerifyStats();
    double seconds = -1;
    for (int rep = 0; rep < kReps; ++rep) {
      if (rep > 0) {
        service->ResetStats();
        service->ResetVerifyStats();
      }
      auto start = std::chrono::steady_clock::now();
      run_once();
      auto stop = std::chrono::steady_clock::now();
      double s = std::chrono::duration<double>(stop - start).count();
      if (seconds < 0 || s < seconds) seconds = s;
    }
    if (baseline < 0) baseline = seconds;

    const VerifyStats vs = service->verify_stats();
    report.BeginRow();
    report.Field("mode", VerifyModeName(mode));
    report.Field("seconds", seconds);
    report.Field("substitutes", service->stats().substitutes);
    report.Field("checked", vs.checked);
    report.Field("proven", vs.proven);
    report.Field("rejected", vs.rejected);
    report.Field("vs_off", baseline > 0 ? seconds / baseline : 0.0);
    report.EndRow();
    std::fprintf(stderr, "%-8s %10.3fs  %lld checked, %lld proven\n",
                 VerifyModeName(mode), seconds,
                 static_cast<long long>(vs.checked),
                 static_cast<long long>(vs.proven));
    if (vs.rejected != 0) {
      std::fprintf(stderr, "WARNING: %lld rejections (expected none)\n",
                   static_cast<long long>(vs.rejected));
      for (const auto& t : vs.rejection_traces) {
        std::fprintf(stderr, "  %s\n", t.c_str());
      }
      exit_code = 1;
    }
  }
  report.Finish();
  return exit_code;
}
