// Probe-path scaling: concurrent FindSubstitutes throughput as the
// number of probing threads grows. Every probe pins the published
// snapshot through the epoch domain and takes no shared lock, so on
// real cores the throughput should grow with the thread count up to the
// host's hardware threads.
//
// Fixed-work design: every thread sweeps the query set a fixed number
// of rounds, so each point executes the identical probe sequence per
// thread. Each point runs one untimed warm-up pass, then MVOPT_BENCH_REPS
// timed reps, and reports the median, minimum and maximum probes/sec.
// The substitute total must equal threads x rounds x the single-pass
// total on every rep; the bench exits non-zero otherwise. Emits JSON on
// stdout (committed as results/snapshot_scaling.json); host_hw_threads
// records the core count the numbers were taken on — thread counts
// beyond it oversubscribe and measure scheduling, not probe scaling.
//
// Knobs: MVOPT_BENCH_QUERIES (default 100), MVOPT_BENCH_VIEWS (default
// 300), MVOPT_BENCH_ROUNDS (rounds per thread, default 20),
// MVOPT_BENCH_REPS (timed reps per point, default 7).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "common/query_context.h"

namespace {

using namespace mvopt;
using namespace mvopt::bench;

struct PassResult {
  double seconds = 0;
  int64_t substitutes = 0;
};

/// `threads` probers, each sweeping every query `rounds` times.
PassResult RunPass(MatchingService* service, const Workload& workload,
                   int threads, int rounds) {
  std::atomic<int64_t> substitutes{0};
  std::vector<std::thread> probers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    probers.emplace_back([&] {
      int64_t local = 0;
      for (int r = 0; r < rounds; ++r) {
        for (const SpjgQuery& q : workload.queries()) {
          QueryContext ctx;
          local += static_cast<int64_t>(service->FindSubstitutes(q, ctx).size());
        }
      }
      substitutes.fetch_add(local);
    });
  }
  for (std::thread& p : probers) p.join();
  PassResult result;
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result.substitutes = substitutes.load();
  return result;
}

}  // namespace

int main() {
  const int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 100);
  const int num_views = EnvInt("MVOPT_BENCH_VIEWS", 300);
  const int rounds = EnvInt("MVOPT_BENCH_ROUNDS", 20);
  const int reps = std::max(1, EnvInt("MVOPT_BENCH_REPS", 7));
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<int> thread_counts = {1, 4, 16};

  Workload workload(num_views, num_queries);
  auto service = workload.MakeService(num_views, MatchingService::Options());
  const int64_t single_pass = RunPass(service.get(), workload, 1, 1).substitutes;

  JsonReport report("snapshot_scaling");
  char caveat[256];
  std::snprintf(caveat, sizeof(caveat),
                "probes/sec measured on a host with %u hardware threads; "
                "points with threads > %u oversubscribe and measure "
                "scheduling, not probe scaling",
                hw, hw);
  report.Caveat(caveat);
  report.Meta("views", num_views);
  report.Meta("queries", num_queries);
  report.Meta("rounds_per_thread", rounds);
  report.Meta("reps", reps);
  report.Meta("probe_path_shared_lock_acquisitions", 0);

  for (int threads : thread_counts) {
    const int64_t probes = static_cast<int64_t>(threads) * rounds * num_queries;
    const int64_t want_subs =
        static_cast<int64_t>(threads) * rounds * single_pass;
    RunPass(service.get(), workload, threads, rounds);  // warm-up
    std::vector<double> rates;
    for (int rep = 0; rep < reps; ++rep) {
      const PassResult pass = RunPass(service.get(), workload, threads, rounds);
      if (pass.substitutes != want_subs) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: threads=%d substitutes=%lld "
                     "expected=%lld\n",
                     threads, static_cast<long long>(pass.substitutes),
                     static_cast<long long>(want_subs));
        return 1;
      }
      rates.push_back(probes / pass.seconds);
    }
    std::sort(rates.begin(), rates.end());
    const double median = rates[rates.size() / 2];
    report.BeginRow();
    report.Field("threads", threads);
    report.Field("probes_per_rep", probes);
    report.Field("probes_per_sec_median", median);
    report.Field("probes_per_sec_min", rates.front());
    report.Field("probes_per_sec_max", rates.back());
    report.Field("substitutes_per_rep", want_subs);
    report.EndRow();
    std::fprintf(stderr,
                 "threads=%-3d %10.0f probes/sec (median of %d; min %.0f, "
                 "max %.0f)\n",
                 threads, median, reps, rates.front(), rates.back());
  }
  report.Finish();
  return 0;
}
