// Figure 2 reproduction: total optimization time for the random query
// workload as a function of the number of materialized views, for the
// four series of the paper:
//   Alt&Filter     substitutes produced, filter tree enabled
//   NoAlt&Filter   view matching runs but produces no substitutes
//   Alt&NoFilter   substitutes produced, every view checked
//   NoAlt&NoFilter no substitutes, every view checked
//
// The paper's shape: optimization time grows linearly with the number of
// views; with the filter tree the increase at 1000 views is ~60%, without
// it ~110%.
//
// Each (views, series) point runs one untimed warm-up pass over the query
// set, then MVOPT_BENCH_REPS timed passes (default 7); a row reports the
// median and p10/p90 of the pass's total optimization time. Every pass
// uses a fresh optimizer over the same service, so passes differ only in
// timing noise (plans and match counts are identical across reps).
//
// Output: JSON document on stdout (committed as results/fig2.json; see
// bench/bench_report.h), progress on stderr. Knobs: MVOPT_BENCH_QUERIES,
// MVOPT_BENCH_VIEWS, MVOPT_BENCH_STEP (bench/harness.h) and
// MVOPT_BENCH_REPS.

#include <cstdio>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"

int main() {
  using namespace mvopt;
  using namespace mvopt::bench;

  SweepConfig config;
  const int reps = std::max(1, EnvInt("MVOPT_BENCH_REPS", 7));
  Workload workload(config.max_views, config.num_queries);

  JsonReport report("fig2_opt_time");
  report.Caveat(
      "seconds are the total optimization time of one pass over the "
      "query set, single-threaded; the series' relative growth with the "
      "view count is the paper's claim, not the absolute times");
  report.Meta("queries", config.num_queries);
  report.Meta("max_views", config.max_views);
  report.Meta("reps", reps);
  report.Meta("warmup_passes", 1);

  for (int n : config.ViewCounts()) {
    for (bool filter : {true, false}) {
      auto service = workload.MakeService(n, filter);
      for (bool alt : {true, false}) {
        OptimizerOptions opts;
        opts.produce_substitutes = alt;
        const std::string series = std::string(alt ? "Alt" : "NoAlt") +
                                   "&" + (filter ? "Filter" : "NoFilter");
        std::fprintf(stderr, "views=%d %s\n", n, series.c_str());
        RunSweepPoint(workload, service.get(), n, opts);  // warm-up
        std::vector<double> seconds;
        for (int r = 0; r < reps; ++r) {
          seconds.push_back(
              RunSweepPoint(workload, service.get(), n, opts).total_seconds);
        }
        report.BeginRow();
        report.Field("views", n);
        report.Field("series", series);
        report.Field("seconds_median", Quantile(seconds, 0.5));
        report.Field("seconds_p10", Quantile(seconds, 0.1));
        report.Field("seconds_p90", Quantile(seconds, 0.9));
        report.EndRow();
      }
    }
  }
  report.Finish();
  return 0;
}
