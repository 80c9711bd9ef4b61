// View registration cost against catalog size: the per-AddView wall
// time of MatchingService at 250 / 500 / 1000 / 2000 / 4000 registered
// views, plus one RecoverFrom of the largest catalog.
//
// A registration describes the view, compiles its match program and
// publishes a new catalog snapshot. Snapshots share structure (DESIGN.md
// §15), so the publish copies only the catalog chunk and the filter-tree
// path the new view touches; the per-add curve should be flat in the
// catalog size.
//
// Each rep registers the §5 random views (seed 1) into a fresh service
// and times a window of kWindow consecutive adds as the catalog passes
// each size; a row reports the median and p10/p90 over the reps of the
// window's mean per-add time. One untimed warm-up rep runs first. The
// recovery rows replay a WAL of the largest catalog into a fresh service
// once per rep.
//
// Output: JSON document on stdout (committed as
// results/registration_scaling.json; see bench/bench_report.h), progress
// on stderr. Knobs: MVOPT_BENCH_REPS (timed reps, default 7); the WAL
// goes under $TMPDIR (default /tmp) and is removed afterwards.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "rewrite/catalog_store.h"

namespace mvopt {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSizes[] = {250, 500, 1000, 2000, 4000};
constexpr int kWindow = 100;

void Register(MatchingService* service, const std::vector<SpjgQuery>& defs,
              int i) {
  std::string error;
  if (service->AddView("v" + std::to_string(i), defs[i], &error) == nullptr) {
    std::fprintf(stderr, "registration of v%d failed: %s\n", i,
                 error.c_str());
    std::exit(1);
  }
}

/// One rep: mean per-add microseconds of the window at each size.
std::vector<double> RegistrationRep(const Catalog* catalog,
                                    const std::vector<SpjgQuery>& defs) {
  std::vector<double> window_us;
  MatchingService service(catalog);
  int registered = 0;
  for (int size : kSizes) {
    while (registered < size) Register(&service, defs, registered++);
    const auto start = Clock::now();
    for (int k = 0; k < kWindow; ++k) Register(&service, defs, registered++);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    window_us.push_back(us / kWindow);
  }
  return window_us;
}

}  // namespace

int Main() {
  const int reps = std::max(1, EnvInt("MVOPT_BENCH_REPS", 7));
  const int max_views = kSizes[std::size(kSizes) - 1] + kWindow;

  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  tpch::WorkloadGenerator gen(&catalog, 1);
  std::vector<SpjgQuery> defs;
  for (int i = 0; i < max_views; ++i) defs.push_back(gen.GenerateView());

  JsonReport report("registration_scaling");
  char caveat[256];
  std::snprintf(caveat, sizeof(caveat),
                "single-threaded wall clock on a host with %u hardware "
                "threads; the shape of the curve across sizes is the "
                "meaningful result, absolute times are host-specific",
                std::thread::hardware_concurrency());
  report.Caveat(caveat);
  report.Meta("reps", reps);
  report.Meta("window_adds", kWindow);
  report.Meta("view_seed", 1);

  std::fprintf(stderr, "warm-up rep\n");
  RegistrationRep(&catalog, defs);
  std::vector<std::vector<double>> by_size(std::size(kSizes));
  for (int r = 0; r < reps; ++r) {
    std::fprintf(stderr, "rep %d/%d\n", r + 1, reps);
    std::vector<double> rep = RegistrationRep(&catalog, defs);
    for (size_t s = 0; s < rep.size(); ++s) by_size[s].push_back(rep[s]);
  }
  for (size_t s = 0; s < std::size(kSizes); ++s) {
    report.BeginRow();
    report.Field("phase", "add_view");
    report.Field("views", kSizes[s]);
    report.Field("us_per_add_median", Quantile(by_size[s], 0.5));
    report.Field("us_per_add_p10", Quantile(by_size[s], 0.1));
    report.Field("us_per_add_p90", Quantile(by_size[s], 0.9));
    report.EndRow();
  }

  // Recovery of the largest catalog from its WAL.
  const char* tmp = std::getenv("TMPDIR");
  std::string tmpl = std::string(tmp != nullptr && *tmp ? tmp : "/tmp") +
                     "/mvopt_registration_scaling_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string dir(buf.data());
  const int largest = kSizes[std::size(kSizes) - 1];
  {
    MatchingService service(&catalog);
    CatalogStore store(dir);
    service.AttachStore(&store);
    for (int i = 0; i < largest; ++i) Register(&service, defs, i);
  }
  std::vector<double> recover_ms;
  for (int r = 0; r <= reps; ++r) {
    MatchingService service(&catalog);
    CatalogStore store(dir);
    const auto start = Clock::now();
    RecoveryReport recovered = service.RecoverFrom(&store);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (recovered.views_recovered != largest) {
      std::fprintf(stderr, "recovery restored %lld of %d views\n",
                   static_cast<long long>(recovered.views_recovered),
                   largest);
      return 1;
    }
    if (r > 0) recover_ms.push_back(ms);  // rep 0 is the warm-up
  }
  std::string rm = "rm -rf '" + dir + "'";
  if (std::system(rm.c_str()) != 0) {
    std::fprintf(stderr, "could not remove %s\n", dir.c_str());
  }
  report.BeginRow();
  report.Field("phase", "recover_from_wal");
  report.Field("views", largest);
  report.Field("ms_median", Quantile(recover_ms, 0.5));
  report.Field("ms_p10", Quantile(recover_ms, 0.1));
  report.Field("ms_p90", Quantile(recover_ms, 0.9));
  report.EndRow();
  report.Finish();
  return 0;
}

}  // namespace bench
}  // namespace mvopt

int main() { return mvopt::bench::Main(); }
