// Workload definitions and their generated inputs. The benchmark takes
// the seed as an argument; the system under test only ever sees the
// view definitions and queries built here.

#ifndef MVOPT_PERFBENCH_INPUTS_H_
#define MVOPT_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/spjg.h"

namespace perfbench {

/// Fixed sizes and rates. They are constants of the benchmark (and are
/// recorded in BENCHMARK.json); nothing is calibrated per run.
inline constexpr int kInitialViews = 1000;
inline constexpr int kQueries = 2000;
inline constexpr double kTpchScale = 0.5;
/// Seed of the view generator.
inline constexpr uint64_t kViewSeed = 1;

enum class WorkloadKind { kPaperFig2, kViewAnswerable, kServeChurn };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {WorkloadKind::kPaperFig2, "paper_fig2"},
    {WorkloadKind::kViewAnswerable, "view_answerable"},
    {WorkloadKind::kServeChurn, "serve_churn"},
};

/// Returns false when `name` names no workload.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

struct Inputs {
  /// kInitialViews registered at set-up, then the views the serving
  /// phase registers, in registration order.
  std::vector<mvopt::SpjgQuery> views;
  /// The query stream, replayed cyclically by every phase.
  std::vector<mvopt::SpjgQuery> queries;
};

/// Generates the inputs of `kind` for `seed` over `catalog` (which must
/// hold only the TPC-H tables), with `churn_views` views beyond the
/// initial ones. The same seed gives the same inputs.
/// The view catalog is the same for every seed (a deployed catalog);
/// the seed draws the query stream, so runs differ in the traffic they
/// send, not in the catalog they send it to.
Inputs MakeInputs(const mvopt::Catalog& catalog, WorkloadKind kind,
                  uint64_t seed, int churn_views);

}  // namespace perfbench

#endif  // MVOPT_PERFBENCH_INPUTS_H_
