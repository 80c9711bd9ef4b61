#include "inputs.h"

#include <array>

#include "common/rng.h"
#include "tpch/workload.h"

namespace perfbench {

using namespace mvopt;

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      *kind = spec.kind;
      return true;
    }
  }
  return false;
}

namespace {

/// view_answerable's stream: every registered view definition replayed
/// as a query, twice, in a seeded order. Each replay is answerable from
/// at least its own view, so every probe reaches the match, compensate
/// and verification layers.
std::vector<SpjgQuery> ReplayViewDefinitions(
    const std::vector<SpjgQuery>& views, uint64_t seed) {
  std::vector<int> order;
  order.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) order.push_back(i % kInitialViews);
  Rng rng(seed ^ 0x5bd1e995ull);
  rng.Shuffle(&order);
  std::vector<SpjgQuery> queries;
  queries.reserve(kQueries);
  for (int i : order) queries.push_back(views[static_cast<size_t>(i)]);
  return queries;
}

/// The paper's §5 query stream, stratified. The generator draws each
/// query's table count from the paper's distribution (2:40%, 3:20%,
/// 4:17%, 5:13%, 6:8%, 7:2%) and aggregates half of them; here those
/// shares hold exactly, and in every prefix of the stream as nearly as
/// whole counts allow, instead of only in expectation. Every seed then
/// sends the same mix of query kinds; the seed picks the queries.
std::vector<SpjgQuery> StratifiedQueries(const Catalog& catalog,
                                         uint64_t seed) {
  static constexpr double kTableShare[] = {0.40, 0.20, 0.17,
                                           0.13, 0.08, 0.02};
  constexpr int kKinds = 12;  // (2..7 tables) x (aggregate or not)
  auto kind_of = [](const SpjgQuery& q) {
    const int t = q.num_tables();
    if (t < 2 || t > 7) return -1;
    return (t - 2) * 2 + (q.is_aggregate ? 1 : 0);
  };
  std::array<int, kKinds> quota{};
  for (int k = 0; k < kKinds; ++k) {
    quota[static_cast<size_t>(k)] =
        static_cast<int>(kTableShare[k / 2] / 2 * kQueries + 0.5);
  }

  std::array<std::vector<SpjgQuery>, kKinds> buckets;
  int filled = 0;
  int total = 0;
  for (int q : quota) total += q;
  tpch::WorkloadGenerator gen(&catalog, seed + 77777);
  for (int attempt = 0; filled < total && attempt < 100 * kQueries;
       ++attempt) {
    SpjgQuery query = gen.GenerateQuery();
    const int k = kind_of(query);
    if (k < 0) continue;
    auto& bucket = buckets[static_cast<size_t>(k)];
    if (static_cast<int>(bucket.size()) >= quota[static_cast<size_t>(k)]) {
      continue;
    }
    bucket.push_back(std::move(query));
    ++filled;
  }

  // Interleave: each next query comes from the kind furthest behind its
  // share of the prefix.
  std::vector<SpjgQuery> queries;
  queries.reserve(static_cast<size_t>(filled));
  std::array<size_t, kKinds> taken{};
  for (int i = 0; i < filled; ++i) {
    int best = -1;
    double best_deficit = 0;
    for (int k = 0; k < kKinds; ++k) {
      const size_t kk = static_cast<size_t>(k);
      if (taken[kk] >= buckets[kk].size()) continue;
      const double deficit =
          static_cast<double>(i + 1) * static_cast<double>(buckets[kk].size()) /
              filled -
          static_cast<double>(taken[kk]);
      if (best < 0 || deficit > best_deficit) {
        best = k;
        best_deficit = deficit;
      }
    }
    const size_t b = static_cast<size_t>(best);
    queries.push_back(std::move(buckets[b][taken[b]++]));
  }
  return queries;
}

}  // namespace

Inputs MakeInputs(const Catalog& catalog, WorkloadKind kind, uint64_t seed,
                  int churn_views) {
  Inputs inputs;
  // Views and queries come from generators with different seeds, as in
  // the paper's §5 set-up.
  tpch::WorkloadGenerator view_gen(&catalog, kViewSeed);
  inputs.views.reserve(static_cast<size_t>(kInitialViews + churn_views));
  for (int i = 0; i < kInitialViews + churn_views; ++i) {
    inputs.views.push_back(view_gen.GenerateView());
  }
  inputs.queries = kind == WorkloadKind::kViewAnswerable
                       ? ReplayViewDefinitions(inputs.views, seed)
                       : StratifiedQueries(catalog, seed);
  return inputs;
}

}  // namespace perfbench
