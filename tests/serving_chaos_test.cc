// Chaos soak for the serving front end: N tenant threads hammer one
// ServingService with client-side retry loops while every serving.*
// failpoint fires probabilistically, quotas flip at runtime, and the
// run ends in a graceful drain racing live submissions. The service is
// held to its core contract the whole time:
//
//   - every submission receives EXACTLY ONE terminal outcome
//     (submitted == Σ outcomes, duplicate_publishes == 0),
//   - every admitted query is answered (admitted == Σ completions),
//   - every retryable shed carries a finite, positive retry_after,
//   - drain loses nothing (no ticket left undone).
//
// Run under TSan via tools/ci/run_sanitizers.sh (label: stress). Sized
// by MVOPT_CHAOS_QUERIES / MVOPT_CHAOS_TENANTS for bigger soaks; the
// acceptance run uses >= 10000 queries per tenant:
//   MVOPT_CHAOS_QUERIES=10000 ./serving_chaos_test

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "observe/metrics.h"
#include "serve/admission.h"
#include "serve/serving_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

TEST(ServingChaosTest, SoakUnderFaultsQuotaFlipsAndDrain) {
  const int kTenants = EnvInt("MVOPT_CHAOS_TENANTS", 3);
  const int kQueriesPerTenant = EnvInt("MVOPT_CHAOS_QUERIES", 2000);

  Catalog catalog;
  const tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  (void)schema;  // constraints live in the catalog
  MatchingService matching(&catalog);
  tpch::WorkloadGenerator views(&catalog, /*seed=*/101);
  for (int i = 0; i < 24; ++i) {
    std::string error;
    ASSERT_NE(matching.AddView("cv" + std::to_string(i), views.GenerateView(),
                               &error),
              nullptr)
        << error;
  }
  std::vector<SpjgQuery> queries;
  tpch::WorkloadGenerator querygen(&catalog, /*seed=*/202);
  for (int i = 0; i < 32; ++i) queries.push_back(querygen.GenerateQuery());

  MetricsRegistry registry;
  ServingOptions options;
  options.num_workers = 3;
  options.queue_capacity = 8;         // small: queue-full sheds are common
  options.max_in_flight = 12;
  options.default_quota = TokenBucketConfig{50, 2000};  // quota sheds too
  options.overload.escalate_after = 2;
  options.overload.recover_after = 4;
  options.observe.mode = ObserveMode::kCountersOnly;
  options.observe.registry = &registry;
  ServingService service(&catalog, &matching, options);

  // Every serving failpoint fires with a small seeded probability for
  // the whole soak, each site on its own deterministic stream.
  auto& failpoints = FailpointRegistry::Instance();
  const char* kSites[] = {"serving.admit", "serving.enqueue",
                          "serving.dequeue", "serving.execute",
                          "serving.result_publish"};
  uint64_t seed = 0xc0ffee;
  for (const char* site : kSites) {
    FailpointConfig config;
    config.count = -1;  // armed forever
    config.probability = 0.02;
    config.seed = seed++;
    failpoints.Enable(site, config);
  }

  std::atomic<int64_t> submitted{0};
  std::atomic<int64_t> outcome_counts[kNumAdmissionOutcomes] = {};
  std::atomic<int64_t> completed_ok{0}, completed_transient{0},
      completed_rejected{0};
  std::atomic<int64_t> bad_retry_after{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      RetryPolicyConfig retry_config;
      retry_config.max_attempts = 3;
      retry_config.initial_backoff_seconds = 0.0;  // soak at full speed
      retry_config.max_backoff_seconds = 0.0;
      retry_config.seed = 0x5eed + static_cast<uint64_t>(t);
      const std::string tenant = "tenant" + std::to_string(t);
      // Past its share a tenant keeps submitting, for a bounded time,
      // until a worker fault has landed: the execute failpoint fires on
      // its own seeded stream, so whether it fires within the share
      // depends on how many queries the quotas happened to admit.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      auto more = [&](int i) {
        if (i < kQueriesPerTenant) return true;
        return failpoints.FireCount("serving.execute") == 0 &&
               std::chrono::steady_clock::now() < give_up;
      };
      for (int i = 0; more(i) && !stop.load(); ++i) {
        RetryPolicy policy(retry_config);
        for (;;) {
          ServeRequest req;
          req.query = queries[static_cast<size_t>(i + t) % queries.size()];
          req.tenant = tenant;
          req.rng_seed = static_cast<uint64_t>(i) * 1315423911u + t;
          if (i % 7 == 0) req.deadline_seconds = 0.050;
          if (i % 11 == 0) req.max_staleness = 2;
          auto ticket = service.Submit(std::move(req));
          submitted.fetch_add(1);
          const ServeResult& result = ticket->Wait();
          outcome_counts[static_cast<size_t>(result.outcome)].fetch_add(1);
          if (result.outcome == AdmissionOutcome::kAdmitted) {
            switch (result.error_kind) {
              case ServeErrorKind::kNone:
                completed_ok.fetch_add(1);
                break;
              case ServeErrorKind::kTransient:
                completed_transient.fetch_add(1);
                break;
              case ServeErrorKind::kVerifyRejected:
                completed_rejected.fetch_add(1);
                break;
            }
          } else if (IsRetryableOutcome(result.outcome)) {
            if (!(result.retry_after_seconds > 0) ||
                !std::isfinite(result.retry_after_seconds)) {
              bad_retry_after.fetch_add(1);
            }
          }
          auto delay = policy.NextDelay(result.outcome, result.error_kind,
                                        /*hint=*/0);  // don't sleep in soak
          if (!delay.has_value()) break;
        }
      }
    });
  }

  // Quota flipper: shrinks and restores tenant quotas while admissions
  // race the reconfiguration.
  std::thread flipper([&] {
    for (int round = 0; !stop.load(); ++round) {
      const std::string tenant = "tenant" + std::to_string(round % kTenants);
      if (round % 2 == 0) {
        service.SetTenantQuota(tenant, {5, 500});
      } else {
        service.SetTenantQuota(tenant, {50, 2000});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (std::thread& t : tenants) t.join();
  stop.store(true);
  flipper.join();

  // Drain races the last completions; with the drain failpoint armed it
  // must still terminate.
  failpoints.Enable("serving.drain");
  service.Drain();
  failpoints.DisableAll();

  // --- the contract -----------------------------------------------------
  const ServingStats stats = service.stats();
  int64_t outcome_total = 0;
  for (int i = 0; i < kNumAdmissionOutcomes; ++i) {
    // Client-side and server-side terminal-outcome accounting agree.
    EXPECT_EQ(outcome_counts[static_cast<size_t>(i)].load(),
              stats.outcomes[static_cast<size_t>(i)])
        << AdmissionOutcomeName(static_cast<AdmissionOutcome>(i));
    outcome_total += stats.outcomes[static_cast<size_t>(i)];
  }
  EXPECT_EQ(stats.submitted, submitted.load());
  // Exactly one terminal outcome per submission, none lost, none doubled.
  EXPECT_EQ(outcome_total, stats.submitted);
  EXPECT_EQ(stats.duplicate_publishes, 0);
  // Every admitted query was answered.
  EXPECT_EQ(stats.outcomes[0],
            stats.completions[0] + stats.completions[1] + stats.completions[2]);
  EXPECT_EQ(completed_ok.load(), stats.completions[0]);
  EXPECT_EQ(completed_transient.load(), stats.completions[1]);
  EXPECT_EQ(completed_rejected.load(), stats.completions[2]);
  // Retryable sheds always carried usable guidance.
  EXPECT_EQ(bad_retry_after.load(), 0);
  // The soak actually exercised the interesting paths.
  EXPECT_GT(stats.outcomes[0], 0) << "no query was ever admitted";
  const int64_t sheds = outcome_total - stats.outcomes[0];
  EXPECT_GT(sheds, 0) << "soak never shed — overload paths untested";
  EXPECT_GT(stats.completions[1], 0) << "no injected worker fault landed";
  // Registry export stays well-formed after the storm.
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(registry.WritePrometheus(), &error))
      << error;
  EXPECT_TRUE(ValidateJson(registry.WriteJson(), &error)) << error;
}

}  // namespace
}  // namespace mvopt
