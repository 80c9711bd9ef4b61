// Fault-isolated sharded catalog (src/shard): routing invariant,
// sharded-vs-unsharded probe equivalence, global id codec, bit-rot
// quarantine with machine-readable causes, partial-availability
// advisory, scrub readmission with circuit-breaker backoff, the
// ShardRecoveryReport JSON contract, shard metric families, and the
// admission-layer partial-catalog shed policy.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "common/thread_pool.h"
#include "observe/metrics.h"
#include "serve/serving_service.h"
#include "shard/sharded_catalog_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

// XORs one byte of a file in place — the bit-rot injector. Offsets are
// absolute; negative offsets count back from the end of the file.
void FlipByte(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const int64_t size = static_cast<int64_t>(f.tellg());
  const int64_t pos = offset >= 0 ? offset : size + offset;
  ASSERT_GE(pos, 0) << path;
  ASSERT_LT(pos, size) << path;
  f.seekg(pos);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0xFF);
  f.seekp(pos);
  f.write(&byte, 1);
}

class ShardTest : public ::testing::Test {
 protected:
  ShardTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    tpch::WorkloadGenerator gen(&catalog_, 4243);
    for (int i = 0; i < 16; ++i) view_defs_.push_back(gen.GenerateView());
    for (int i = 0; i < 24; ++i) queries_.push_back(gen.GenerateQuery());
    char tmpl[] = "/tmp/mvopt_shard_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~ShardTest() override {
    std::string cmd = "rm -rf " + dir_;
    (void)::system(cmd.c_str());
  }

  ShardedCatalogOptions Options(int num_shards, bool durable) {
    ShardedCatalogOptions options;
    options.num_shards = num_shards;
    if (durable) options.dir = dir_;
    return options;
  }

  // Registers every generated view; the owning shard of each is decided
  // by the router, never by us.
  void Seed(ShardedCatalogService& service) {
    std::string error;
    for (size_t i = 0; i < view_defs_.size(); ++i) {
      ASSERT_NE(service.AddView("v" + std::to_string(i), view_defs_[i],
                                &error),
                kInvalidViewId)
          << error;
    }
  }

  // Sorted view names of the substitutes a probe returns — the
  // shard-topology-independent fingerprint of a probe result.
  std::vector<std::string> ProbeNames(SubstituteSource& source,
                                      const SpjgQuery& query) {
    QueryContext ctx;
    std::vector<std::string> names;
    for (const Substitute& sub : source.FindSubstitutes(query, ctx)) {
      names.push_back(source.ResolveView(sub.view_id).name());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> view_defs_;
  std::vector<SpjgQuery> queries_;
  std::string dir_;
};

// ---------------------------------------------------------------------
// Enum plumbing and the id codec.
// ---------------------------------------------------------------------

TEST_F(ShardTest, EnumNamesCoverEveryValue) {
  for (int i = 0; i < kNumShardHealths; ++i) {
    EXPECT_NE(ShardHealthName(static_cast<ShardHealth>(i))[0], '?') << i;
  }
  for (int i = 0; i < kNumShardQuarantineCauses; ++i) {
    EXPECT_NE(
        ShardQuarantineCauseName(static_cast<ShardQuarantineCause>(i))[0],
        '?')
        << i;
  }
}

TEST_F(ShardTest, GlobalIdCodecRoundTrips) {
  ShardedCatalogService service(&catalog_, Options(5, false));
  for (int shard = 0; shard < 5; ++shard) {
    for (ViewId local = 0; local < 7; ++local) {
      const ViewId global = service.GlobalId(shard, local);
      EXPECT_EQ(service.ShardOfId(global), shard);
      EXPECT_EQ(service.LocalId(global), local);
    }
  }
}

TEST_F(ShardTest, ResolveViewRoundTripsThroughTheCodec) {
  ShardedCatalogService service(&catalog_, Options(3, false));
  std::string error;
  for (size_t i = 0; i < view_defs_.size(); ++i) {
    const std::string name = "v" + std::to_string(i);
    const ViewId id = service.AddView(name, view_defs_[i], &error);
    ASSERT_NE(id, kInvalidViewId) << error;
    EXPECT_EQ(service.ResolveView(id).name(), name);
    // The id encodes the shard the router chose for this definition.
    EXPECT_EQ(service.ShardOfId(id), service.router().RouteView(view_defs_[i]));
  }
}

// ---------------------------------------------------------------------
// Routing invariant: hub(view) ⊆ tables(query) ⇒ the owning shard is
// among the probed shards. Exercised over the generated workload for
// every (view, query) pair, not just the matching ones.
// ---------------------------------------------------------------------

TEST_F(ShardTest, RoutingInvariantHoldsForGeneratedWorkload) {
  for (int num_shards : {1, 2, 3, 5, 8}) {
    ShardRouter router(&catalog_, num_shards);
    for (const SpjgQuery& def : view_defs_) {
      const int owner = router.RouteView(def);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, num_shards);
      const ViewDefinition probe(kInvalidViewId, "", def);
      const ViewDescription desc = DescribeView(catalog_, probe);
      for (const SpjgQuery& query : queries_) {
        bool hub_covered = true;
        for (TableId t : desc.hub) {
          bool present = false;
          for (const TableRef& ref : query.tables) {
            if (ref.table == t) { present = true; break; }
          }
          if (!present) { hub_covered = false; break; }
        }
        if (!hub_covered) continue;  // view cannot match; routing free
        const std::vector<int> probed = router.RouteQuery(query);
        EXPECT_TRUE(std::binary_search(probed.begin(), probed.end(), owner))
            << "num_shards=" << num_shards << " owner=" << owner
            << " not probed for a hub-covered view";
      }
    }
  }
}

TEST_F(ShardTest, RouteQueryIsSortedUniqueAndIncludesUniversalShard) {
  ShardRouter router(&catalog_, 4);
  for (const SpjgQuery& query : queries_) {
    const std::vector<int> probed = router.RouteQuery(query);
    ASSERT_FALSE(probed.empty());
    EXPECT_EQ(probed.front(), 0);  // universal shard, always probed
    EXPECT_TRUE(std::is_sorted(probed.begin(), probed.end()));
    EXPECT_EQ(std::adjacent_find(probed.begin(), probed.end()), probed.end());
  }
}

// ---------------------------------------------------------------------
// Probe equivalence: a sharded catalog answers every probe with exactly
// the views an unsharded catalog answers with.
// ---------------------------------------------------------------------

TEST_F(ShardTest, ShardedProbesMatchUnshardedControl) {
  MatchingService control(&catalog_);
  ShardedCatalogService sharded(&catalog_, Options(4, false));
  std::string error;
  for (size_t i = 0; i < view_defs_.size(); ++i) {
    const std::string name = "v" + std::to_string(i);
    ASSERT_NE(control.AddView(name, view_defs_[i], &error), nullptr) << error;
    ASSERT_NE(sharded.AddView(name, view_defs_[i], &error), kInvalidViewId)
        << error;
  }
  int nonempty = 0;
  for (const SpjgQuery& query : queries_) {
    const std::vector<std::string> want = ProbeNames(control, query);
    const std::vector<std::string> got = ProbeNames(sharded, query);
    EXPECT_EQ(got, want);
    if (!want.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0) << "workload produced no matches; test is vacuous";
}

// ---------------------------------------------------------------------
// Partial availability: a quarantined routed shard is skipped, the
// sticky kPartialCatalog advisory is recorded, and the rest of the
// catalog keeps answering. An unrouted quarantined shard is invisible.
// ---------------------------------------------------------------------

TEST_F(ShardTest, QuarantinedRoutedShardDegradesNotFails) {
  ShardedCatalogService service(&catalog_, Options(3, false));
  Seed(service);
  // Pick a query with a matching view, then quarantine the highest
  // routed shard (never 0, so the universal shard keeps serving).
  for (const SpjgQuery& query : queries_) {
    QueryContext probe_ctx;
    if (service.FindSubstitutes(query, probe_ctx).empty()) continue;
    const std::vector<int> routed = service.RouteShards(query);
    const int victim = routed.back();
    service.ForceQuarantine(victim, ShardQuarantineCause::kForced, "test");
    EXPECT_EQ(service.shard_health(victim), ShardHealth::kQuarantined);
    EXPECT_EQ(service.shard_quarantine_cause(victim),
              ShardQuarantineCause::kForced);
    EXPECT_TRUE(service.AnyRoutedUnhealthy(query));

    QueryContext ctx;
    std::vector<Substitute> subs = service.FindSubstitutes(query, ctx);
    EXPECT_EQ(ctx.degradation(), DegradationReason::kPartialCatalog);
    // Every substitute that survives resolves on a healthy shard.
    for (const Substitute& sub : subs) {
      EXPECT_NE(service.ShardOfId(sub.view_id), victim);
      EXPECT_EQ(service.shard_health(service.ShardOfId(sub.view_id)),
                ShardHealth::kHealthy);
    }
    return;
  }
  FAIL() << "workload produced no matching query";
}

TEST_F(ShardTest, UnroutedQuarantinedShardLeavesProbesClean) {
  ShardedCatalogService service(&catalog_, Options(5, false));
  Seed(service);
  for (const SpjgQuery& query : queries_) {
    const std::vector<int> routed = service.RouteShards(query);
    int bystander = -1;
    for (int s = 1; s < service.num_shards(); ++s) {
      if (!std::binary_search(routed.begin(), routed.end(), s)) {
        bystander = s;
        break;
      }
    }
    if (bystander < 0) continue;
    service.ForceQuarantine(bystander, ShardQuarantineCause::kForced, "test");
    EXPECT_FALSE(service.AnyRoutedUnhealthy(query));
    QueryContext ctx;
    (void)service.FindSubstitutes(query, ctx);
    EXPECT_EQ(ctx.degradation(), DegradationReason::kNone)
        << "advisory raised for a shard the query never routes to";
    return;
  }
  GTEST_SKIP() << "every query routed to every shard";
}

TEST_F(ShardTest, AddViewToQuarantinedOwnerFailsLoudly) {
  ShardedCatalogService service(&catalog_, Options(3, false));
  const int owner = service.router().RouteView(view_defs_[0]);
  service.ForceQuarantine(owner, ShardQuarantineCause::kForced, "test");
  std::string error;
  EXPECT_EQ(service.AddView("homeless", view_defs_[0], &error),
            kInvalidViewId);
  EXPECT_FALSE(error.empty());
  // A different definition owned by a healthy shard still registers.
  for (size_t i = 1; i < view_defs_.size(); ++i) {
    if (service.router().RouteView(view_defs_[i]) == owner) continue;
    EXPECT_NE(service.AddView("housed", view_defs_[i], &error),
              kInvalidViewId)
        << error;
    return;
  }
  GTEST_SKIP() << "every generated view routed to the quarantined shard";
}

// ---------------------------------------------------------------------
// Scrub readmission: a forced quarantine is repaired by the scrubber
// without a restart, and probe results return to the pre-fault answers.
// ---------------------------------------------------------------------

TEST_F(ShardTest, ScrubReadmissionRestoresFullResultsWithoutRestart) {
  ShardedCatalogService service(&catalog_, Options(3, true));
  ThreadPool pool(2);
  ASSERT_TRUE(service.RecoverAll(&pool).all_healthy());
  Seed(service);

  std::vector<std::vector<std::string>> before;
  for (const SpjgQuery& query : queries_) {
    before.push_back(ProbeNames(service, query));
  }

  service.ForceQuarantine(1, ShardQuarantineCause::kForced, "test");
  EXPECT_EQ(service.ScrubTick(), 1);
  EXPECT_EQ(service.shard_health(1), ShardHealth::kHealthy);
  EXPECT_EQ(service.shard_quarantine_cause(1), ShardQuarantineCause::kNone);

  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryContext ctx;
    std::vector<std::string> names;
    for (const Substitute& sub : service.FindSubstitutes(queries_[i], ctx)) {
      names.push_back(service.ResolveView(sub.view_id).name());
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, before[i]) << "query " << i;
    EXPECT_EQ(ctx.degradation(), DegradationReason::kNone) << "query " << i;
  }
}

TEST_F(ShardTest, RegistrationInFlightSurvivesQuarantineAndScrub) {
  // An AddView that passed its owner's health check must finish its WAL
  // append before a quarantine takes effect. Otherwise the scrub replays
  // the store without it, swaps the rebuilt service in, and the repair
  // checkpoint drops the acknowledged view for good. A pausing failpoint
  // holds the registration between its health check and its append
  // while another thread quarantines and scrubs the owning shard.
#ifndef MVOPT_FAILPOINTS
  GTEST_SKIP() << "needs the failpoint sites compiled in";
#endif
  const int owner = ShardRouter(&catalog_, 2).RouteView(view_defs_[0]);
  ViewId victim = kInvalidViewId;
  std::string error;
  {
    ShardedCatalogService service(&catalog_, Options(2, true));
    ASSERT_TRUE(service.RecoverAll().all_healthy());
    Seed(service);

    std::promise<void> paused;
    std::promise<void> resume;
    std::shared_future<void> resumed = resume.get_future().share();
    FailpointConfig hold;
    hold.pause = [&paused, resumed] {
      paused.set_value();
      resumed.wait();
    };
    FailpointRegistry::Instance().Enable("filter_tree.add_view", hold);
    // Never fires: its hit count shows that the scrub replayed the store.
    FailpointConfig watch;
    watch.skip = std::numeric_limits<int64_t>::max();
    FailpointRegistry::Instance().Enable("catalog_shard.scrub_swap", watch);

    std::thread writer([&] {
      victim = service.AddView("victim", view_defs_[0], &error);
    });
    paused.get_future().wait();
    std::thread scrubber([&] {
      service.ForceQuarantine(owner, ShardQuarantineCause::kForced, "test");
      service.ScrubTick();
    });
    // Give the scrub time to replay the store while the registration is
    // held. A quarantine that waits for in-flight registrations never
    // gets that far, and the bound simply expires.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (FailpointRegistry::Instance().HitCount(
               "catalog_shard.scrub_swap") == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    resume.set_value();
    writer.join();
    scrubber.join();
    FailpointRegistry::Instance().DisableAll();

    ASSERT_NE(victim, kInvalidViewId) << error;
    EXPECT_EQ(service.shard_health(owner), ShardHealth::kHealthy);
    EXPECT_NE(service.shard_service(owner).views().FindView("victim"),
              nullptr)
        << "acknowledged view missing from the live shard";
  }
  ShardedCatalogService restarted(&catalog_, Options(2, true));
  ASSERT_TRUE(restarted.RecoverAll().all_healthy());
  EXPECT_NE(restarted.shard_service(owner).views().FindView("victim"),
            nullptr)
      << "acknowledged view missing after a restart";
}

// ---------------------------------------------------------------------
// Bit-rot quarantine: a flipped byte inside a shard's snapshot or WAL
// demotes that shard — and only that shard — with a machine-readable
// cause, and the scrubber's circuit breaker paces the repair attempts.
// ---------------------------------------------------------------------

TEST_F(ShardTest, SnapshotBitRotQuarantinesOnlyThatShard) {
  int victim = -1;
  {
    ShardedCatalogService service(&catalog_, Options(3, true));
    Seed(service);
    EXPECT_EQ(service.CheckpointAll(), 3);
    victim = service.router().RouteView(view_defs_[0]);
  }
  ShardedCatalogService reborn(&catalog_, Options(3, true));
  // Rot strikes after the store is attached but before recovery reads
  // it — the recovery path, not the open path, must catch it.
  FlipByte(reborn.shard_store(victim)->snapshot_path(), -5);

  ThreadPool pool(2);
  const ShardRecoveryReport report = reborn.RecoverAll(&pool);
  EXPECT_FALSE(report.all_healthy());
  EXPECT_EQ(report.num_quarantined(), 1);
  EXPECT_EQ(reborn.shard_health(victim), ShardHealth::kQuarantined);
  EXPECT_EQ(reborn.shard_quarantine_cause(victim),
            ShardQuarantineCause::kSnapshotCorrupt);
  for (int s = 0; s < reborn.num_shards(); ++s) {
    if (s == victim) continue;
    EXPECT_EQ(reborn.shard_health(s), ShardHealth::kHealthy) << s;
  }
  // Healthy shards answer probes; the quarantined shard's views are the
  // only ones missing.
  for (const SpjgQuery& query : queries_) {
    QueryContext ctx;
    for (const Substitute& sub : reborn.FindSubstitutes(query, ctx)) {
      EXPECT_NE(reborn.ShardOfId(sub.view_id), victim);
    }
  }
  std::string error;
  EXPECT_TRUE(ValidateShardRecoveryReportJson(report.ToJson(), &error))
      << error;
}

TEST_F(ShardTest, WalBitRotQuarantinesWhenTruncationIsSuspicious) {
  int victim = -1;
  {
    ShardedCatalogService service(&catalog_, Options(3, true));
    Seed(service);  // no checkpoint: the views live in the WALs
    victim = service.router().RouteView(view_defs_[0]);
  }
  ShardedCatalogOptions options = Options(3, true);
  options.quarantine_on_wal_truncation = true;
  ShardedCatalogService reborn(&catalog_, options);
  // Flip a byte inside the body of the last committed record.
  FlipByte(reborn.shard_store(victim)->wal_path(), -3);

  const ShardRecoveryReport report = reborn.RecoverAll();
  EXPECT_EQ(reborn.shard_health(victim), ShardHealth::kQuarantined);
  EXPECT_EQ(reborn.shard_quarantine_cause(victim),
            ShardQuarantineCause::kWalCorrupt);
  for (const auto& outcome : report.shards) {
    if (outcome.shard != victim) {
      EXPECT_EQ(outcome.health, ShardHealth::kHealthy) << outcome.shard;
      continue;
    }
    // CRC caught the flip: the tail was reported torn with a nonzero
    // byte count, and the detail carries it.
    EXPECT_TRUE(outcome.report.wal_tail_torn);
    EXPECT_GT(outcome.report.wal_bytes_truncated, 0);
    EXPECT_NE(outcome.detail.find("truncated"), std::string::npos)
        << outcome.detail;
  }
}

TEST_F(ShardTest, WalBitRotIsRepairedNotFatalByDefault) {
  {
    ShardedCatalogService service(&catalog_, Options(3, true));
    Seed(service);
  }
  ShardedCatalogService reborn(&catalog_, Options(3, true));
  int victim = reborn.router().RouteView(view_defs_[0]);
  FlipByte(reborn.shard_store(victim)->wal_path(), -3);
  // Default policy: a torn tail is the expected crash artifact —
  // recovery repairs it and the shard serves (minus the lost record).
  const ShardRecoveryReport report = reborn.RecoverAll();
  EXPECT_TRUE(report.all_healthy()) << report.ToJson();
}

TEST_F(ShardTest, ScrubBackoffDoublesUntilTheRotIsGone) {
  MetricsRegistry registry;
  int victim = -1;
  {
    ShardedCatalogService service(&catalog_, Options(2, true));
    Seed(service);
    EXPECT_EQ(service.CheckpointAll(), 2);
    victim = service.router().RouteView(view_defs_[0]);
  }
  ShardedCatalogOptions options = Options(2, true);
  options.observe.mode = ObserveMode::kCountersOnly;
  options.observe.registry = &registry;
  ShardedCatalogService reborn(&catalog_, options);
  const std::string snapshot = reborn.shard_store(victim)->snapshot_path();
  FlipByte(snapshot, -5);
  ASSERT_FALSE(reborn.RecoverAll().all_healthy());
  ASSERT_EQ(reborn.shard_quarantine_cause(victim),
            ShardQuarantineCause::kSnapshotCorrupt);

  // While the rot persists, attempts follow the circuit breaker:
  // tick 1 attempts (window 1 -> 2), ticks 2-3 skip, tick 4 attempts
  // (window -> 4), ticks 5-8 skip. 8 ticks = exactly 2 attempts.
  for (int tick = 0; tick < 8; ++tick) {
    EXPECT_EQ(reborn.ScrubTick(), 0);
  }
  EXPECT_EQ(registry.CounterValue("mvopt_shard_scrub_attempts_total"),
            std::optional<int64_t>(2));
  EXPECT_EQ(registry.CounterValue("mvopt_shard_readmissions_total"),
            std::optional<int64_t>(0));
  EXPECT_EQ(reborn.shard_health(victim), ShardHealth::kQuarantined);

  // Un-rot the snapshot (XOR is its own inverse); the next due attempt
  // readmits without a restart.
  FlipByte(snapshot, -5);
  int readmitted = 0;
  for (int tick = 0; tick < 8 && readmitted == 0; ++tick) {
    readmitted = reborn.ScrubTick();
  }
  EXPECT_EQ(readmitted, 1);
  EXPECT_EQ(reborn.shard_health(victim), ShardHealth::kHealthy);
  EXPECT_EQ(registry.CounterValue("mvopt_shard_readmissions_total"),
            std::optional<int64_t>(1));
}

// ---------------------------------------------------------------------
// Scrub backoff arithmetic: the window doubles, saturates at the
// configured max, and never overflows int however many consecutive
// failures accumulate. Regression: the original multiply-then-clamp
// doubled first, so a long failure run with a large configured max
// shifted the window past INT_MAX (signed overflow; in practice a
// negative window that disabled the breaker).
// ---------------------------------------------------------------------

TEST_F(ShardTest, ScrubBackoffWindowSaturatesWithoutOverflow) {
  using S = ShardedCatalogService;
  // Plain doubling within the window.
  EXPECT_EQ(S::NextScrubBackoffWindow(0, 1, 64), 1);
  EXPECT_EQ(S::NextScrubBackoffWindow(1, 1, 64), 2);
  EXPECT_EQ(S::NextScrubBackoffWindow(2, 1, 64), 4);
  EXPECT_EQ(S::NextScrubBackoffWindow(32, 1, 64), 64);
  // Saturation: at max it stays at max.
  EXPECT_EQ(S::NextScrubBackoffWindow(64, 1, 64), 64);
  // Doubling past max clamps (odd max included).
  EXPECT_EQ(S::NextScrubBackoffWindow(40, 1, 64), 64);
  EXPECT_EQ(S::NextScrubBackoffWindow(33, 1, 65), 65);
  // Degenerate configs are repaired, not UB.
  EXPECT_EQ(S::NextScrubBackoffWindow(0, 0, 0), 1);
  EXPECT_EQ(S::NextScrubBackoffWindow(0, 100, 10), 10);

  // 64 consecutive failures with the max wide open: the window must
  // stay positive and monotone, and saturate instead of overflowing.
  const int kMax = std::numeric_limits<int>::max();
  int window = 0;
  for (int failure = 0; failure < 64; ++failure) {
    const int next = S::NextScrubBackoffWindow(window, 1, kMax);
    ASSERT_GT(next, 0) << "failure " << failure
                       << ": window overflowed from " << window;
    ASSERT_GE(next, window) << "failure " << failure;
    window = next;
  }
  EXPECT_EQ(window, kMax);
}

// ---------------------------------------------------------------------
// Composite-id overflow: near the top of the ViewId range the checked
// codec refuses to compose, and AddView rejects the registration
// instead of handing out a wrapped (aliased) global id.
// ---------------------------------------------------------------------

TEST_F(ShardTest, ComposeGlobalIdRejectsNearIdTypeMax) {
  ShardedCatalogService service(&catalog_, Options(5, false));
  constexpr ViewId kMax = std::numeric_limits<ViewId>::max();
  // In-range ids compose and round-trip.
  const ViewId safe_local = kMax / 5 - 1;
  auto composed = service.ComposeGlobalId(3, safe_local);
  ASSERT_TRUE(composed.has_value());
  EXPECT_EQ(service.ShardOfId(*composed), 3);
  EXPECT_EQ(service.LocalId(*composed), safe_local);
  // The largest local id that still fits for each shard composes; one
  // past it does not.
  for (int shard = 0; shard < 5; ++shard) {
    const ViewId largest = (kMax - shard) / 5;
    EXPECT_TRUE(service.ComposeGlobalId(shard, largest).has_value())
        << "shard " << shard;
    EXPECT_FALSE(service.ComposeGlobalId(shard, largest + 1).has_value())
        << "shard " << shard;
  }
  // Nonsense inputs are refusals, not UB.
  EXPECT_FALSE(service.ComposeGlobalId(0, -1).has_value());
  EXPECT_FALSE(service.ComposeGlobalId(-1, 0).has_value());
  EXPECT_FALSE(service.ComposeGlobalId(5, 0).has_value());
}

// ---------------------------------------------------------------------
// Parallel recovery and the ShardRecoveryReport JSON contract.
// ---------------------------------------------------------------------

TEST_F(ShardTest, ParallelRecoveryMatchesSerialRecovery) {
  {
    ShardedCatalogService service(&catalog_, Options(4, true));
    Seed(service);
    EXPECT_EQ(service.CheckpointAll(), 4);
  }
  ShardedCatalogService serial(&catalog_, Options(4, true));
  const ShardRecoveryReport serial_report = serial.RecoverAll(nullptr);
  ASSERT_TRUE(serial_report.all_healthy()) << serial_report.ToJson();

  ShardedCatalogService parallel(&catalog_, Options(4, true));
  ThreadPool pool(3);
  const ShardRecoveryReport parallel_report = parallel.RecoverAll(&pool);
  ASSERT_TRUE(parallel_report.all_healthy()) << parallel_report.ToJson();

  for (const SpjgQuery& query : queries_) {
    EXPECT_EQ(ProbeNames(parallel, query), ProbeNames(serial, query));
  }
}

TEST_F(ShardTest, RecoveryReportJsonValidatesAndRejectsCorruption) {
  // A mixed report, built by hand so it covers both health states and a
  // detail string that needs JSON escaping.
  ShardRecoveryReport report;
  report.shards.resize(2);
  report.shards[0].shard = 0;
  report.shards[0].recovery_seconds = 0.001;
  report.shards[1].shard = 1;
  report.shards[1].health = ShardHealth::kQuarantined;
  report.shards[1].cause = ShardQuarantineCause::kSnapshotCorrupt;
  report.shards[1].detail = "snapshot: corrupt record at offset 42 \"tail\"";
  EXPECT_FALSE(report.all_healthy());
  EXPECT_EQ(report.num_quarantined(), 1);
  const std::string json = report.ToJson();

  std::string error;
  EXPECT_TRUE(ValidateShardRecoveryReportJson(json, &error)) << error;

  // Truncation breaks JSON structure.
  EXPECT_FALSE(ValidateShardRecoveryReportJson(
      json.substr(0, json.size() / 2), &error));
  // An unknown enumerator name is structurally valid JSON but violates
  // the machine-readable contract.
  std::string bogus = json;
  const size_t at = bogus.find("\"healthy\"");
  ASSERT_NE(at, std::string::npos);
  bogus.replace(at, 9, "\"wounded\"");
  EXPECT_FALSE(ValidateShardRecoveryReportJson(bogus, &error));
  // A missing mandatory key fails too.
  std::string keyless = json;
  const size_t key = keyless.find("\"num_shards\"");
  ASSERT_NE(key, std::string::npos);
  keyless.replace(key, 12, "\"n_shards\"");
  EXPECT_FALSE(ValidateShardRecoveryReportJson(keyless, &error));
}

// ---------------------------------------------------------------------
// Shard metric families.
// ---------------------------------------------------------------------

TEST_F(ShardTest, MetricsTrackQuarantineScrubAndPartialProbes) {
  MetricsRegistry registry;
  ShardedCatalogOptions options = Options(3, true);
  options.observe.mode = ObserveMode::kCountersOnly;
  options.observe.registry = &registry;
  ShardedCatalogService service(&catalog_, options);
  ThreadPool pool(2);
  ASSERT_TRUE(service.RecoverAll(&pool).all_healthy());
  Seed(service);

  // Recovery latency: one labeled histogram per shard, each with one
  // sample from the RecoverAll above.
  for (int s = 0; s < 3; ++s) {
    Histogram* h = registry.FindOrCreateHistogram(
        "mvopt_shard_recovery_latency_seconds", "",
        {{"shard", std::to_string(s)}});
    EXPECT_EQ(h->count(), 1) << s;
  }

  EXPECT_EQ(registry.GaugeValue("mvopt_shard_quarantined"),
            std::optional<int64_t>(0));
  service.ForceQuarantine(1, ShardQuarantineCause::kForced, "test");
  EXPECT_EQ(registry.GaugeValue("mvopt_shard_quarantined"),
            std::optional<int64_t>(1));

  // A probe routed through the quarantined shard counts as partial.
  const int64_t base =
      registry.CounterValue("mvopt_shard_partial_probes_total").value_or(0);
  for (const SpjgQuery& query : queries_) {
    QueryContext ctx;
    (void)service.FindSubstitutes(query, ctx);
  }
  EXPECT_GT(registry.CounterValue("mvopt_shard_partial_probes_total")
                .value_or(0),
            base);

  EXPECT_EQ(service.ScrubTick(), 1);
  EXPECT_EQ(registry.GaugeValue("mvopt_shard_quarantined"),
            std::optional<int64_t>(0));
  EXPECT_EQ(registry.CounterValue("mvopt_shard_scrub_attempts_total"),
            std::optional<int64_t>(1));
  EXPECT_EQ(registry.CounterValue("mvopt_shard_readmissions_total"),
            std::optional<int64_t>(1));
  EXPECT_EQ(registry.CounterValue("mvopt_shard_scrub_repairs_total"),
            std::optional<int64_t>(1));

  // Both exposition formats stay well-formed with the shard families in.
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(registry.WritePrometheus(), &error))
      << error;
  EXPECT_TRUE(ValidateJson(registry.WriteJson(), &error)) << error;
  EXPECT_NE(registry.WritePrometheus().find("mvopt_shard_quarantined"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Admission-layer partial-catalog policy: kShed turns a would-be
// degraded answer into a retryable shed; kDegrade (default) serves it.
// ---------------------------------------------------------------------

class ShardServingTest : public ShardTest {
 protected:
  // Finds a query that routes through `victim` (advisory expected) and
  // one that does not (must stay admitted), or skips.
  void PickQueries(ShardedCatalogService& service, int victim,
                   const SpjgQuery** routed, const SpjgQuery** unrouted) {
    *routed = *unrouted = nullptr;
    for (const SpjgQuery& query : queries_) {
      const std::vector<int> shards = service.RouteShards(query);
      const bool hits =
          std::binary_search(shards.begin(), shards.end(), victim);
      if (hits && *routed == nullptr) *routed = &query;
      if (!hits && *unrouted == nullptr) *unrouted = &query;
      if (*routed != nullptr && *unrouted != nullptr) return;
    }
  }
};

TEST_F(ShardServingTest, ShedPolicyRejectsPartialCatalogQueries) {
  ShardedCatalogService sharded(&catalog_, Options(5, false));
  Seed(sharded);
  const int victim = 3;
  const SpjgQuery* routed = nullptr;
  const SpjgQuery* unrouted = nullptr;
  PickQueries(sharded, victim, &routed, &unrouted);
  if (routed == nullptr || unrouted == nullptr) {
    GTEST_SKIP() << "workload lacks a routed/unrouted query pair";
  }

  ServingOptions options;
  options.num_workers = 1;
  options.partial_catalog = PartialCatalogPolicy::kShed;
  options.partial_catalog_retry_seconds = 0.125;
  options.partial_catalog_probe = [&sharded](const SpjgQuery& query) {
    return sharded.AnyRoutedUnhealthy(query);
  };
  ServingService service(&catalog_, &sharded, options);

  // All shards healthy: both queries admitted.
  ServeRequest req;
  req.query = *routed;
  EXPECT_EQ(service.Submit(req)->Wait().outcome, AdmissionOutcome::kAdmitted);

  sharded.ForceQuarantine(victim, ShardQuarantineCause::kForced, "test");
  const ServeResult shed = service.Submit(req)->Wait();
  EXPECT_EQ(shed.outcome, AdmissionOutcome::kShedPartialCatalog);
  EXPECT_TRUE(IsRetryableOutcome(shed.outcome));
  EXPECT_DOUBLE_EQ(shed.retry_after_seconds, 0.125);

  // A query that never routes to the quarantined shard is untouched.
  ServeRequest clean;
  clean.query = *unrouted;
  EXPECT_EQ(service.Submit(clean)->Wait().outcome,
            AdmissionOutcome::kAdmitted);
  service.Drain();
}

TEST_F(ShardServingTest, DegradePolicyServesPartialAnswers) {
  ShardedCatalogService sharded(&catalog_, Options(5, false));
  Seed(sharded);
  const int victim = 3;
  const SpjgQuery* routed = nullptr;
  const SpjgQuery* unrouted = nullptr;
  PickQueries(sharded, victim, &routed, &unrouted);
  if (routed == nullptr) GTEST_SKIP() << "workload lacks a routed query";
  sharded.ForceQuarantine(victim, ShardQuarantineCause::kForced, "test");

  ServingOptions options;
  options.num_workers = 1;
  // Default policy (kDegrade): the probe is wired but only consulted
  // under kShed — partial answers flow through with the advisory.
  options.partial_catalog_probe = [&sharded](const SpjgQuery& query) {
    return sharded.AnyRoutedUnhealthy(query);
  };
  ServingService service(&catalog_, &sharded, options);
  ServeRequest req;
  req.query = *routed;
  const ServeResult result = service.Submit(req)->Wait();
  EXPECT_EQ(result.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(result.has_plan);
  service.Drain();
}

}  // namespace
}  // namespace mvopt
