// Multi-threaded stress for the lock-free probe path (DESIGN.md §15):
// probes racing snapshot publication, epoch-based reclamation under
// churn, lifecycle quarantine/readmission flapping mid-probe, exact
// stats and per-query deadlines under concurrent probes. Run under
// MVOPT_SANITIZE=thread in CI — the interesting failures here are
// use-after-free of a retired snapshot and torn probe state, which TSan
// and ASan surface even when the assertions below stay green.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch_reclaim.h"
#include "common/query_context.h"
#include "index/matching_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

constexpr int kNumViews = 60;
constexpr int kInitialViews = 20;
constexpr int kNumQueries = 20;
constexpr int kNumProbers = 4;

class SnapshotStressTest : public ::testing::Test {
 protected:
  SnapshotStressTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    tpch::WorkloadGenerator view_gen(&catalog_, 77);
    for (int i = 0; i < kNumViews; ++i) {
      view_defs_.push_back(view_gen.GenerateView());
    }
    tpch::WorkloadGenerator query_gen(&catalog_, 77 + 555);
    for (int i = 0; i < kNumQueries; ++i) {
      queries_.push_back(query_gen.GenerateQuery());
    }
  }

  void AddViewRange(MatchingService* service, int begin, int end) {
    for (int i = begin; i < end; ++i) {
      std::string error;
      ASSERT_NE(
          service->AddView("v" + std::to_string(i), view_defs_[i], &error),
          nullptr)
          << error;
    }
  }

  std::vector<ViewId> Signature(const std::vector<Substitute>& subs) {
    std::vector<ViewId> ids;
    for (const Substitute& s : subs) ids.push_back(s.view_id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> view_defs_;
  std::vector<SpjgQuery> queries_;
};

// Probes on the lock-free path race a writer that publishes a new
// snapshot per AddView (40 publications, each retiring a predecessor a
// prober may still be standing on). After the churn, answers must equal
// a serial reference and every retired generation must have drained.
TEST_F(SnapshotStressTest, ProbesRacePublicationAndReclamation) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kInitialViews);

  std::atomic<int64_t> probes{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    AddViewRange(&service, kInitialViews, kNumViews);
    writer_done.store(true);
  });
  std::vector<std::thread> probers;
  for (int t = 0; t < kNumProbers; ++t) {
    probers.emplace_back([&, t] {
      // Keep probing until the writer finishes so publication genuinely
      // overlaps pinned probes for the whole registration sweep.
      do {
        for (size_t q = t; q < queries_.size(); q += kNumProbers) {
          QueryContext ctx;
          for (const Substitute& s : service.FindSubstitutes(queries_[q], ctx)) {
            EXPECT_NE(s.view_id, kInvalidViewId);
          }
          QueryContext uctx;
          (void)service.FindUnionSubstitute(queries_[q], uctx);
          probes.fetch_add(1);
        }
      } while (!writer_done.load());
    });
  }
  writer.join();
  for (std::thread& p : probers) p.join();
  EXPECT_GT(probes.load(), 0);
  EXPECT_EQ(service.views().num_views(), kNumViews);

  // Quiescent: one more publication runs the opportunistic reclaim with
  // no pins outstanding — every retired snapshot must be gone.
  std::string error;
  ASSERT_NE(service.AddView("tail", view_defs_[0], &error), nullptr) << error;
  EXPECT_EQ(service.retired_snapshots(), 0);

  MatchingService reference(&catalog_);
  AddViewRange(&reference, 0, kNumViews);
  ASSERT_NE(reference.AddView("tail", view_defs_[0], &error), nullptr)
      << error;
  for (size_t q = 0; q < queries_.size(); ++q) {
    QueryContext ctx;
    EXPECT_EQ(Signature(service.FindSubstitutes(queries_[q], ctx)),
              Signature(reference.FindSubstitutes(queries_[q], ctx)))
        << "query " << q;
  }
}

// Lifecycle flapping — checksum quarantine, revalidation ticks and
// forced readmission, each a clone-and-publish — races probes. A probe
// lands on whichever generation was current when it pinned, so answers
// may include or exclude the flapping views, but must never crash,
// return an invalid id, or observe a half-applied transition.
TEST_F(SnapshotStressTest, LifecycleReadmissionRacesProbes) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kNumViews);

  std::atomic<bool> lifecycle_done{false};
  std::thread lifecycle([&] {
    for (int round = 0; round < 12; ++round) {
      for (ViewId id = round % 3; id < 9; id += 3) {
        (void)service.ReportChecksumMismatch(id);
      }
      (void)service.RevalidationTick(
          [](const ViewDefinition&) { return true; });
      for (ViewId id = 0; id < 9; ++id) (void)service.ReadmitView(id);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    lifecycle_done.store(true);
  });
  std::vector<std::thread> probers;
  for (int t = 0; t < kNumProbers; ++t) {
    probers.emplace_back([&, t] {
      do {
        for (size_t q = t; q < queries_.size(); q += kNumProbers) {
          QueryContext ctx;
          for (const Substitute& s : service.FindSubstitutes(queries_[q], ctx)) {
            EXPECT_NE(s.view_id, kInvalidViewId);
            EXPECT_LT(s.view_id, kNumViews);
          }
        }
      } while (!lifecycle_done.load());
    });
  }
  lifecycle.join();
  for (std::thread& p : probers) p.join();

  // Settle: everything readmitted, answers equal an untouched reference.
  for (ViewId id = 0; id < 9; ++id) (void)service.ReadmitView(id);
  MatchingService reference(&catalog_);
  AddViewRange(&reference, 0, kNumViews);
  for (size_t q = 0; q < queries_.size(); ++q) {
    QueryContext ctx;
    EXPECT_EQ(Signature(service.FindSubstitutes(queries_[q], ctx)),
              Signature(reference.FindSubstitutes(queries_[q], ctx)))
        << "query " << q;
  }
}

// Stats determinism on the snapshot path: kRounds concurrent passes by
// plain prober threads must land on exactly kRounds times the serial
// single-threaded counters — the probe-atomic ProbeDelta commit may not
// lose or double-count under the lock-free pinning.
TEST_F(SnapshotStressTest, ConcurrentProbeStatsAreExactlyNTimesSerial) {
  MatchingService::Options options;
  options.use_filter_tree = false;  // all views candidates: long match stage
  MatchingService service(&catalog_, options);
  AddViewRange(&service, 0, kNumViews);

  constexpr int kRounds = 8;
  std::vector<std::thread> probers;
  for (int t = 0; t < kNumProbers; ++t) {
    probers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumProbers) {
          QueryContext ctx;
          (void)service.FindSubstitutes(queries_[q], ctx);
        }
      }
    });
  }
  for (std::thread& p : probers) p.join();

  MatchingService reference(&catalog_, options);
  AddViewRange(&reference, 0, kNumViews);
  for (const SpjgQuery& q : queries_) {
    QueryContext ctx;
    (void)reference.FindSubstitutes(q, ctx);
  }
  const MatchingStats expected = reference.stats();
  const MatchingStats got = service.stats();
  EXPECT_EQ(got.invocations, expected.invocations * kRounds);
  EXPECT_EQ(got.candidates, expected.candidates * kRounds);
  EXPECT_EQ(got.full_tests, expected.full_tests * kRounds);
  EXPECT_EQ(got.substitutes, expected.substitutes * kRounds);
  EXPECT_EQ(got.match_failures, expected.match_failures * kRounds);
  EXPECT_EQ(got.budget_truncations, expected.budget_truncations * kRounds);
  EXPECT_EQ(got.quarantine_skips, expected.quarantine_skips * kRounds);
  EXPECT_EQ(got.stale_tolerated, expected.stale_tolerated * kRounds);
  EXPECT_EQ(got.compiled_hits, expected.compiled_hits * kRounds);
  EXPECT_EQ(got.compiled_fallbacks, expected.compiled_fallbacks * kRounds);
  for (size_t i = 0; i < got.rejects.size(); ++i) {
    EXPECT_EQ(got.rejects[i], expected.rejects[i] * kRounds) << "reason " << i;
  }
}

// Budgets are per query: half the probers run with an already-expired
// deadline, the rest ungoverned, all against one service at once. The
// expired ones must come back empty and exhausted, the ungoverned ones
// must still get full answers — one query's deadline must never cut
// another's probe short.
TEST_F(SnapshotStressTest, DeadlinesStayIsolatedPerConcurrentProbe) {
  MatchingService::Options options;
  options.use_filter_tree = false;
  MatchingService service(&catalog_, options);
  AddViewRange(&service, 0, kNumViews);
  std::vector<std::vector<ViewId>> expected;
  {
    MatchingService reference(&catalog_, options);
    AddViewRange(&reference, 0, kNumViews);
    for (const SpjgQuery& q : queries_) {
      QueryContext ctx;
      expected.push_back(Signature(reference.FindSubstitutes(q, ctx)));
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kNumProbers; ++t) {
    const bool expired = (t % 2 == 0);
    threads.emplace_back([&, t, expired] {
      for (int round = 0; round < 6; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumProbers) {
          QueryContext ctx;
          if (expired) {
            ctx.EmplaceBudget().set_deadline(QueryBudget::Clock::now() -
                                             std::chrono::milliseconds(1));
          }
          std::vector<Substitute> subs =
              service.FindSubstitutes(queries_[q], ctx);
          if (expired) {
            EXPECT_TRUE(subs.empty());
            EXPECT_TRUE(ctx.exhausted());
          } else {
            EXPECT_EQ(Signature(subs), expected[q]) << "query " << q;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// The reclamation safety property in isolation: a block reachable
// through the published pointer is never freed while any reader holds a
// pin taken before its retirement. The canary is scribbled in the
// deleter, so a premature free shows up as a poisoned read (and as
// heap-use-after-free under ASan/TSan).
TEST_F(SnapshotStressTest, NoBlockFreedWhilePinned) {
  constexpr uint64_t kMagic = 0x5afe5afe5afe5afeull;
  constexpr uint64_t kPoison = 0xdeaddeaddeaddeadull;
  struct Node {
    explicit Node(uint64_t v) : canary(v) {}
    ~Node() { canary.store(kPoison, std::memory_order_relaxed); }
    std::atomic<uint64_t> canary;
  };

  EpochDomain domain;
  std::atomic<Node*> live{new Node(kMagic)};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kNumProbers; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        EpochPin pin(domain);
        Node* node = live.load(std::memory_order_acquire);
        EXPECT_EQ(node->canary.load(std::memory_order_relaxed), kMagic);
        reads.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      Node* next = new Node(kMagic);
      Node* old = live.exchange(next, std::memory_order_acq_rel);
      domain.Retire(old);
      if (i % 64 == 0) std::this_thread::yield();
    }
    stop.store(true);
  });
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_GT(reads.load(), 0);
  delete live.load();
  // Readers gone: the domain can drain everything still retired.
  domain.TryReclaim();
  EXPECT_EQ(domain.retired_count(), 0);
}

}  // namespace
}  // namespace mvopt
