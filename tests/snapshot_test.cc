// Immutable-snapshot probe path (DESIGN.md §15): EpochDomain unit
// semantics, snapshot publication/reclamation bookkeeping, and the
// cross-check the probe path is held to — probes running concurrently
// against one service return results, ordering and stats byte-identical
// to the same probes run serially against a reference service.

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch_reclaim.h"
#include "common/failpoint.h"
#include "common/query_context.h"
#include "index/matching_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

// ---------------------------------------------------------------------
// EpochDomain.
// ---------------------------------------------------------------------

/// Deletion-observable payload for reclamation tests.
struct Tracked {
  explicit Tracked(std::atomic<int>* freed) : freed_(freed) {}
  ~Tracked() { freed_->fetch_add(1); }
  std::atomic<int>* freed_;
};

TEST(EpochDomainTest, RetireWithoutPinsFreesImmediately) {
  std::atomic<int> freed{0};
  EpochDomain domain;
  domain.Retire(new Tracked(&freed));
  // Retire runs an opportunistic reclaim; with no pin active the object
  // must not linger.
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(domain.retired_count(), 0);
}

TEST(EpochDomainTest, ActivePinBlocksReclamationUntilUnpin) {
  std::atomic<int> freed{0};
  EpochDomain domain;
  {
    EpochPin pin(domain);
    domain.Retire(new Tracked(&freed));
    domain.Retire(new Tracked(&freed));
    EXPECT_EQ(freed.load(), 0) << "freed while a pin could reference it";
    EXPECT_EQ(domain.retired_count(), 2);
    EXPECT_EQ(domain.TryReclaim(), 0u);
  }
  // Pin released: everything retired under it is now reclaimable.
  EXPECT_EQ(domain.TryReclaim(), 2u);
  EXPECT_EQ(freed.load(), 2);
  EXPECT_EQ(domain.retired_count(), 0);
}

TEST(EpochDomainTest, PinTakenAfterRetireDoesNotResurrectTheBlock) {
  // A pin taken AFTER a retirement holds a newer epoch, so it must not
  // keep that older retired object alive.
  std::atomic<int> freed{0};
  EpochDomain domain;
  {
    EpochPin earlier(domain);
    domain.Retire(new Tracked(&freed));
    EXPECT_EQ(freed.load(), 0);
    {
      EpochPin later(domain);
      earlier.Unpin();
      // Only the newer pin remains; its epoch is past the stamp.
      EXPECT_EQ(domain.TryReclaim(), 1u);
      EXPECT_EQ(freed.load(), 1);
    }
  }
}

TEST(EpochDomainTest, EpochAdvancesOncePerRetirement) {
  EpochDomain domain;
  const uint64_t before = domain.current_epoch();
  std::atomic<int> freed{0};
  domain.Retire(new Tracked(&freed));
  domain.Retire(new Tracked(&freed));
  EXPECT_EQ(domain.current_epoch(), before + 2);
}

TEST(EpochDomainTest, DestructorDrainsEverythingStillRetired) {
  std::atomic<int> freed{0};
  {
    EpochDomain domain;
    {
      EpochPin pin(domain);
      domain.Retire(new Tracked(&freed));
    }
    // No TryReclaim after the unpin: the destructor must drain.
    EXPECT_EQ(freed.load(), 0);
  }
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochDomainTest, ScopedPinEarlyUnpinReleasesTheSlot) {
  EpochDomain domain;
  std::atomic<int> freed{0};
  EpochPin pin(domain);
  pin.Unpin();
  domain.Retire(new Tracked(&freed));
  EXPECT_EQ(freed.load(), 1) << "early Unpin left the slot pinned";
}

// ---------------------------------------------------------------------
// MatchingService snapshot lifecycle.
// ---------------------------------------------------------------------

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    tpch::WorkloadGenerator view_gen(&catalog_, 31);
    for (int i = 0; i < 24; ++i) view_defs_.push_back(view_gen.GenerateView());
    tpch::WorkloadGenerator query_gen(&catalog_, 31 + 555);
    for (int i = 0; i < 20; ++i) queries_.push_back(query_gen.GenerateQuery());
    // Half the queries double as views so substitution definitely fires.
    for (size_t i = 0; i < queries_.size(); i += 2) {
      view_defs_.push_back(queries_[i]);
    }
  }

  void TearDown() override { FailpointRegistry::Instance().DisableAll(); }

  void SeedViews(MatchingService* service) {
    std::string error;
    for (size_t i = 0; i < view_defs_.size(); ++i) {
      ASSERT_NE(service->AddView("v" + std::to_string(i), view_defs_[i],
                                 &error),
                nullptr)
          << error;
    }
  }

  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> view_defs_;
  std::vector<SpjgQuery> queries_;
};

/// Structural fingerprint of one substitute, position-sensitive: the
/// cross-check compares sequences of these, so ordering differences
/// between concurrent and serial probes fail loudly.
using SubFp = std::tuple<ViewId, uint64_t, size_t, size_t, size_t, size_t,
                         bool>;

SubFp Fingerprint(const Substitute& s) {
  return {s.view_id,          s.staleness_lag,  s.backjoins.size(),
          s.predicates.size(), s.outputs.size(), s.group_by.size(),
          s.needs_aggregation};
}

std::vector<SubFp> Fingerprints(const std::vector<Substitute>& subs) {
  std::vector<SubFp> out;
  out.reserve(subs.size());
  for (const Substitute& s : subs) out.push_back(Fingerprint(s));
  return out;
}

/// `got` must equal `n` copies of `one` merged: n concurrent passes of
/// the probes `one` counts, with no increment lost or double-counted.
void ExpectStatsScaled(const MatchingStats& got, const MatchingStats& one,
                       int n) {
  MatchingStats want;
  for (int i = 0; i < n; ++i) want.MergeFrom(one);
  EXPECT_EQ(got.invocations, want.invocations);
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.full_tests, want.full_tests);
  EXPECT_EQ(got.substitutes, want.substitutes);
  EXPECT_EQ(got.match_failures, want.match_failures);
  EXPECT_EQ(got.budget_truncations, want.budget_truncations);
  EXPECT_EQ(got.quarantine_skips, want.quarantine_skips);
  EXPECT_EQ(got.stale_tolerated, want.stale_tolerated);
  EXPECT_EQ(got.compiled_hits, want.compiled_hits);
  EXPECT_EQ(got.compiled_fallbacks, want.compiled_fallbacks);
  EXPECT_EQ(got.cross_check_mismatches, want.cross_check_mismatches);
  for (size_t i = 0; i < got.rejects.size(); ++i) {
    EXPECT_EQ(got.rejects[i], want.rejects[i]) << "reject reason " << i;
  }
}

/// One query's answers: the FindSubstitutes sequence and the union
/// legs (empty when no union substitute exists).
struct ProbeAnswer {
  std::vector<SubFp> subs;
  bool has_union = false;
  std::vector<SubFp> union_legs;
};

ProbeAnswer Probe(MatchingService* service, const SpjgQuery& query) {
  ProbeAnswer answer;
  QueryContext ctx;
  answer.subs = Fingerprints(service->FindSubstitutes(query, ctx));
  QueryContext uctx;
  const auto u = service->FindUnionSubstitute(query, uctx);
  answer.has_union = u.has_value();
  if (u.has_value()) answer.union_legs = Fingerprints(u->legs);
  return answer;
}

// The acceptance cross-check: identical registrations, one service
// probed serially and the other by kProbers threads at once, each thread
// sweeping every query from its own starting offset so different queries
// overlap. Every thread's answer to every query must equal the serial
// one (structural fingerprints, ordering included, for FindSubstitutes
// and FindUnionSubstitute), and the concurrent service's stats must be
// exactly kProbers times the serial service's — before and after
// lifecycle transitions (quarantine + readmission). Any probe-path state
// shared between concurrent probes shows up here as a differing answer
// or a lost count (and as a race under TSan).
TEST_F(SnapshotTest, ConcurrentProbesMatchASerialReference) {
  constexpr int kProbers = 4;
  MatchingService reference(&catalog_);
  MatchingService shared(&catalog_);
  SeedViews(&reference);
  SeedViews(&shared);

  auto cross_check = [&] {
    std::vector<ProbeAnswer> want;
    for (const SpjgQuery& q : queries_) want.push_back(Probe(&reference, q));
    ASSERT_GT(reference.stats().substitutes, 0) << "nothing to compare";

    const size_t n = queries_.size();
    std::vector<std::vector<ProbeAnswer>> got(
        kProbers, std::vector<ProbeAnswer>(n));
    std::atomic<int> ready{0};
    std::vector<std::thread> probers;
    for (int t = 0; t < kProbers; ++t) {
      probers.emplace_back([&, t] {
        // Start together so the sweeps overlap.
        ready.fetch_add(1);
        while (ready.load() < kProbers) std::this_thread::yield();
        for (size_t k = 0; k < n; ++k) {
          const size_t qi = (k + static_cast<size_t>(t) * 5) % n;
          got[t][qi] = Probe(&shared, queries_[qi]);
        }
      });
    }
    for (std::thread& p : probers) p.join();

    for (int t = 0; t < kProbers; ++t) {
      for (size_t qi = 0; qi < n; ++qi) {
        EXPECT_EQ(got[t][qi].subs, want[qi].subs)
            << "prober " << t << " query " << qi;
        EXPECT_EQ(got[t][qi].has_union, want[qi].has_union)
            << "prober " << t << " query " << qi;
        EXPECT_EQ(got[t][qi].union_legs, want[qi].union_legs)
            << "prober " << t << " query " << qi;
      }
    }
    ExpectStatsScaled(shared.stats(), reference.stats(), kProbers);
  };

  cross_check();

  // Lifecycle transition on both sides: sideline one view (republishes
  // without it), re-check, readmit (republishes with it), re-check.
  ASSERT_TRUE(reference.ReportChecksumMismatch(1));
  ASSERT_TRUE(shared.ReportChecksumMismatch(1));
  reference.ResetStats();
  shared.ResetStats();
  cross_check();

  ASSERT_TRUE(reference.ReadmitView(1));
  ASSERT_TRUE(shared.ReadmitView(1));
  reference.ResetStats();
  shared.ResetStats();
  cross_check();
}

TEST_F(SnapshotTest, VersionBumpsOnWritesNotProbes) {
  MatchingService service(&catalog_);
  EXPECT_EQ(service.snapshot_version(), 0u);
  std::string error;
  ASSERT_NE(service.AddView("v0", view_defs_[0], &error), nullptr) << error;
  EXPECT_EQ(service.snapshot_version(), 1u);
  ASSERT_NE(service.AddView("v1", view_defs_[1], &error), nullptr) << error;
  EXPECT_EQ(service.snapshot_version(), 2u);

  // Probes never publish.
  for (const SpjgQuery& q : queries_) service.FindSubstitutes(q);
  EXPECT_EQ(service.snapshot_version(), 2u);

  // A quiet revalidation tick (nothing sidelined) skips the clone.
  service.RevalidationTick([](const ViewDefinition&) { return true; });
  EXPECT_EQ(service.snapshot_version(), 2u);

  // Quarantine entry via checksum breaker republishes (tree compaction);
  // readmission republishes again (tree re-insertion).
  ASSERT_TRUE(service.ReportChecksumMismatch(0));
  EXPECT_EQ(service.snapshot_version(), 3u);
  ASSERT_TRUE(service.ReadmitView(0));
  EXPECT_EQ(service.snapshot_version(), 4u);
}

TEST_F(SnapshotTest, RetiredSnapshotsReclaimWhenNoProbeIsPinned) {
  MatchingService service(&catalog_);
  SeedViews(&service);
  // Every publication retired a predecessor; with no concurrent pins the
  // opportunistic reclaim inside publication frees them as it goes.
  EXPECT_EQ(service.retired_snapshots(), 0);
}

TEST_F(SnapshotTest, ResolveViewReferencesSurviveRepublication) {
  MatchingService service(&catalog_);
  std::string error;
  ASSERT_NE(service.AddView("stable", view_defs_[0], &error), nullptr)
      << error;
  const ViewDefinition& ref = service.ResolveView(0);
  EXPECT_EQ(ref.name(), "stable");
  // Retire many generations under the reference.
  for (int i = 1; i < 12; ++i) {
    ASSERT_NE(service.AddView("v" + std::to_string(i), view_defs_[i], &error),
              nullptr)
        << error;
  }
  // Definitions are shared across generations: the old reference still
  // names the same object even though its snapshot is long reclaimed.
  EXPECT_EQ(ref.name(), "stable");
  EXPECT_EQ(&service.ResolveView(0), &ref);
}

TEST_F(SnapshotTest, FailedAddViewDiscardsTheCloneNotTheSnapshot) {
  MatchingService service(&catalog_);
  std::string error;
  ASSERT_NE(service.AddView("v0", view_defs_[0], &error), nullptr) << error;
  const uint64_t version = service.snapshot_version();

  FailpointRegistry::Instance().Enable("view_catalog.describe");
  EXPECT_EQ(service.AddView("victim", view_defs_[1], &error), nullptr);
  EXPECT_NE(error.find("rolled back"), std::string::npos);
  // The failure happened on the unpublished clone: nothing republished,
  // nothing retired, no partial state visible.
  EXPECT_EQ(service.snapshot_version(), version);
  EXPECT_EQ(service.views().num_views(), 1);
  EXPECT_EQ(service.views().FindView("victim"), nullptr);

  // The site fired its single shot; the retry goes through and publishes.
  ASSERT_NE(service.AddView("victim", view_defs_[1], &error), nullptr)
      << error;
  EXPECT_EQ(service.snapshot_version(), version + 1);
}

}  // namespace
}  // namespace mvopt
