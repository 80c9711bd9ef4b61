// Per-view lifecycle state machine unifying freshness tracking, the
// enforce-mode quarantine and the content-checksum circuit breaker:
//
//                 base-table update          refresh (maintenance)
//        FRESH ─────────────────────▶ STALE ─────────────────────▶ FRESH
//          │                            │
//          │  verify-failure streak ≥ quarantine threshold
//          ▼                            ▼
//      QUARANTINED ◀────────────────────┘
//          │  streak ≥ disable threshold, or content-checksum mismatch
//          ▼
//       DISABLED
//          │  revalidation pass succeeds (exponential backoff between
//          ▼  attempts; also readmits QUARANTINED views)
//        FRESH
//
// FRESH views match normally. STALE views are skipped (RejectReason::
// kStale) unless the query opts into a bounded staleness tolerance, in
// which case their substitutes are down-ranked behind fresh ones.
// QUARANTINED and DISABLED views never match until readmitted.
//
// Thread-safety: the registry is *internally* synchronized. Entries are
// fixed-size chunks of atomics published through acquire/release chunk
// pointers, so every per-view read or CAS transition is lock-free and
// may run from any thread — probe threads under the service's shared
// lock, the engine-side ViewMaintainer with no service lock at all.
// Growth (EnsureSize) takes the registry's own growth mutex and
// publishes the new size last, so a concurrent reader either sees a
// fully-constructed entry or treats the id as out of range; it never
// observes a half-built chunk. (The previous design kept entries in a
// deque grown under the owning service's exclusive lock, which made
// every maintenance-side call a growth/read race — the kind of
// convention the thread-safety annotations now refuse to compile.)

#ifndef MVOPT_REWRITE_VIEW_LIFECYCLE_H_
#define MVOPT_REWRITE_VIEW_LIFECYCLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/enum_coverage.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "observe/metrics.h"
#include "query/view_def.h"

namespace mvopt {

enum class ViewState : uint8_t {
  kFresh = 0,
  kStale = 1,
  kQuarantined = 2,
  kDisabled = 3,
};

inline constexpr int kNumViewStates = 4;
static_assert(static_cast<int>(ViewState::kDisabled) + 1 == kNumViewStates,
              "kNumViewStates must cover every ViewState");

/// Exhaustive (switch-based, no default) so a new ViewState without a
/// name is a -Wswitch error; the static_assert below proves every value
/// maps to a real name even in builds that demote the warning.
constexpr const char* ViewStateName(ViewState state) {
  switch (state) {
    case ViewState::kFresh:
      return "fresh";
    case ViewState::kStale:
      return "stale";
    case ViewState::kQuarantined:
      return "quarantined";
    case ViewState::kDisabled:
      return "disabled";
  }
  return "?";
}

static_assert(AllEnumeratorsNamed<ViewState, ViewStateName>(kNumViewStates),
              "every ViewState needs a ViewStateName entry");

class ViewLifecycleRegistry {
 public:
  /// Value snapshot of one view's lifecycle entry.
  struct Snapshot {
    ViewState state = ViewState::kFresh;
    uint64_t epoch = 0;
    uint64_t content_checksum = 0;
    int32_t failure_streak = 0;
    int64_t next_retry_tick = 0;
    int64_t retry_backoff = 1;
  };

  ViewLifecycleRegistry() = default;
  ~ViewLifecycleRegistry();
  ViewLifecycleRegistry(const ViewLifecycleRegistry&) = delete;
  ViewLifecycleRegistry& operator=(const ViewLifecycleRegistry&) = delete;

  /// Grows the registry to cover `n` views. Safe to call concurrently
  /// with readers and with other EnsureSize calls (growth serializes on
  /// the registry's own mutex); never shrinks.
  void EnsureSize(size_t n) MVOPT_EXCLUDES(growth_mu_);
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Hard capacity (chunk directory is a fixed array so lookups stay
  /// lock-free); EnsureSize beyond this throws std::length_error.
  static constexpr size_t kMaxViews = size_t{1} << 20;

  ViewState state(ViewId id) const;
  /// Matchable without any staleness tolerance.
  bool IsFresh(ViewId id) const { return state(id) == ViewState::kFresh; }
  /// Skipped unconditionally (quarantined or disabled).
  bool IsSidelined(ViewId id) const;

  uint64_t epoch(ViewId id) const;
  uint64_t checksum(ViewId id) const;
  Snapshot snapshot(ViewId id) const;

  /// Refresh: the view's contents now reflect global epoch `epoch`.
  /// Resets the failure streak and returns the view to FRESH from FRESH
  /// or STALE (a quarantined/disabled view stays sidelined — data
  /// freshness does not clear a circuit breaker).
  void MarkFresh(ViewId id, uint64_t epoch);
  void SetChecksum(ViewId id, uint64_t checksum);

  /// Probe-side observation that the view lags its base tables
  /// (FRESH -> STALE; no-op in any other state).
  void MarkStale(ViewId id);

  /// One candidate's fate at the pipeline's prefilter stage.
  enum class ProbeGate : uint8_t {
    kAdmit = 0,    ///< fresh (or lag 0): matches normally
    kAdmitStale,   ///< lag within tolerance: match, down-rank the result
    kRejectStale,  ///< lag beyond tolerance: RejectReason::kStale
    kSidelined,    ///< quarantined/disabled: skipped unconditionally
  };

  /// The prefilter decision for one candidate, combining the sidelined
  /// screen with the staleness gate; performs the opportunistic
  /// FRESH -> STALE transition when a lag is observed. Safe from any
  /// number of concurrent probe threads without a lock.
  ProbeGate GateForProbe(ViewId id, uint64_t lag, uint64_t tolerance);

  /// Records a soundness-checker rejection. With `quarantine_threshold`
  /// > 0, a streak of that many rejections moves FRESH/STALE ->
  /// QUARANTINED; with `disable_threshold` > 0, a streak of that many
  /// moves to DISABLED. Returns true when the state changed.
  bool ReportVerifyFailure(ViewId id, int quarantine_threshold,
                           int disable_threshold);
  /// A proven substitute resets the failure streak.
  void ReportVerifySuccess(ViewId id);

  /// Content checksum mismatch: trips the circuit breaker (-> DISABLED)
  /// from any state. Returns true when the state changed.
  bool ReportChecksumMismatch(ViewId id);

  /// Forces the view out of rotation (-> DISABLED), e.g. a recovered
  /// entry whose definition replays but whose data is unavailable.
  bool Disable(ViewId id);

  /// Readmission: QUARANTINED/DISABLED -> FRESH with the given epoch;
  /// streak and backoff reset. Returns false if the view was not
  /// sidelined.
  bool Readmit(ViewId id, uint64_t epoch);

  /// Restores a recovered entry verbatim (startup only).
  void Restore(ViewId id, const Snapshot& snapshot);

  /// Exponential-backoff schedule for the revalidation pass, measured in
  /// revalidation ticks so tests replay deterministically.
  bool DueForRetry(ViewId id, int64_t tick) const;
  void RecordRetryFailure(ViewId id, int64_t tick);

  /// Gauges. Maintained incrementally by every *successful* state
  /// transition (the CAS winner adjusts exactly its from→to delta, and
  /// Restore adjusts from the exchanged-out previous state, so no
  /// interleaving can make the totals drift from the authoritative
  /// per-entry states once in-flight calls retire).
  int64_t num_quarantined() const {
    return state_counts_[static_cast<size_t>(ViewState::kQuarantined)].load(
        std::memory_order_relaxed);
  }
  int64_t num_disabled() const {
    return state_counts_[static_cast<size_t>(ViewState::kDisabled)].load(
        std::memory_order_relaxed);
  }
  /// Quarantined + disabled (the views probes skip unconditionally).
  int64_t num_sidelined() const {
    return num_quarantined() + num_disabled();
  }

  /// Authoritative count derived from the per-entry states. Safe from
  /// any thread, but only a point-in-time figure unless the caller has
  /// quiesced transitions.
  int64_t CountState(ViewState state) const;

  /// Reconciles the incremental gauges against the authoritative state
  /// map: returns true when they already agreed, false after resyncing a
  /// drifted gauge. Called (and asserted) by
  /// MatchingService::RevalidationTick under the exclusive lock, when no
  /// transition can be in flight.
  bool AuditCounters();

  /// Observability: counts every state transition on the counter of its
  /// destination state (nullptr slots are skipped). Wire before
  /// concurrent use.
  void set_transition_counters(
      const std::array<Counter*, kNumViewStates>& to_state) {
    transition_counters_ = to_state;
  }

 private:
  struct Entry {
    std::atomic<uint8_t> state{0};
    std::atomic<uint64_t> epoch{0};
    std::atomic<uint64_t> checksum{0};
    std::atomic<int32_t> failure_streak{0};
    std::atomic<int64_t> next_retry_tick{0};
    std::atomic<int64_t> retry_backoff{1};
  };
  static constexpr int64_t kMaxBackoff = 64;

  /// Entries live in fixed-size chunks so their atomics never move and a
  /// reader can reach any live entry with two acquire loads (size, then
  /// chunk pointer) and no lock.
  static constexpr size_t kChunkShift = 8;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;  // 256
  static constexpr size_t kMaxChunks = kMaxViews / kChunkSize;

  struct Chunk {
    std::array<Entry, kChunkSize> entries{};
  };

  /// The live entry for `id`, or nullptr when id is out of range. The
  /// publication order in EnsureSize (chunk pointer with release, then
  /// size with release) guarantees that any id below the acquired size
  /// has a fully-constructed chunk behind it.
  Entry* FindEntry(ViewId id) const;

  /// CAS transition keeping the state gauges consistent; returns true
  /// when `id` moved from `from` to `to`.
  bool Transition(Entry& e, ViewState from, ViewState to);
  void AdjustCounters(ViewState from, ViewState to);

  /// Serializes growth (chunk allocation + size publication) only; no
  /// reader or transition path ever takes it.
  Mutex growth_mu_;
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<size_t> size_{0};
  /// Live entries per state (new entries are born FRESH).
  std::array<std::atomic<int64_t>, kNumViewStates> state_counts_{};
  std::array<Counter*, kNumViewStates> transition_counters_{};
};

}  // namespace mvopt

#endif  // MVOPT_REWRITE_VIEW_LIFECYCLE_H_
