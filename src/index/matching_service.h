// MatchingService: the façade the optimizer's view-matching rule calls.
// Combines the view catalog, the filter tree (§4) and the view-matching
// algorithm (§3), and accumulates the effectiveness statistics reported
// in §5 (candidate-set fraction, pass rate, substitutes per invocation).
//
// Concurrency model (DESIGN.md §15): the catalog + filter tree live in
// one immutable CatalogSnapshot published through an atomic pointer.
// Probes (FindSubstitutes / FindUnionSubstitute / ResolveView) pin the
// current snapshot with an epoch-based-reclamation pin (EpochPin over
// common/epoch_reclaim.h) and run entirely lock-free — zero shared lock
// acquisitions and zero shared writes on the probe path outside the
// lifecycle registry's atomic state transitions and the probe-atomic
// stats commit. Writers (AddView / recovery / lifecycle
// readmission and quarantine) serialize on the writer mutex, copy the
// current snapshot off-path (a structure-sharing copy: only what the
// write touches is duplicated), mutate the copy, and publish it with a
// pointer swap; the displaced snapshot is retired into the epoch domain
// and freed once no pin can still reference it. Probe results are always
// computed against one consistent snapshot (the one before or after any
// concurrent AddView). AddView stays transactional: if indexing or
// logging fails after catalog registration, the clone is simply
// discarded — the published snapshot never contains partial state.
// Pinning is the one probe discipline: parallelism lives across queries
// (concurrent callers, e.g. ServingService workers), never inside one
// probe.
//
// Stats are *probe-atomic*: each probe accumulates its counters locally
// and commits them in one critical section at the end, so a stats()
// snapshot is always internally consistent (full_tests ≤ candidates,
// substitutes ≤ full_tests, every probe's contribution is all-in or
// all-out) and a ResetStats() racing concurrent probes loses no
// increments — it returns the pre-reset snapshot, and every in-flight
// probe lands entirely before or entirely after the reset.
//
// Observability (src/observe): with Options::observe enabled the service
// registers its metric families (probe counters, per-level filter-tree
// counters, reject reasons, probe-latency histogram, lifecycle
// transitions, WAL counters, snapshot lifecycle gauges) into the shared
// MetricsRegistry and mirrors every probe commit into them; a QueryTrace
// passed to FindSubstitutes additionally records per-stage wall clock
// and per-candidate verdicts.
//
// View lifecycle (rewrite/view_lifecycle.h): every view carries a
// durable lifecycle entry — FRESH / STALE / QUARANTINED / DISABLED —
// plus the base-table epoch of its last refresh and a content checksum.
// Probes skip sidelined views, reject stale ones (RejectReason::kStale)
// unless the query's budget grants a staleness tolerance (tolerated
// stale substitutes are down-ranked behind fresh ones), and record
// kStaleViewsOnly degradation when staleness was the only reason a probe
// came back empty. The revalidation pass re-admits sidelined views with
// exponential backoff.
//
// Durability (rewrite/catalog_store.h): with a store attached, AddView
// appends a CRC-framed WAL record before returning — its fsync is the
// commit point, and an append failure discards the cloned snapshot
// (unless the record was already durable, in which case the registration
// stands and the clone is published). RecoverFrom replays snapshot + WAL
// at startup, rebuilds the filter tree and lattices through the normal
// registration path into ONE new snapshot, quarantines unreplayable
// entries in the RecoveryReport instead of aborting, and Checkpoint
// writes a new snapshot and resets the WAL.

#ifndef MVOPT_INDEX_MATCHING_SERVICE_H_
#define MVOPT_INDEX_MATCHING_SERVICE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "common/epoch_reclaim.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/query_budget.h"
#include "common/query_context.h"
#include "index/filter_tree.h"
#include "observe/observe.h"
#include "observe/trace.h"
#include "query/substitute.h"
#include "rewrite/catalog_store.h"
#include "rewrite/match_program.h"
#include "rewrite/matcher.h"
#include "rewrite/substitute_source.h"
#include "rewrite/union_matcher.h"
#include "rewrite/view_catalog.h"
#include "rewrite/view_description.h"
#include "rewrite/view_lifecycle.h"
#include "verify/rewrite_checker.h"

namespace mvopt {

/// Value snapshot of the matching counters (see MatchingService::stats).
struct MatchingStats {
  int64_t invocations = 0;         ///< FindSubstitutes calls
  int64_t candidates = 0;          ///< views surviving the filter (summed)
  int64_t full_tests = 0;          ///< matcher executions
  int64_t substitutes = 0;         ///< substitutes produced
  int64_t match_failures = 0;      ///< matcher runs aborted by an exception
  int64_t budget_truncations = 0;  ///< probes cut short by a budget
  int64_t quarantine_skips = 0;    ///< candidates skipped while sidelined
  int64_t stale_tolerated = 0;     ///< stale substitutes kept (down-ranked)
  /// Two-tier matching (rewrite/match_program.h): full tests decided by
  /// a compiled program vs. the generic oracle. Invariant:
  /// compiled_hits + compiled_fallbacks == full_tests (every matcher
  /// execution is attributed to exactly one tier; exceptions count as
  /// fallbacks — the compiled path never decided).
  int64_t compiled_hits = 0;       ///< candidates decided by a MatchProgram
  int64_t compiled_fallbacks = 0;  ///< candidates decided by the oracle
  int64_t cross_check_mismatches = 0;  ///< compiled verdict != oracle verdict
  /// Rejection counts by reason (indexed by RejectReason).
  std::array<int64_t, kNumRejectReasons> rejects{};

  void MergeFrom(const MatchingStats& other) {
    invocations += other.invocations;
    candidates += other.candidates;
    full_tests += other.full_tests;
    substitutes += other.substitutes;
    match_failures += other.match_failures;
    budget_truncations += other.budget_truncations;
    quarantine_skips += other.quarantine_skips;
    stale_tolerated += other.stale_tolerated;
    compiled_hits += other.compiled_hits;
    compiled_fallbacks += other.compiled_fallbacks;
    cross_check_mismatches += other.cross_check_mismatches;
    for (size_t i = 0; i < rejects.size(); ++i) rejects[i] += other.rejects[i];
  }
};

/// Outcomes of the soundness checker over produced substitutes.
struct VerifyStats {
  static constexpr size_t kMaxRejectionTraces = 32;

  int64_t checked = 0;
  int64_t proven = 0;
  int64_t rejected = 0;
  int64_t quarantined_views = 0;  ///< views currently sidelined
  /// Rejection counts by CheckCode.
  std::array<int64_t, kNumCheckCodes> by_code{};
  /// First rejections, "view: code: detail" (capped).
  std::vector<std::string> rejection_traces;
};

/// The unit of publication on the probe path (DESIGN.md §15): the view
/// catalog and the filter tree built over its descriptions, bundled so
/// one atomic pointer covers everything a probe walks. Immutable once
/// published — writers copy, mutate the copy, and publish the copy. The
/// copy shares structure with its source (catalog chunks, name index,
/// tree nodes, atom table), so it costs O(chunks) pointer copies, and a
/// write then copies only the chunk and root-to-leaf path it touches.
struct CatalogSnapshot {
  explicit CatalogSnapshot(const Catalog* catalog) : views(catalog) {}
  /// The next generation: bumps the version and shares the rest.
  CatalogSnapshot(const CatalogSnapshot& other)
      : version(other.version + 1), views(other.views), tree(other.tree) {}
  CatalogSnapshot& operator=(const CatalogSnapshot&) = delete;

  uint64_t version = 0;  ///< publication generation (0 = initial, empty)
  ViewCatalog views;
  FilterTree tree;
};

class MatchingService : public SubstituteSource {
 public:
  struct Options {
    bool use_filter_tree = true;
    MatchOptions match;
    /// Soundness checking of produced substitutes: off, log (count and
    /// trace rejections, keep everything) or enforce (discard unproven
    /// substitutes).
    VerifyMode verify_mode = VerifyMode::kOff;
    RewriteChecker::Options verify;
    /// Enforce-mode quarantine: a view whose substitutes are rejected by
    /// the checker this many times in a row is skipped by subsequent
    /// probes (a proven substitute resets the streak). 0 disables.
    int quarantine_threshold = 0;
    /// Circuit breaker: a rejection streak of this many moves a
    /// quarantined view to DISABLED (only revalidation re-enables it).
    /// 0 disables the escalation.
    int disable_threshold = 0;
    /// Two-tier matching (rewrite/match_program.h): compile each view
    /// into a MatchProgram at registration/recovery. Views outside the
    /// compiled envelope (and all views when this is off) match through
    /// the generic ViewMatcher.
    bool compile_match_programs = true;
    /// Initial compiled-vs-oracle agreement checking; runtime-flippable
    /// afterwards via set_cross_check() (see cross_check_).
    MatchCrossCheck cross_check = MatchCrossCheck::kOff;
    /// Observability (off by default; see observe/observe.h). The
    /// registry, when set, must outlive the service.
    ObserveOptions observe;
  };

  explicit MatchingService(const Catalog* catalog);
  MatchingService(const Catalog* catalog, Options options);
  ~MatchingService() override;

  /// Validates + registers + indexes a view (and, with a store attached,
  /// commits it to the WAL). nullptr with *error on rejection.
  /// Transactional: the registration happens on a private clone of the
  /// current snapshot, so an indexing or logging failure just discards
  /// the clone — no exception escapes and no partial state is ever
  /// published. The one exception is an ambiguous commit
  /// (StoreIoError::durable()): the WAL record is already on stable
  /// storage, so the clone is published and the registration stands.
  ViewDefinition* AddView(const std::string& name, SpjgQuery definition,
                          std::string* error = nullptr) MVOPT_EXCLUDES(mu_);

  /// The view-matching rule body: all substitutes for `query`, computed
  /// by an explicit staged pipeline
  ///
  ///   probe -> prefilter -> match -> compensate -> cost-annotate
  ///
  /// over a pinned immutable snapshot — the probe takes no shared lock
  /// and performs no shared write outside the lifecycle registry's
  /// atomic state transitions and the final stats commit. The
  /// pipeline's boundaries are visible to the context's trace (stage
  /// wall clock + NoteStageBoundary) and stage hook. The context
  /// supplies the budget (candidate enumeration and matching stop
  /// cooperatively on exhaustion, returning the substitutes found so
  /// far), the staleness tolerance (how far behind a substituted view
  /// may lag; default: fresh views only). The pipeline runs serially on
  /// the calling thread; concurrent probes from different threads share
  /// only the pinned immutable snapshot, the internally synchronized
  /// lifecycle registry and the final stats commit, so results, ordering
  /// and stats do not depend on how many probes run at once. The context
  /// (and its trace) must not be shared across concurrent probes.
  std::vector<Substitute> FindSubstitutes(const SpjgQuery& query,
                                          QueryContext& ctx) override
      MVOPT_EXCLUDES(mu_);

  /// §7 extension: a union substitute assembled from several
  /// range-partitioned views (SPJ queries only). Tries the views that
  /// survive a relaxed filter probe. Not part of FindSubstitutes so the
  /// §5 experiments stay paper-faithful. Respects the context's deadline
  /// (cooperative ticks inside the partition sweep), admits legs from
  /// views lagging at most ctx.max_staleness() epochs, and records a
  /// "union-match" span into the trace / stage hook.
  std::optional<UnionSubstitute> FindUnionSubstitute(
      const SpjgQuery& query, QueryContext& ctx) override MVOPT_EXCLUDES(mu_);

  /// SubstituteSource: the definition behind one of this service's view
  /// ids. Safe from any thread: the lookup pins the current snapshot,
  /// and the returned reference outlives the pin because definitions
  /// are shared across snapshot generations (published catalogs grow
  /// append-only), so the object lives as long as the service.
  const ViewDefinition& ResolveView(ViewId id) const override {
    EpochPin pin(reclaim_);
    return PinnedSnapshot()->views.view(id);
  }

  // --- durability ---------------------------------------------------------

  /// Attaches `store` (opened on demand) so subsequent AddView calls and
  /// lifecycle events are logged. The store must outlive the service.
  void AttachStore(CatalogStore* store) MVOPT_EXCLUDES(mu_);

  /// Startup recovery: replays `store`'s snapshot + WAL into this (empty)
  /// service, rebuilding the filter tree and lattices through the normal
  /// registration path into one new snapshot published at the end.
  /// Entries whose SQL no longer parses or validates are quarantined in
  /// the report, never fatal. Attaches the store.
  RecoveryReport RecoverFrom(CatalogStore* store) MVOPT_EXCLUDES(mu_);

  /// Writes a full snapshot of the catalog + lifecycle states and resets
  /// the WAL. Requires an attached store.
  void Checkpoint() MVOPT_EXCLUDES(mu_);

  // --- lifecycle ----------------------------------------------------------

  /// Wires base-table update epochs (owned by the engine side); without
  /// a clock every view is considered fresh. The clock must outlive the
  /// service. The pointer is an atomic: probes read it lock-free on the
  /// snapshot path, so a plain member store here would be a data race.
  void set_epoch_clock(const TableEpochClock* clock) {
    epochs_.store(clock, std::memory_order_release);
  }
  const TableEpochClock* epoch_clock() const {
    return epochs_.load(std::memory_order_acquire);
  }

  /// The lifecycle registry (engine-side maintenance reports refreshes
  /// and checksums through this). Internally synchronized: safe from any
  /// thread without the service lock.
  ViewLifecycleRegistry& lifecycle() { return lifecycle_; }
  const ViewLifecycleRegistry& lifecycle() const { return lifecycle_; }

  /// Lock-free (the lifecycle registry is internally synchronized).
  ViewState view_state(ViewId id) const { return lifecycle_.state(id); }

  /// How many update epochs `id` lags its base tables (0 = fresh).
  uint64_t StalenessLag(ViewId id) const;

  /// Trips the circuit breaker for `id` (content checksum mismatch):
  /// DISABLED, removed from the filter tree (a new snapshot is
  /// published), event logged. Returns true if the state changed.
  bool ReportChecksumMismatch(ViewId id) MVOPT_EXCLUDES(mu_);

  /// One background-revalidation tick: sidelined views are compacted out
  /// of the filter tree; those due for a retry (exponential backoff) are
  /// handed to `validate`, and on success re-inserted into the filter
  /// tree and returned to FRESH. Tree changes land in one published
  /// snapshot. Returns the number readmitted.
  int RevalidationTick(
      const std::function<bool(const ViewDefinition&)>& validate)
      MVOPT_EXCLUDES(mu_);

  /// Forces `id` back into rotation (FRESH + re-indexed). Returns false
  /// if the view was not sidelined.
  bool ReadmitView(ViewId id) MVOPT_EXCLUDES(mu_);

  /// Structure accessors. They hand out references INTO the current
  /// snapshot without pinning it, so the single-threaded contract from
  /// the pre-snapshot code still applies: they must not run (and the
  /// references must not be retained) concurrently with AddView /
  /// recovery / revalidation, which may retire the snapshot under them.
  /// (Individual ViewDefinitions are exempt — those are shared across
  /// generations; see ResolveView.)
  const ViewCatalog& views() const {
    return snapshot_.load(std::memory_order_acquire)->views;
  }
  const Catalog& catalog() const { return *catalog_; }
  const FilterTree& filter_tree() const {
    return snapshot_.load(std::memory_order_acquire)->tree;
  }
  const ViewMatcher& matcher() const { return matcher_; }

  /// Current publication generation (bumps on every published write).
  uint64_t snapshot_version() const {
    return snapshot_.load(std::memory_order_acquire)->version;
  }
  /// Snapshots retired but not yet reclaimed (mvopt_snapshot_retired).
  int64_t retired_snapshots() const { return reclaim_.retired_count(); }

  /// Internally consistent value snapshots (probe-atomic: no probe is
  /// ever half-reflected).
  MatchingStats stats() const MVOPT_EXCLUDES(stats_mu_);
  VerifyStats verify_stats() const MVOPT_EXCLUDES(stats_mu_);
  /// Reset and return the pre-reset snapshot in one critical section, so
  /// no probe's increments are lost even when resets race probes.
  MatchingStats ResetStats() MVOPT_EXCLUDES(stats_mu_);
  VerifyStats ResetVerifyStats() MVOPT_EXCLUDES(stats_mu_);

  /// The verify mode is an atomic, not part of the lock-guarded options:
  /// operators flip it at runtime (log -> enforce) while probes are in
  /// flight, and each probe snapshots it once so a flip never lands
  /// half-way through one probe's accounting.
  VerifyMode verify_mode() const {
    return verify_mode_.load(std::memory_order_relaxed);
  }
  void set_verify_mode(VerifyMode mode) {
    verify_mode_.store(mode, std::memory_order_relaxed);
  }
  const RewriteChecker& checker() const { return checker_; }

  /// Compiled-vs-oracle cross-check mode: atomic and runtime-flippable
  /// like verify_mode, snapshotted once per probe so a flip applies to
  /// whole probes only.
  MatchCrossCheck cross_check() const {
    return cross_check_.load(std::memory_order_relaxed);
  }
  void set_cross_check(MatchCrossCheck mode) {
    cross_check_.store(mode, std::memory_order_relaxed);
  }

  /// Test hook (adversarial mutant tests): swaps the compiled program of
  /// `id` — possibly for a corrupted one, or nullptr to force the
  /// generic tier — through the normal clone-mutate-publish path.
  void ReplaceProgramForTest(ViewId id,
                             std::shared_ptr<const MatchProgram> program)
      MVOPT_EXCLUDES(mu_);

  /// Names of sidelined (quarantined or disabled) views, in id order.
  std::vector<std::string> QuarantinedViews() const;
  /// Lock-free (the lifecycle registry is internally synchronized).
  bool IsQuarantined(ViewId id) const;

 private:
  /// ShardedCatalogService shares one probe analysis across the shards a
  /// probe is routed to (FindSubstitutesShared).
  friend class ShardedCatalogService;

  /// One probe's query analysis (rewrite/match_program.h) and the filter
  /// keys read off it. Stage 1 builds both (once: a probe routed to
  /// several shards reuses the first shard's); the match stage completes
  /// the analysis only when some candidate survives the prefilter.
  struct ProbeAnalysis {
    bool analyzed = false;
    MatchProbeContext context;
    QueryDescription keys;
  };

  /// FindSubstitutes with a caller-owned analysis: `analysis` starts
  /// empty or holds an earlier probe of the same query made by a service
  /// with identical options (a sibling shard), and is filled or reused.
  std::vector<Substitute> FindSubstitutesShared(const SpjgQuery& query,
                                                QueryContext& ctx,
                                                ProbeAnalysis* analysis)
      MVOPT_EXCLUDES(mu_);

  /// Plain (non-atomic) verify counters, guarded by stats_mu_.
  struct VerifyCounters {
    int64_t checked = 0;
    int64_t proven = 0;
    int64_t rejected = 0;
    std::array<int64_t, kNumCheckCodes> by_code{};

    void MergeFrom(const VerifyCounters& other) {
      checked += other.checked;
      proven += other.proven;
      rejected += other.rejected;
      for (size_t i = 0; i < by_code.size(); ++i) {
        by_code[i] += other.by_code[i];
      }
    }
  };

  /// One probe's locally accumulated stats, committed atomically at the
  /// end of the probe (the tearing fix: a snapshot reader can never see
  /// a probe half-applied, and a reset can never lose part of one).
  struct ProbeDelta {
    MatchingStats stats;
    VerifyCounters verify;
    std::vector<std::string> rejection_traces;
  };

  /// Cached MetricsRegistry instruments; all null when counters are off,
  /// so every instrumentation point is a null check in kOff mode.
  struct ProbeMetrics {
    Counter* invocations = nullptr;
    Counter* candidates = nullptr;
    Counter* full_tests = nullptr;
    Counter* substitutes = nullptr;
    Counter* match_failures = nullptr;
    Counter* budget_truncations = nullptr;
    Counter* quarantine_skips = nullptr;
    Counter* stale_tolerated = nullptr;
    Counter* compiled_hits = nullptr;
    Counter* compiled_fallbacks = nullptr;
    Counter* cross_check_mismatches = nullptr;
    /// Per-tier match-stage latency (seconds per candidate), indexed by
    /// MatchTier.
    std::array<Histogram*, kNumMatchTiers> match_latency{};
    std::array<Counter*, kNumRejectReasons> rejects{};
    std::array<Counter*, kNumFilterLevels> level_probes{};
    std::array<Counter*, kNumFilterLevels> level_visits{};
    Counter* lattice_nodes = nullptr;
    Counter* subset_searches = nullptr;
    Counter* superset_searches = nullptr;
    Counter* scan_searches = nullptr;
    Counter* range_checked = nullptr;
    Counter* range_rejected = nullptr;
    Histogram* probe_latency = nullptr;
  };

  /// A candidate admitted by the prefilter stage. lag == 0 means fresh;
  /// lag > 0 means the view is stale but within the query's tolerance
  /// (its substitutes are down-ranked and annotated by cost-annotate).
  struct GatedCandidate {
    ViewId id = 0;
    uint64_t lag = 0;
  };

  /// Per-candidate outcome slot of the match stage, read in candidate
  /// order by the compensate stage. Keeping match and compensate apart
  /// keeps their wall clock separable in the stage timings.
  struct MatchOutcome {
    enum class Kind : uint8_t {
      kSkipped = 0,  ///< never attempted (deadline hit before this slot)
      kDone,         ///< matcher ran; `result` holds its answer
      kError,        ///< matcher threw; isolated to this candidate
    };
    Kind kind = Kind::kSkipped;
    MatchResult result;
    /// Which tier decided `result` (kDone only): the view's MatchProgram
    /// ran to a verdict, or the generic oracle ran (no program, program
    /// declined, or the compiled attempt threw).
    MatchTier tier = MatchTier::kGeneric;
    /// Wall clock of this candidate's match test; < 0 when untimed
    /// (per-tier latency histograms off).
    double seconds = -1.0;
  };

  // --- snapshot plumbing --------------------------------------------------

  /// The published snapshot, dereferenceable while the caller holds an
  /// EpochPin on reclaim_ — the REQUIRES_SHARED makes obtaining the
  /// pointer after Unpin a compile error under the thread-safety gate.
  /// seq_cst load: the pin's slot store must precede this load in the
  /// single total order the reclamation safety argument relies on.
  const CatalogSnapshot* PinnedSnapshot() const
      MVOPT_REQUIRES_SHARED(reclaim_) {
    return snapshot_.load(std::memory_order_seq_cst);
  }
  /// The published snapshot under the writer mutex (publication requires
  /// mu_, so the snapshot cannot be retired while the caller holds it).
  CatalogSnapshot* SnapshotLocked() const MVOPT_REQUIRES(mu_) {
    return snapshot_.load(std::memory_order_acquire);
  }
  /// Swaps `next` in as the published snapshot, retires the old one into
  /// the epoch domain and updates the snapshot gauges.
  void PublishLocked(std::unique_ptr<CatalogSnapshot> next)
      MVOPT_REQUIRES(mu_);

  // --- pipeline stages (pure functions of the pinned snapshot) ------------

  /// Stage 1 (probe): analyzes the query (unless `analysis` already
  /// holds it), then enumerates candidates — a filter-tree walk over the
  /// analysis's keys, or the full id range when the tree is off.
  std::vector<ViewId> StageProbe(const CatalogSnapshot& snap,
                                 const SpjgQuery& query, QueryContext& ctx,
                                 FilterSearchStats* fstats,
                                 ProbeAnalysis* analysis);
  /// Stage 2 (prefilter): sidelined screen + staleness gate via
  /// ViewLifecycleRegistry::GateForProbe; ticks the deadline per
  /// candidate. Sets *truncated when the budget cut the walk short.
  std::vector<GatedCandidate> StagePrefilter(
      const CatalogSnapshot& snap, const std::vector<ViewId>& candidates,
      QueryContext& ctx, ProbeDelta* delta, int64_t* stale_rejects,
      bool* truncated);
  /// Stage 3 (match): completes the probe analysis, then runs the
  /// matcher over the gated candidates in order, ticking the deadline
  /// before each one; slots past an exhausted deadline stay kSkipped and
  /// set *truncated.
  std::vector<MatchOutcome> StageMatch(const CatalogSnapshot& snap,
                                       const std::vector<GatedCandidate>& gated,
                                       QueryContext& ctx, bool* truncated,
                                       MatchProbeContext* analysis);
  /// Stage 4 (compensate): candidate-order walk of the outcome slots —
  /// verification (soundness checker / quarantine bookkeeping), stats
  /// accounting and trace verdicts all happen here. `mode` is
  /// the probe's verify-mode snapshot (taken once, see verify_mode_).
  /// `xmode` is the probe's cross-check snapshot: compiled verdicts are
  /// replayed against the generic oracle here (serial, candidate order),
  /// mismatches counted and — in enforce mode — the view quarantined via
  /// the circuit breaker and the oracle's verdict substituted, so
  /// enforce-mode output is byte-identical to the generic tier by
  /// construction.
  void StageCompensate(const CatalogSnapshot& snap, const SpjgQuery& query,
                       const MatchProbeContext& analysis,
                       const std::vector<GatedCandidate>& gated,
                       std::vector<MatchOutcome>* outcomes, QueryContext& ctx,
                       VerifyMode mode, MatchCrossCheck xmode,
                       ProbeDelta* delta, std::vector<Substitute>* fresh,
                       std::vector<Substitute>* stale);

  /// The probe pipeline over one consistent snapshot. The caller holds
  /// an EpochPin for the duration, which keeps `snap` alive.
  std::vector<Substitute> FindSubstitutesOn(const CatalogSnapshot& snap,
                                            const SpjgQuery& query,
                                            QueryContext& ctx,
                                            ProbeAnalysis* analysis);
  std::optional<UnionSubstitute> FindUnionSubstituteOn(
      const CatalogSnapshot& snap, const SpjgQuery& query, QueryContext& ctx);

  /// Registers this service's metric families (ctor, counters on).
  void RegisterMetrics();
  /// Wires the attached store's WAL counters.
  void WireStoreCountersLocked() MVOPT_REQUIRES(mu_);
  /// Commits one probe's delta into the authoritative stats (one
  /// critical section) and mirrors it into the registry counters.
  /// `fstats` carries the filter-tree counters when they were collected.
  void CommitProbe(const ProbeDelta& delta, const FilterSearchStats* fstats)
      MVOPT_EXCLUDES(stats_mu_);
  void RecordVerifyRejection(const CatalogSnapshot& snap, ViewId id,
                             const Verdict& verdict, VerifyMode mode,
                             ProbeDelta* delta);
  /// Staleness lag of `id` against `snap`'s description store.
  uint64_t StalenessLagOn(const CatalogSnapshot& snap, ViewId id) const;
  /// Persisted image of view `id` out of `views`.
  PersistedView PersistedImageOf(const ViewCatalog& views, ViewId id) const;
  /// Best-effort lifecycle event append (store_ is mu_-guarded).
  void LogViewEventLocked(const ViewCatalog& views, ViewId id)
      MVOPT_REQUIRES(mu_);
  /// Grows lifecycle + tree-membership bookkeeping to `num_views`.
  void GrowBookkeepingLocked(int num_views) MVOPT_REQUIRES(mu_);
  /// Registers, compiles and indexes a view on the unpublished `next`.
  /// nullptr with *error on rejection; on a throw the view is rolled
  /// back out of `next` before the exception propagates.
  ViewDefinition* RegisterLocked(CatalogSnapshot* next,
                                 const std::string& name,
                                 SpjgQuery definition, std::string* error)
      MVOPT_REQUIRES(mu_);

  const Catalog* catalog_;
  /// Immutable after construction except verify_mode (see verify_mode_,
  /// which supersedes options_.verify_mode after the ctor).
  Options options_;
  ViewMatcher matcher_;      ///< stateless per-call; Match() is const
  RewriteChecker checker_;   ///< stateless per-call; Check() is const

  /// The writer mutex: serializes AddView / recovery / revalidation /
  /// checkpoint (held while cloning and publishing). Always acquired
  /// before stats_mu_ and before the attached store's internal mutex.
  /// Probes never touch it.
  mutable Mutex mu_ MVOPT_ACQUIRED_BEFORE(stats_mu_);
  /// Guards the probe-atomic stats below: probes take it once per probe
  /// (to commit their delta), snapshots and resets take it for the whole
  /// read-or-swap. Never held together with mu_ waits.
  mutable Mutex stats_mu_;

  /// The published snapshot (never null). Writers exchange it under mu_;
  /// probes load it under an EpochPin. The pointed-to snapshot is
  /// immutable while published (the snapshot contract), which is why no
  /// TSA guard applies — consistency is by construction, not exclusion.
  std::atomic<CatalogSnapshot*> snapshot_;
  /// Epoch-based reclamation domain for retired snapshots. mutable: a
  /// const probe (ResolveView, StalenessLag) still pins.
  mutable EpochDomain reclaim_;

  MatchingStats stats_ MVOPT_GUARDED_BY(stats_mu_);
  VerifyCounters verify_counters_ MVOPT_GUARDED_BY(stats_mu_);
  std::vector<std::string> rejection_traces_ MVOPT_GUARDED_BY(stats_mu_);
  /// Written once in RegisterMetrics (ctor); immutable afterwards, and
  /// the instruments it points at are internally atomic.
  ProbeMetrics metrics_;
  /// Snapshot lifecycle gauges (null when observability is off):
  /// mvopt_snapshot_live = snapshots alive in memory (current + retired
  /// awaiting reclamation), mvopt_snapshot_retired = retired only.
  Gauge* snapshot_live_gauge_ = nullptr;
  Gauge* snapshot_retired_gauge_ = nullptr;

  /// Runtime-flippable soundness-checking mode (see verify_mode()).
  std::atomic<VerifyMode> verify_mode_;
  /// Runtime-flippable compiled-vs-oracle cross-check (see cross_check()).
  std::atomic<MatchCrossCheck> cross_check_;

  /// Internally synchronized (lock-free entry access); not guarded.
  ViewLifecycleRegistry lifecycle_;
  /// Atomic: probes read it lock-free on the snapshot path.
  std::atomic<const TableEpochClock*> epochs_{nullptr};
  CatalogStore* store_ MVOPT_GUARDED_BY(mu_) = nullptr;
  /// Whether each view currently lives in the filter tree (sidelined
  /// views are compacted out by RevalidationTick). Writer-side
  /// bookkeeping: probes never read it — the published tree itself is
  /// the probe-visible truth.
  std::vector<char> in_tree_ MVOPT_GUARDED_BY(mu_);
  int64_t revalidation_tick_ MVOPT_GUARDED_BY(mu_) = 0;
};

}  // namespace mvopt

#endif  // MVOPT_INDEX_MATCHING_SERVICE_H_
