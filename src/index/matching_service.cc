#include "index/matching_service.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <memory>

#include "common/failpoint.h"
#include "query/parser.h"

namespace mvopt {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start,
                    SteadyClock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Lap timer for the pipeline's stage boundaries; reads no clock when
/// the probe is unobserved (kOff mode must stay hook-free).
class StageTimer {
 public:
  explicit StageTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) last_ = SteadyClock::now();
  }
  double Lap() {
    if (!enabled_) return 0.0;
    const SteadyClock::time_point now = SteadyClock::now();
    const double seconds = SecondsSince(last_, now);
    last_ = now;
    return seconds;
  }

 private:
  bool enabled_;
  SteadyClock::time_point last_{};
};

/// One stage boundary: stage wall clock into the trace, the stage name
/// into the trace's pipeline log and the context's stage hook.
void NoteStage(QueryContext& ctx, QueryTrace* trace, QueryTrace::Stage stage,
               const char* name, double seconds) {
  if (trace != nullptr) {
    trace->AddStageSeconds(stage, seconds);
    trace->NoteStageBoundary(name);
  }
  ctx.NotifyStage(name, seconds);
}

bool SameExprList(const std::vector<ExprPtr>& a,
                  const std::vector<ExprPtr>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i]->Equals(*b[i])) return false;
  }
  return true;
}

/// Structural equality of two match verdicts, for the compiled-vs-oracle
/// cross-check: same accept/reject and reason, and on accept the same
/// substitute — view, compensating predicates (in order), outputs (names
/// and expressions, in order), group-by, aggregation flag, backjoins —
/// compared node-by-node with Expr::Equals.
bool SameMatchVerdict(const MatchResult& a, const MatchResult& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.reason == b.reason;
  const Substitute& x = *a.substitute;
  const Substitute& y = *b.substitute;
  if (x.view_id != y.view_id) return false;
  if (x.needs_aggregation != y.needs_aggregation) return false;
  if (x.backjoins.size() != y.backjoins.size()) return false;
  for (size_t i = 0; i < x.backjoins.size(); ++i) {
    if (x.backjoins[i].table != y.backjoins[i].table ||
        x.backjoins[i].key_join != y.backjoins[i].key_join) {
      return false;
    }
  }
  if (!SameExprList(x.predicates, y.predicates)) return false;
  if (!SameExprList(x.group_by, y.group_by)) return false;
  if (x.outputs.size() != y.outputs.size()) return false;
  for (size_t i = 0; i < x.outputs.size(); ++i) {
    if (x.outputs[i].name != y.outputs[i].name ||
        !x.outputs[i].expr->Equals(*y.outputs[i].expr)) {
      return false;
    }
  }
  return true;
}

std::string VerdictSummary(const MatchResult& r) {
  if (!r.ok()) return RejectReasonName(r.reason);
  return "accept(preds=" + std::to_string(r.substitute->predicates.size()) +
         ",outputs=" + std::to_string(r.substitute->outputs.size()) + ")";
}

}  // namespace

MatchingService::MatchingService(const Catalog* catalog)
    : MatchingService(catalog, Options()) {}

MatchingService::MatchingService(const Catalog* catalog, Options options)
    : catalog_(catalog),
      options_(options),
      matcher_(catalog, options.match),
      checker_(catalog, options.verify),
      snapshot_(new CatalogSnapshot(catalog)),
      verify_mode_(options.verify_mode),
      cross_check_(options.cross_check) {
  // The initial snapshot is not yet visible to any other thread, so
  // configuring its tree in place is safe; clones inherit the setting.
  snapshot_.load(std::memory_order_relaxed)
      ->tree.set_assume_backjoins(options_.match.enable_backjoins);
  RegisterMetrics();
  if (snapshot_live_gauge_ != nullptr) snapshot_live_gauge_->Set(1);
}

MatchingService::~MatchingService() {
  // No probes can be in flight during destruction (owner contract); the
  // epoch domain's destructor drains the retired generations.
  delete snapshot_.load(std::memory_order_acquire);
}

void MatchingService::RegisterMetrics() {
  if (!options_.observe.counters_enabled()) return;
  MetricsRegistry* r = options_.observe.registry;
  metrics_.invocations = r->FindOrCreateCounter(
      "mvopt_probe_invocations_total", "FindSubstitutes probes");
  metrics_.candidates = r->FindOrCreateCounter(
      "mvopt_probe_candidates_total",
      "Views surviving the filter-tree probe (summed over probes)");
  metrics_.full_tests = r->FindOrCreateCounter(
      "mvopt_probe_full_tests_total", "Full view-matching tests run");
  metrics_.substitutes = r->FindOrCreateCounter(
      "mvopt_probe_substitutes_total", "Substitutes produced");
  metrics_.match_failures = r->FindOrCreateCounter(
      "mvopt_probe_match_failures_total",
      "Matcher runs aborted by an exception");
  metrics_.budget_truncations = r->FindOrCreateCounter(
      "mvopt_probe_budget_truncations_total",
      "Probes cut short by budget exhaustion");
  metrics_.quarantine_skips = r->FindOrCreateCounter(
      "mvopt_probe_quarantine_skips_total",
      "Candidates skipped while sidelined");
  metrics_.stale_tolerated = r->FindOrCreateCounter(
      "mvopt_probe_stale_tolerated_total",
      "Stale substitutes kept under a staleness tolerance");
  metrics_.compiled_hits = r->FindOrCreateCounter(
      "mvopt_match_compiled_hits_total",
      "Full match tests decided by a compiled MatchProgram");
  metrics_.compiled_fallbacks = r->FindOrCreateCounter(
      "mvopt_match_compiled_fallbacks_total",
      "Full match tests decided by the generic oracle (no program, "
      "program declined, or compiled attempt failed)");
  metrics_.cross_check_mismatches = r->FindOrCreateCounter(
      "mvopt_match_cross_check_mismatches_total",
      "Compiled verdicts that disagreed with the generic oracle");
  for (int i = 0; i < kNumMatchTiers; ++i) {
    metrics_.match_latency[i] = r->FindOrCreateHistogram(
        "mvopt_match_latency_seconds",
        "Per-candidate match-test wall clock, by deciding tier",
        {{"tier", MatchTierName(static_cast<MatchTier>(i))}});
  }
  for (int i = 0; i < kNumRejectReasons; ++i) {
    metrics_.rejects[i] = r->FindOrCreateCounter(
        "mvopt_match_rejects_total", "Match rejections by reason",
        {{"reason", RejectReasonName(static_cast<RejectReason>(i))}});
  }
  for (int i = 0; i < kNumFilterLevels; ++i) {
    const char* level = FilterLevelName(static_cast<FilterLevel>(i));
    metrics_.level_probes[i] = r->FindOrCreateCounter(
        "mvopt_filter_level_probes_total",
        "Filter-tree partitioning conditions evaluated, by level",
        {{"level", level}});
    metrics_.level_visits[i] = r->FindOrCreateCounter(
        "mvopt_filter_level_visits_total",
        "Lattice nodes qualifying per filter-tree level", {{"level", level}});
  }
  metrics_.lattice_nodes = r->FindOrCreateCounter(
      "mvopt_filter_lattice_nodes_total", "Lattice nodes visited");
  metrics_.subset_searches = r->FindOrCreateCounter(
      "mvopt_filter_subset_searches_total", "Lattice subset searches");
  metrics_.superset_searches = r->FindOrCreateCounter(
      "mvopt_filter_superset_searches_total", "Lattice superset searches");
  metrics_.scan_searches = r->FindOrCreateCounter(
      "mvopt_filter_scan_searches_total",
      "Full-level lattice scans (backjoin-relaxed levels)");
  metrics_.range_checked = r->FindOrCreateCounter(
      "mvopt_filter_range_checked_total",
      "Views run through the full range-constraint check");
  metrics_.range_rejected = r->FindOrCreateCounter(
      "mvopt_filter_range_rejected_total",
      "Views rejected by the full range-constraint check");
  metrics_.probe_latency = r->FindOrCreateHistogram(
      "mvopt_probe_latency_seconds", "FindSubstitutes wall-clock latency");
  snapshot_live_gauge_ = r->FindOrCreateGauge(
      "mvopt_snapshot_live",
      "Catalog snapshots alive in memory (current + retired awaiting "
      "epoch reclamation)");
  snapshot_retired_gauge_ = r->FindOrCreateGauge(
      "mvopt_snapshot_retired",
      "Catalog snapshots retired but not yet reclaimed (waiting for "
      "in-flight probe pins)");
  std::array<Counter*, kNumViewStates> to_state{};
  for (int s = 0; s < kNumViewStates; ++s) {
    to_state[s] = r->FindOrCreateCounter(
        "mvopt_lifecycle_transitions_total",
        "View lifecycle transitions, by destination state",
        {{"to", ViewStateName(static_cast<ViewState>(s))}});
  }
  lifecycle_.set_transition_counters(to_state);
}

void MatchingService::WireStoreCountersLocked() {
  if (store_ == nullptr || !options_.observe.counters_enabled()) return;
  MetricsRegistry* r = options_.observe.registry;
  CatalogStore::StoreCounters c;
  c.wal_appends = r->FindOrCreateCounter("mvopt_wal_appends_total",
                                         "Catalog WAL append attempts");
  c.wal_fsyncs = r->FindOrCreateCounter(
      "mvopt_wal_fsyncs_total", "Catalog WAL commit-point fsyncs");
  c.wal_append_failures = r->FindOrCreateCounter(
      "mvopt_wal_append_failures_total", "Catalog WAL appends that threw");
  c.snapshot_writes = r->FindOrCreateCounter(
      "mvopt_snapshot_writes_total", "Catalog snapshots installed");
  store_->set_counters(c);
}

void MatchingService::PublishLocked(std::unique_ptr<CatalogSnapshot> next) {
  CatalogSnapshot* old =
      snapshot_.exchange(next.release(), std::memory_order_seq_cst);
  // Retire bumps the global epoch and opportunistically reclaims every
  // generation no in-flight pin can still reference.
  reclaim_.Retire(old);
  if (snapshot_retired_gauge_ != nullptr) {
    const int64_t retired = reclaim_.retired_count();
    snapshot_retired_gauge_->Set(retired);
    snapshot_live_gauge_->Set(1 + retired);
  }
}

void MatchingService::CommitProbe(const ProbeDelta& delta,
                                  const FilterSearchStats* fstats) {
  {
    MutexLock stats_lock(stats_mu_);
    stats_.MergeFrom(delta.stats);
    verify_counters_.MergeFrom(delta.verify);
    for (const std::string& t : delta.rejection_traces) {
      if (rejection_traces_.size() >= VerifyStats::kMaxRejectionTraces) break;
      rejection_traces_.push_back(t);
    }
  }
  // Mirror into the registry (relaxed atomics; outside the lock).
  if (metrics_.invocations == nullptr) return;
  const MatchingStats& s = delta.stats;
  if (s.invocations != 0) metrics_.invocations->Increment(s.invocations);
  if (s.candidates != 0) metrics_.candidates->Increment(s.candidates);
  if (s.full_tests != 0) metrics_.full_tests->Increment(s.full_tests);
  if (s.substitutes != 0) metrics_.substitutes->Increment(s.substitutes);
  if (s.match_failures != 0) {
    metrics_.match_failures->Increment(s.match_failures);
  }
  if (s.budget_truncations != 0) {
    metrics_.budget_truncations->Increment(s.budget_truncations);
  }
  if (s.quarantine_skips != 0) {
    metrics_.quarantine_skips->Increment(s.quarantine_skips);
  }
  if (s.stale_tolerated != 0) {
    metrics_.stale_tolerated->Increment(s.stale_tolerated);
  }
  if (s.compiled_hits != 0) {
    metrics_.compiled_hits->Increment(s.compiled_hits);
  }
  if (s.compiled_fallbacks != 0) {
    metrics_.compiled_fallbacks->Increment(s.compiled_fallbacks);
  }
  if (s.cross_check_mismatches != 0) {
    metrics_.cross_check_mismatches->Increment(s.cross_check_mismatches);
  }
  for (size_t i = 0; i < s.rejects.size(); ++i) {
    if (s.rejects[i] != 0) metrics_.rejects[i]->Increment(s.rejects[i]);
  }
  if (fstats == nullptr) return;
  for (int i = 0; i < kNumFilterLevels; ++i) {
    if (fstats->level_probes[i] != 0) {
      metrics_.level_probes[i]->Increment(fstats->level_probes[i]);
    }
    if (fstats->level_qualifying[i] != 0) {
      metrics_.level_visits[i]->Increment(fstats->level_qualifying[i]);
    }
  }
  if (fstats->lattice_nodes_visited != 0) {
    metrics_.lattice_nodes->Increment(fstats->lattice_nodes_visited);
  }
  if (fstats->subset_searches != 0) {
    metrics_.subset_searches->Increment(fstats->subset_searches);
  }
  if (fstats->superset_searches != 0) {
    metrics_.superset_searches->Increment(fstats->superset_searches);
  }
  if (fstats->scan_searches != 0) {
    metrics_.scan_searches->Increment(fstats->scan_searches);
  }
  if (fstats->views_range_checked != 0) {
    metrics_.range_checked->Increment(fstats->views_range_checked);
  }
  if (fstats->views_range_rejected != 0) {
    metrics_.range_rejected->Increment(fstats->views_range_rejected);
  }
}

void MatchingService::GrowBookkeepingLocked(int num_views) {
  const size_t n = static_cast<size_t>(num_views);
  lifecycle_.EnsureSize(n);
  // Self-healing growth so a historical allocation failure here can
  // never skew later ids; new views enter the filter tree in AddView.
  while (in_tree_.size() < n) in_tree_.push_back(1);
}

PersistedView MatchingService::PersistedImageOf(const ViewCatalog& views,
                                                ViewId id) const {
  PersistedView image;
  const ViewDefinition& view = views.view(id);
  image.name = view.name();
  image.sql = view.query().ToSql(*catalog_);
  ViewLifecycleRegistry::Snapshot snap = lifecycle_.snapshot(id);
  image.state = snap.state;
  image.epoch = snap.epoch;
  image.content_checksum = snap.content_checksum;
  return image;
}

void MatchingService::LogViewEventLocked(const ViewCatalog& views, ViewId id) {
  if (store_ == nullptr || !store_->is_open()) return;
  ViewLifecycleRegistry::Snapshot snap = lifecycle_.snapshot(id);
  try {
    store_->AppendViewEvent(views.view(id).name(), snap.state, snap.epoch,
                            snap.content_checksum);
  } catch (const StoreIoError&) {
    // Lifecycle events are best-effort: the in-memory registry stays
    // authoritative, and a lost event only means the view comes back
    // after a crash in its previous durable state — the revalidation
    // pass converges it again.
  }
}

ViewDefinition* MatchingService::AddView(const std::string& name,
                                         SpjgQuery definition,
                                         std::string* error) {
  MutexLock lock(mu_);
  // Build the next generation on a private copy: probes keep running
  // against the published snapshot, and any failure below just discards
  // the copy — rollback is structural, not compensating.
  auto next = std::make_unique<CatalogSnapshot>(*SnapshotLocked());
  ViewDefinition* view = nullptr;
  try {
    view = RegisterLocked(next.get(), name, std::move(definition), error);
    if (view == nullptr) return nullptr;
    if (store_ != nullptr && store_->is_open()) {
      PersistedView image;
      image.name = view->name();
      image.sql = view->query().ToSql(*catalog_);
      image.state = ViewState::kFresh;
      const TableEpochClock* clock = epochs_.load(std::memory_order_acquire);
      image.epoch = clock != nullptr ? clock->now() : 0;
      store_->AppendAddView(image);
    }
  } catch (const StoreIoError& e) {
    if (!e.durable()) {
      // The WAL append failed before the commit point: nothing is on
      // stable storage, so the unpublished clone is simply dropped.
      if (error != nullptr) {
        *error = std::string("view registration aborted and rolled back: ") +
                 e.what();
      }
      return nullptr;
    }
    // Ambiguous commit: the record reached stable storage before the
    // failure, so the registration stands (recovery would replay it) —
    // fall through and publish the clone.
  } catch (const std::exception& e) {
    // Transactional: indexing failed (or registration threw). The clone
    // carries all the partial state; dropping it leaves the published
    // snapshot exactly as it was.
    if (error != nullptr) {
      *error = std::string("view registration aborted and rolled back: ") +
               e.what();
    }
    return nullptr;
  }
  GrowBookkeepingLocked(next->views.num_views());
  const TableEpochClock* clock = epochs_.load(std::memory_order_acquire);
  lifecycle_.MarkFresh(view->id(), clock != nullptr ? clock->now() : 0);
  PublishLocked(std::move(next));
  return view;
}

ViewDefinition* MatchingService::RegisterLocked(CatalogSnapshot* next,
                                                const std::string& name,
                                                SpjgQuery definition,
                                                std::string* error) {
  ViewDefinition* view =
      next->views.AddView(name, std::move(definition), error);
  if (view == nullptr) return nullptr;
  try {
    if (options_.compile_match_programs) {
      // Compile once, here under the writer lock — the program rides the
      // new generation into publication and is shared (shared_ptr) by
      // every later one; the probe path never compiles. A compile
      // failure aborts the registration like an indexing failure,
      // keeping "registered implies tiered exactly as configured".
      // Programs are not persisted: recovery recompiles them from the
      // replayed definition, landing with the tiers a fresh
      // registration would produce.
      MVOPT_FAILPOINT("match_program.compile");
      next->views.SetProgram(
          view->id(), CompileMatchProgram(*catalog_, *view, options_.match));
    }
    // Indexing is the last fallible step, and a failed insert leaves the
    // tree untouched, so only the catalog needs rolling back.
    next->tree.AddView(view->id(),
                       next->views.shared_description(view->id()));
  } catch (...) {
    next->views.RemoveLastView(view->id());
    throw;
  }
  return view;
}

uint64_t MatchingService::StalenessLagOn(const CatalogSnapshot& snap,
                                         ViewId id) const {
  const TableEpochClock* clock = epochs_.load(std::memory_order_acquire);
  if (clock == nullptr) return 0;
  const ViewDescription& d = snap.views.description(id);
  const uint64_t latest = clock->LatestOf(d.source_tables);
  const uint64_t mine = lifecycle_.epoch(id);
  return latest > mine ? latest - mine : 0;
}

uint64_t MatchingService::StalenessLag(ViewId id) const {
  EpochPin pin(reclaim_);
  return StalenessLagOn(*PinnedSnapshot(), id);
}

std::vector<ViewId> MatchingService::StageProbe(const CatalogSnapshot& snap,
                                                const SpjgQuery& query,
                                                QueryContext& ctx,
                                                FilterSearchStats* fstats,
                                                ProbeAnalysis* analysis) {
  std::vector<ViewId> candidates;
  if (snap.views.num_views() == 0) return candidates;
  if (!analysis->analyzed) {
    analysis->analyzed = true;
    analysis->context = AnalyzeQuery(*catalog_, query, options_.match);
    if (options_.use_filter_tree) {
      // The keys include check constraints whatever the match options
      // say (view_description.h); without them in the analysis, the keys
      // get an analysis of their own.
      analysis->keys = options_.match.use_check_constraints
                           ? DescribeQuery(analysis->context)
                           : DescribeQuery(*catalog_, query);
    }
  }
  if (options_.use_filter_tree) {
    candidates = snap.tree.FindCandidates(analysis->keys, fstats, ctx.budget());
  } else {
    // Without the index every view description must be considered; the
    // only cheap pre-test retained is the aggregation/table-set screen
    // performed inside the matcher itself.
    candidates.reserve(snap.views.num_views());
    for (ViewId id = 0; id < snap.views.num_views(); ++id) {
      candidates.push_back(id);
    }
  }
  return candidates;
}

std::vector<MatchingService::GatedCandidate> MatchingService::StagePrefilter(
    const CatalogSnapshot& snap, const std::vector<ViewId>& candidates,
    QueryContext& ctx, ProbeDelta* delta, int64_t* stale_rejects,
    bool* truncated) {
  QueryTrace* trace = ctx.trace();
  const uint64_t tolerance = ctx.max_staleness();
  std::vector<GatedCandidate> gated;
  gated.reserve(candidates.size());
  for (ViewId id : candidates) {
    if (ctx.TickDeadline()) {
      *truncated = true;
      break;
    }
    // Sidelined views never participate, regardless of how they got
    // there (verify quarantine, checksum breaker, recovered state);
    // stale views may only substitute within the query's tolerance.
    const uint64_t lag = StalenessLagOn(snap, id);
    switch (lifecycle_.GateForProbe(id, lag, tolerance)) {
      case ViewLifecycleRegistry::ProbeGate::kSidelined:
        delta->stats.quarantine_skips += 1;
        if (trace != nullptr) {
          trace->RecordVerdict(snap.views.view(id).name(), "skipped",
                               "sidelined");
        }
        break;
      case ViewLifecycleRegistry::ProbeGate::kRejectStale:
        delta->stats.rejects[static_cast<size_t>(RejectReason::kStale)] += 1;
        ++*stale_rejects;
        if (trace != nullptr) {
          trace->RecordVerdict(snap.views.view(id).name(), "rejected",
                               "stale lag=" + std::to_string(lag));
        }
        break;
      case ViewLifecycleRegistry::ProbeGate::kAdmit:
        gated.push_back(GatedCandidate{id, 0});
        break;
      case ViewLifecycleRegistry::ProbeGate::kAdmitStale:
        gated.push_back(GatedCandidate{id, lag});
        break;
    }
  }
  return gated;
}

std::vector<MatchingService::MatchOutcome> MatchingService::StageMatch(
    const CatalogSnapshot& snap, const std::vector<GatedCandidate>& gated,
    QueryContext& ctx, bool* truncated, MatchProbeContext* analysis) {
  std::vector<MatchOutcome> outcomes(gated.size());
  if (gated.empty() || ctx.exhausted()) return outcomes;

  // Both tiers read the match-stage half of the probe analysis; it is
  // built here, so a probe whose candidates all die in the filter or
  // the prefilter never pays for it.
  CompleteMatchProbeContext(analysis);
  // Per-candidate timing feeds the per-tier latency histograms; skipped
  // entirely (no clock reads) when counters are off.
  const bool timed = metrics_.match_latency[0] != nullptr;

  // One candidate's match test: compiled program first (when the view
  // has one and it reaches a verdict), generic oracle otherwise. The
  // tier records who DECIDED — a program that declines (extra view
  // tables needing FK elimination) or throws is a fallback.
  MatchProgramScratch scratch;
  for (size_t i = 0; i < gated.size(); ++i) {
    if (ctx.TickDeadline()) {
      *truncated = true;
      break;  // remaining slots stay kSkipped
    }
    const ViewDefinition& view = snap.views.view(gated[i].id);
    MatchOutcome& o = outcomes[i];
    const SteadyClock::time_point start =
        timed ? SteadyClock::now() : SteadyClock::time_point{};
    try {
      MVOPT_FAILPOINT("matcher.match");
      const std::shared_ptr<const MatchProgram>& program =
          snap.views.program(view.id());
      bool decided = false;
      if (program != nullptr) {
        MatchExecResult ex = ExecuteMatchProgram(*program, *analysis, scratch);
        if (ex.status == MatchExecStatus::kDecided) {
          o.result = std::move(ex.result);
          o.tier = MatchTier::kCompiled;
          decided = true;
        }
      }
      if (!decided) {
        o.result = matcher_.Match(*analysis, view);
        o.tier = MatchTier::kGeneric;
      }
      o.kind = MatchOutcome::Kind::kDone;
    } catch (const std::exception&) {
      // Fault isolation: one failing candidate never poisons the probe.
      o.kind = MatchOutcome::Kind::kError;
    }
    if (timed) o.seconds = SecondsSince(start, SteadyClock::now());
  }
  return outcomes;
}

void MatchingService::StageCompensate(
    const CatalogSnapshot& snap, const SpjgQuery& query,
    const MatchProbeContext& analysis, const std::vector<GatedCandidate>& gated,
    std::vector<MatchOutcome>* outcomes, QueryContext& ctx, VerifyMode mode,
    MatchCrossCheck xmode, ProbeDelta* delta, std::vector<Substitute>* fresh,
    std::vector<Substitute>* stale) {
  QueryTrace* trace = ctx.trace();
  const bool quarantine_active =
      options_.quarantine_threshold > 0 && mode == VerifyMode::kEnforce;
  for (size_t i = 0; i < gated.size(); ++i) {
    const GatedCandidate& g = gated[i];
    MatchOutcome& o = (*outcomes)[i];
    if (o.kind == MatchOutcome::Kind::kSkipped) continue;
    delta->stats.full_tests += 1;
    // Tier attribution: every full test was decided by exactly one tier
    // (compiled_hits + compiled_fallbacks == full_tests); an exception
    // counts as a fallback — the compiled path never reached a verdict.
    if (o.kind == MatchOutcome::Kind::kDone &&
        o.tier == MatchTier::kCompiled) {
      delta->stats.compiled_hits += 1;
    } else {
      delta->stats.compiled_fallbacks += 1;
    }
    if (o.seconds >= 0 && o.kind != MatchOutcome::Kind::kError) {
      metrics_.match_latency[static_cast<size_t>(o.tier)]->Observe(o.seconds);
    }
    if (o.kind == MatchOutcome::Kind::kError) {
      delta->stats.match_failures += 1;
      if (trace != nullptr) {
        trace->RecordVerdict(snap.views.view(g.id).name(), "error",
                             "matcher exception");
      }
      continue;
    }
    // Cross-check: replay this compiled verdict against the generic
    // oracle. A disagreement is a compiler or executor bug; in enforce
    // mode the disagreeing view trips the same circuit breaker verify
    // rejections use, and the oracle's verdict replaces the compiled
    // one — so enforce-mode plans, ordering and stats are byte-identical
    // to the all-generic path by construction.
    if (o.tier == MatchTier::kCompiled && xmode != MatchCrossCheck::kOff) {
      MatchResult oracle = matcher_.Match(analysis, snap.views.view(g.id));
      if (!SameMatchVerdict(o.result, oracle)) {
        delta->stats.cross_check_mismatches += 1;
        if (trace != nullptr) {
          trace->RecordVerdict(snap.views.view(g.id).name(),
                               "cross-check-mismatch",
                               std::string("compiled=") +
                                   VerdictSummary(o.result) +
                                   " oracle=" + VerdictSummary(oracle));
        }
        if (xmode == MatchCrossCheck::kEnforce) {
          lifecycle_.ReportVerifyFailure(
              g.id,
              options_.quarantine_threshold > 0 ? options_.quarantine_threshold
                                                : 1,
              options_.disable_threshold);
          o.result = std::move(oracle);
        }
      }
    }
    MatchResult& result = o.result;
    if (!result.ok()) {
      delta->stats.rejects[static_cast<size_t>(result.reason)] += 1;
      if (trace != nullptr) {
        trace->RecordVerdict(snap.views.view(g.id).name(), "rejected",
                             RejectReasonName(result.reason));
      }
      continue;
    }
    Substitute sub = std::move(*result.substitute);
    if (mode != VerifyMode::kOff) {
      delta->verify.checked += 1;
      Verdict verdict;
      if (MVOPT_FAILPOINT_HIT("rewrite_checker.check")) {
        verdict = Verdict::Fail(CheckCode::kMalformedSubstitute,
                                "failpoint 'rewrite_checker.check'");
      } else {
        verdict = checker_.Check(query, snap.views.view(g.id), sub);
      }
      if (verdict.proven) {
        delta->verify.proven += 1;
        if (quarantine_active) lifecycle_.ReportVerifySuccess(g.id);
      } else {
        RecordVerifyRejection(snap, g.id, verdict, mode, delta);
        if (mode == VerifyMode::kEnforce) {
          if (trace != nullptr) {
            trace->RecordVerdict(
                snap.views.view(g.id).name(), "rejected",
                std::string("verify:") + CheckCodeName(verdict.code));
          }
          continue;
        }
      }
    }
    delta->stats.substitutes += 1;
    if (trace != nullptr) {
      trace->RecordVerdict(snap.views.view(g.id).name(), "accepted",
                           g.lag > 0 ? "stale-tolerated" : "");
    }
    if (g.lag > 0) {
      delta->stats.stale_tolerated += 1;
      sub.staleness_lag = g.lag;
      stale->push_back(std::move(sub));
    } else {
      fresh->push_back(std::move(sub));
    }
  }
}

std::vector<Substitute> MatchingService::FindSubstitutesOn(
    const CatalogSnapshot& snap, const SpjgQuery& query, QueryContext& ctx,
    ProbeAnalysis* analysis) {
  MVOPT_FAILPOINT("matching_service.find_substitutes");
  // One verify-mode (and cross-check-mode) snapshot per probe: a
  // concurrent flip applies to whole probes, never to half of one.
  const VerifyMode vmode = verify_mode();
  const MatchCrossCheck xmode = cross_check();
  // In kOff mode (no registered metrics, no trace, no stage hook) the
  // instrumentation below reduces to null/flag checks: no clock reads,
  // no FilterSearchStats collection, no trace recording. bench/
  // observe_overhead guards this stays within 2% of a build without the
  // hooks.
  QueryTrace* trace = ctx.trace();
  const bool counters = metrics_.invocations != nullptr;
  const bool tracing = trace != nullptr;
  const bool observing = counters || tracing || ctx.has_stage_hook();
  ProbeDelta delta;
  delta.stats.invocations = 1;
  if (tracing) trace->NoteProbe();
  StageTimer timer(observing);
  double total_seconds = 0;
  bool truncated = false;

  // Stage 1 (probe): query analysis + candidate enumeration.
  FilterSearchStats fstats;
  FilterSearchStats* fstats_ptr = observing ? &fstats : nullptr;
  std::vector<ViewId> candidates =
      StageProbe(snap, query, ctx, fstats_ptr, analysis);
  delta.stats.candidates = static_cast<int64_t>(candidates.size());
  if (observing) {
    const double s = timer.Lap();
    total_seconds += s;
    NoteStage(ctx, trace, QueryTrace::Stage::kFilterProbe, "probe", s);
  }

  // Stage 2 (prefilter): sidelined screen + staleness gate.
  int64_t stale_rejects = 0;
  std::vector<GatedCandidate> gated =
      StagePrefilter(snap, candidates, ctx, &delta, &stale_rejects, &truncated);
  if (observing) {
    const double s = timer.Lap();
    total_seconds += s;
    NoteStage(ctx, trace, QueryTrace::Stage::kPrefilter, "prefilter", s);
  }

  // Stage 3 (match): matcher runs, candidate order.
  std::vector<MatchOutcome> outcomes =
      StageMatch(snap, gated, ctx, &truncated, &analysis->context);
  if (observing) {
    const double s = timer.Lap();
    total_seconds += s;
    NoteStage(ctx, trace, QueryTrace::Stage::kMatchTests, "match", s);
  }

  // Stage 4 (compensate): verification + accounting, candidate order.
  std::vector<Substitute> out;
  std::vector<Substitute> stale_out;  // tolerated-stale: ranked after fresh
  StageCompensate(snap, query, analysis->context, gated, &outcomes, ctx, vmode,
                  xmode, &delta, &out, &stale_out);
  if (observing) {
    const double s = timer.Lap();
    total_seconds += s;
    NoteStage(ctx, trace, QueryTrace::Stage::kCompensate, "compensate", s);
  }

  // Stage 5 (cost-annotate): fresh substitutes rank ahead of tolerated-
  // stale ones (which carry their staleness_lag annotation), and a probe
  // that saw stale candidates but produced no fresh substitute records
  // the advisory degradation — the plan either fell back to base tables
  // or leans on a down-ranked stale view.
  if (truncated) delta.stats.budget_truncations += 1;
  if (out.empty() && (stale_rejects > 0 || !stale_out.empty())) {
    ctx.NoteDegradation(DegradationReason::kStaleViewsOnly);
  }
  for (Substitute& sub : stale_out) out.push_back(std::move(sub));
  if (observing) {
    const double s = timer.Lap();
    total_seconds += s;
    NoteStage(ctx, trace, QueryTrace::Stage::kCostAnnotate, "cost-annotate", s);
    if (counters) metrics_.probe_latency->Observe(total_seconds);
    if (tracing) {
      trace->AddCount("candidates", delta.stats.candidates);
      trace->AddCount("full_tests", delta.stats.full_tests);
      trace->AddCount("substitutes", delta.stats.substitutes);
      trace->AddCount("lattice_nodes_visited", fstats.lattice_nodes_visited);
      for (int i = 0; i < kNumFilterLevels; ++i) {
        if (fstats.level_probes[i] == 0 && fstats.level_qualifying[i] == 0) {
          continue;
        }
        const char* level = FilterLevelName(static_cast<FilterLevel>(i));
        trace->AddCount(std::string("filter.probes.") + level,
                        fstats.level_probes[i]);
        trace->AddCount(std::string("filter.qualifying.") + level,
                        fstats.level_qualifying[i]);
      }
    }
  }
  CommitProbe(delta, fstats_ptr);
  return out;
}

std::vector<Substitute> MatchingService::FindSubstitutes(
    const SpjgQuery& query, QueryContext& ctx) {
  ProbeAnalysis analysis;
  return FindSubstitutesShared(query, ctx, &analysis);
}

std::vector<Substitute> MatchingService::FindSubstitutesShared(
    const SpjgQuery& query, QueryContext& ctx, ProbeAnalysis* analysis) {
  // Pin the snapshot, probe lock-free. The pin blocks reclamation (not
  // publication) of the generation the probe walks.
  EpochPin pin(reclaim_);
  return FindSubstitutesOn(*PinnedSnapshot(), query, ctx, analysis);
}

void MatchingService::RecordVerifyRejection(const CatalogSnapshot& snap,
                                            ViewId id, const Verdict& verdict,
                                            VerifyMode mode,
                                            ProbeDelta* delta) {
  delta->verify.rejected += 1;
  delta->verify.by_code[static_cast<size_t>(verdict.code)] += 1;
  if (delta->rejection_traces.size() < VerifyStats::kMaxRejectionTraces) {
    delta->rejection_traces.push_back(snap.views.view(id).name() + ": " +
                                      CheckCodeName(verdict.code) + ": " +
                                      verdict.detail);
  }
  if (options_.quarantine_threshold > 0 && mode == VerifyMode::kEnforce) {
    lifecycle_.ReportVerifyFailure(id, options_.quarantine_threshold,
                                   options_.disable_threshold);
  }
}

// --- durability -----------------------------------------------------------

void MatchingService::AttachStore(CatalogStore* store) {
  MutexLock lock(mu_);
  store->OpenForAppend();
  store_ = store;
  WireStoreCountersLocked();
}

RecoveryReport MatchingService::RecoverFrom(CatalogStore* store) {
  MutexLock lock(mu_);
  assert(SnapshotLocked()->views.num_views() == 0 &&
         "recovery must target an empty service");
  CatalogStore::RecoveredState recovered = store->Recover();
  RecoveryReport report = std::move(recovered.report);
  report.views_recovered = 0;  // re-counted below: only views that rebuild
  // The whole batch lands in ONE next-generation snapshot: per-entry
  // failures roll back on the unpublished clone, and probes racing the
  // recovery keep seeing the (empty) published snapshot until the final
  // publish below.
  auto next = std::make_unique<CatalogSnapshot>(*SnapshotLocked());
  for (PersistedView& image : recovered.views) {
    // Self-healing: a durable entry that no longer replays (schema
    // drift, corruption that survived the CRC, a bad state byte) is
    // quarantined in the report instead of aborting recovery.
    if (static_cast<uint8_t>(image.state) >=
        static_cast<uint8_t>(kNumViewStates)) {
      report.quarantined.push_back({image.name,
                                    EntryQuarantineCause::kInvalidState,
                                    "invalid lifecycle state in durable record"});
      continue;
    }
    std::string err;
    std::optional<SpjgQuery> parsed = ParseSpjg(*catalog_, image.sql, &err);
    if (!parsed.has_value()) {
      report.quarantined.push_back({image.name,
                                    EntryQuarantineCause::kUnparsableSql,
                                    "unparsable SQL: " + err});
      continue;
    }
    ViewDefinition* view = nullptr;
    try {
      view = RegisterLocked(next.get(), image.name, std::move(*parsed), &err);
    } catch (const std::exception& e) {
      err = e.what();
    }
    if (view == nullptr) {
      report.quarantined.push_back(
          {image.name, EntryQuarantineCause::kIndexingFailed, err});
      continue;
    }
    GrowBookkeepingLocked(next->views.num_views());
    ViewLifecycleRegistry::Snapshot snap;
    snap.state = image.state;
    snap.epoch = image.epoch;
    snap.content_checksum = image.content_checksum;
    lifecycle_.Restore(view->id(), snap);
    ++report.views_recovered;
  }
  store->OpenForAppend();
  store_ = store;
  WireStoreCountersLocked();
  PublishLocked(std::move(next));
  return report;
}

void MatchingService::Checkpoint() {
  MutexLock lock(mu_);
  assert(store_ != nullptr && "Checkpoint requires an attached store");
  const ViewCatalog& views = SnapshotLocked()->views;
  std::vector<PersistedView> images;
  images.reserve(static_cast<size_t>(views.num_views()));
  for (ViewId id = 0; id < views.num_views(); ++id) {
    images.push_back(PersistedImageOf(views, id));
  }
  store_->WriteSnapshot(images);
}

// --- lifecycle ------------------------------------------------------------

bool MatchingService::ReportChecksumMismatch(ViewId id) {
  MutexLock lock(mu_);
  if (!lifecycle_.ReportChecksumMismatch(id)) return false;
  if (static_cast<size_t>(id) < in_tree_.size() && in_tree_[id]) {
    auto next = std::make_unique<CatalogSnapshot>(*SnapshotLocked());
    next->tree.RemoveView(id, next->views.description(id));
    in_tree_[id] = 0;
    PublishLocked(std::move(next));
  }
  LogViewEventLocked(SnapshotLocked()->views, id);
  return true;
}

int MatchingService::RevalidationTick(
    const std::function<bool(const ViewDefinition&)>& validate) {
  MutexLock lock(mu_);
  const int64_t tick = ++revalidation_tick_;
  CatalogSnapshot* current = SnapshotLocked();
  GrowBookkeepingLocked(current->views.num_views());
  // Probe the work list first so quiet ticks (the common case) skip the
  // snapshot clone entirely.
  bool tree_work = false;
  for (ViewId id = 0; id < current->views.num_views(); ++id) {
    if (!lifecycle_.IsSidelined(id)) continue;
    if (in_tree_[id] || lifecycle_.DueForRetry(id, tick)) {
      tree_work = true;
      break;
    }
  }
  int readmitted = 0;
  if (tree_work) {
    auto next = std::make_unique<CatalogSnapshot>(*current);
    for (ViewId id = 0; id < next->views.num_views(); ++id) {
      if (!lifecycle_.IsSidelined(id)) continue;
      // Compaction: sidelined views leave the filter tree so probes stop
      // paying for them (probe-side quarantine entry cannot touch the
      // tree — it changes only the lifecycle registry).
      if (in_tree_[id]) {
        next->tree.RemoveView(id, next->views.description(id));
        in_tree_[id] = 0;
      }
      if (!lifecycle_.DueForRetry(id, tick)) continue;
      bool ok = false;
      try {
        ok = validate != nullptr && validate(next->views.view(id));
        if (ok) {
          // Re-insertion; strongly exception-safe.
          next->tree.AddView(id, next->views.shared_description(id));
          in_tree_[id] = 1;
        }
      } catch (const std::exception&) {
        ok = false;
      }
      if (ok) {
        const TableEpochClock* clock = epochs_.load(std::memory_order_acquire);
        lifecycle_.Readmit(id, clock != nullptr ? clock->now() : 0);
        LogViewEventLocked(next->views, id);
        ++readmitted;
      } else {
        lifecycle_.RecordRetryFailure(id, tick);
      }
    }
    PublishLocked(std::move(next));
  }
  // Under the exclusive lock no transition is in flight, so the
  // incremental gauges must agree with the per-entry states exactly.
  // AuditCounters also resyncs on mismatch, so the check must run even
  // in NDEBUG builds.
  bool gauges_consistent = lifecycle_.AuditCounters();
  assert(gauges_consistent && "lifecycle gauge drift detected");
  (void)gauges_consistent;
  return readmitted;
}

bool MatchingService::ReadmitView(ViewId id) {
  MutexLock lock(mu_);
  CatalogSnapshot* current = SnapshotLocked();
  GrowBookkeepingLocked(current->views.num_views());
  const TableEpochClock* clock = epochs_.load(std::memory_order_acquire);
  if (!lifecycle_.Readmit(id, clock != nullptr ? clock->now() : 0)) {
    return false;
  }
  if (static_cast<size_t>(id) < in_tree_.size() && !in_tree_[id]) {
    auto next = std::make_unique<CatalogSnapshot>(*current);
    try {
      next->tree.AddView(id, next->views.shared_description(id));
      in_tree_[id] = 1;
      PublishLocked(std::move(next));
    } catch (const std::exception&) {
      // Leave it out of the tree (drop the clone); the next revalidation
      // tick retries.
    }
  }
  LogViewEventLocked(SnapshotLocked()->views, id);
  return true;
}

void MatchingService::ReplaceProgramForTest(
    ViewId id, std::shared_ptr<const MatchProgram> program) {
  MutexLock lock(mu_);
  auto next = std::make_unique<CatalogSnapshot>(*SnapshotLocked());
  next->views.SetProgram(id, std::move(program));
  PublishLocked(std::move(next));
}

bool MatchingService::IsQuarantined(ViewId id) const {
  return lifecycle_.IsSidelined(id);
}

std::vector<std::string> MatchingService::QuarantinedViews() const {
  EpochPin pin(reclaim_);
  const CatalogSnapshot& snap = *PinnedSnapshot();
  std::vector<std::string> out;
  for (ViewId id = 0; id < snap.views.num_views(); ++id) {
    if (lifecycle_.IsSidelined(id)) {
      out.push_back(snap.views.view(id).name());
    }
  }
  return out;
}

MatchingStats MatchingService::stats() const {
  MutexLock stats_lock(stats_mu_);
  return stats_;
}

VerifyStats MatchingService::verify_stats() const {
  VerifyStats snapshot;
  snapshot.quarantined_views =
      static_cast<int64_t>(lifecycle_.num_sidelined());
  MutexLock stats_lock(stats_mu_);
  snapshot.checked = verify_counters_.checked;
  snapshot.proven = verify_counters_.proven;
  snapshot.rejected = verify_counters_.rejected;
  snapshot.by_code = verify_counters_.by_code;
  snapshot.rejection_traces = rejection_traces_;
  return snapshot;
}

MatchingStats MatchingService::ResetStats() {
  // Swap under the same lock probes commit under: every in-flight probe
  // lands entirely in the returned snapshot or entirely after the reset;
  // no increment is ever lost.
  MutexLock stats_lock(stats_mu_);
  MatchingStats previous = stats_;
  stats_ = MatchingStats{};
  return previous;
}

VerifyStats MatchingService::ResetVerifyStats() {
  VerifyStats previous;
  previous.quarantined_views =
      static_cast<int64_t>(lifecycle_.num_sidelined());
  MutexLock stats_lock(stats_mu_);
  previous.checked = verify_counters_.checked;
  previous.proven = verify_counters_.proven;
  previous.rejected = verify_counters_.rejected;
  previous.by_code = verify_counters_.by_code;
  previous.rejection_traces = std::move(rejection_traces_);
  verify_counters_ = VerifyCounters{};
  rejection_traces_.clear();
  return previous;
}

std::optional<UnionSubstitute> MatchingService::FindUnionSubstituteOn(
    const CatalogSnapshot& snap, const SpjgQuery& query, QueryContext& ctx) {
  QueryTrace* trace = ctx.trace();
  const bool observing = trace != nullptr || ctx.has_stage_hook();
  StageTimer timer(observing);
  std::optional<UnionSubstitute> result;
  if (!query.is_aggregate && snap.views.num_views() >= 2 &&
      !ctx.TickDeadline()) {
    // Candidate legs need not contain the query's ranges (that is the
    // point), so probe with only the structural conditions intact: every
    // view whose table set qualifies. Sidelined views are excluded here
    // too — a union leg is as much a rewrite as a direct substitute —
    // and stale views are admitted only within the context's tolerance.
    ProbeDelta delta;  // quarantine skips only; not a FindSubstitutes probe
    const uint64_t tolerance = ctx.max_staleness();
    std::vector<ViewId> candidates;
    std::vector<TableId> query_tables;
    for (const TableRef& t : query.tables) query_tables.push_back(t.table);
    std::sort(query_tables.begin(), query_tables.end());
    query_tables.erase(std::unique(query_tables.begin(), query_tables.end()),
                       query_tables.end());
    for (ViewId id = 0; id < snap.views.num_views(); ++id) {
      const uint64_t lag = StalenessLagOn(snap, id);
      switch (lifecycle_.GateForProbe(id, lag, tolerance)) {
        case ViewLifecycleRegistry::ProbeGate::kSidelined:
          delta.stats.quarantine_skips += 1;
          continue;
        case ViewLifecycleRegistry::ProbeGate::kRejectStale:
          continue;
        case ViewLifecycleRegistry::ProbeGate::kAdmit:
        case ViewLifecycleRegistry::ProbeGate::kAdmitStale:
          break;
      }
      const ViewDescription& d = snap.views.description(id);
      if (d.is_aggregate) continue;
      bool tables_ok = std::includes(d.source_tables.begin(),
                                     d.source_tables.end(),
                                     query_tables.begin(),
                                     query_tables.end());
      if (tables_ok) candidates.push_back(id);
    }
    if (delta.stats.quarantine_skips != 0) CommitProbe(delta, nullptr);
    UnionMatchOptions opts;
    opts.match = options_.match;
    UnionMatcher matcher(catalog_, &snap.views, opts);
    result = matcher.Match(query, candidates, &ctx);
  }
  if (observing) {
    const double s = timer.Lap();
    NoteStage(ctx, trace, QueryTrace::Stage::kUnionMatch, "union-match", s);
  }
  return result;
}

std::optional<UnionSubstitute> MatchingService::FindUnionSubstitute(
    const SpjgQuery& query, QueryContext& ctx) {
  EpochPin pin(reclaim_);
  return FindUnionSubstituteOn(*PinnedSnapshot(), query, ctx);
}

}  // namespace mvopt
