#include "shard/sharded_catalog_service.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <iterator>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "observe/metrics.h"
#include "verify/invariant_auditor.h"

namespace mvopt {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  return buf;
}

}  // namespace

// --- report --------------------------------------------------------------

std::string ShardRecoveryReport::ToJson() const {
  std::string j = "{";
  j += "\"num_shards\":" + std::to_string(shards.size());
  j += ",\"all_healthy\":" + std::string(all_healthy() ? "true" : "false");
  j += ",\"quarantined_shards\":" + std::to_string(num_quarantined());
  j += ",\"shards\":[";
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardOutcome& s = shards[i];
    if (i > 0) j += ",";
    j += "{\"shard\":" + std::to_string(s.shard);
    j += ",\"health\":\"" + std::string(ShardHealthName(s.health)) + "\"";
    j += ",\"cause\":\"" + std::string(ShardQuarantineCauseName(s.cause)) +
         "\"";
    j += ",\"detail\":\"" + JsonEscape(s.detail) + "\"";
    j += ",\"recovery_seconds\":" + FormatSeconds(s.recovery_seconds);
    j += ",\"report\":" + s.report.ToJson();
    j += "}";
  }
  j += "]}";
  return j;
}

bool ValidateShardRecoveryReportJson(const std::string& json,
                                     std::string* error) {
  if (!ValidateJson(json, error)) return false;
  static constexpr const char* kRequiredKeys[] = {
      "\"num_shards\":", "\"all_healthy\":", "\"quarantined_shards\":",
      "\"shards\":",
  };
  for (const char* key : kRequiredKeys) {
    if (json.find(key) == std::string::npos) {
      if (error != nullptr) {
        *error = std::string("missing mandatory key ") + key;
      }
      return false;
    }
  }
  // Every "health" value must be a known ShardHealth name.
  size_t pos = 0;
  while ((pos = json.find("\"health\":\"", pos)) != std::string::npos) {
    pos += 10;
    const size_t end = json.find('"', pos);
    if (end == std::string::npos) break;
    const std::string health = json.substr(pos, end - pos);
    bool known = false;
    for (int i = 0; i < kNumShardHealths; ++i) {
      if (health == ShardHealthName(static_cast<ShardHealth>(i))) {
        known = true;
        break;
      }
    }
    if (!known) {
      if (error != nullptr) *error = "unknown shard health: " + health;
      return false;
    }
    pos = end;
  }
  // Every "cause" value must come from a known machine-readable set —
  // shard-level causes, or entry-level ones inside the embedded
  // per-shard RecoveryReports.
  pos = 0;
  while ((pos = json.find("\"cause\":\"", pos)) != std::string::npos) {
    pos += 9;
    const size_t end = json.find('"', pos);
    if (end == std::string::npos) break;
    const std::string cause = json.substr(pos, end - pos);
    bool known = false;
    for (int i = 0; i < kNumShardQuarantineCauses; ++i) {
      if (cause ==
          ShardQuarantineCauseName(static_cast<ShardQuarantineCause>(i))) {
        known = true;
        break;
      }
    }
    for (int i = 0; !known && i < kNumEntryQuarantineCauses; ++i) {
      if (cause ==
          EntryQuarantineCauseName(static_cast<EntryQuarantineCause>(i))) {
        known = true;
      }
    }
    if (!known) {
      if (error != nullptr) *error = "unknown quarantine cause: " + cause;
      return false;
    }
    pos = end;
  }
  return true;
}

// --- service -------------------------------------------------------------

ShardedCatalogService::ShardedCatalogService(const Catalog* catalog,
                                             ShardedCatalogOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      router_(catalog, options_.num_shards < 1 ? 1 : options_.num_shards) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    if (!options_.dir.empty()) {
      shard->store = std::make_unique<CatalogStore>(options_.dir + "/shard_" +
                                                    std::to_string(i));
    }
    {
      MutexLock lock(shard->writer_mu);
      shard->service =
          std::make_unique<MatchingService>(catalog_, options_.service);
      if (shard->store != nullptr) {
        shard->service->AttachStore(shard->store.get());
      }
      shard->live.store(shard->service.get(), std::memory_order_release);
    }
    shards_.push_back(std::move(shard));
  }
  {
    MutexLock lock(admin_mu_);
    admin_.resize(shards_.size());
  }
  RegisterMetrics();
}

ShardedCatalogService::~ShardedCatalogService() = default;

void ShardedCatalogService::RegisterMetrics() {
  if (!options_.observe.counters_enabled()) return;
  MetricsRegistry* reg = options_.observe.registry;
  metrics_.quarantined = reg->FindOrCreateGauge(
      "mvopt_shard_quarantined", "Catalog shards currently quarantined");
  metrics_.scrub_attempts = reg->FindOrCreateCounter(
      "mvopt_shard_scrub_attempts_total",
      "Scrubber rebuild attempts on quarantined shards");
  metrics_.scrub_repairs = reg->FindOrCreateCounter(
      "mvopt_shard_scrub_repairs_total",
      "Repair checkpoints written after a shard readmission");
  metrics_.readmissions = reg->FindOrCreateCounter(
      "mvopt_shard_readmissions_total",
      "Quarantined shards returned to service by the scrubber");
  metrics_.partial_probes = reg->FindOrCreateCounter(
      "mvopt_shard_partial_probes_total",
      "Probes that skipped at least one quarantined routed shard");
  metrics_.recovery_latency.resize(shards_.size(), nullptr);
  for (size_t i = 0; i < shards_.size(); ++i) {
    metrics_.recovery_latency[i] = reg->FindOrCreateHistogram(
        "mvopt_shard_recovery_latency_seconds",
        "Per-shard recovery task wall clock",
        {{"shard", std::to_string(i)}});
  }
}

void ShardedCatalogService::UpdateQuarantineGauge() {
  if (metrics_.quarantined == nullptr) return;
  int64_t n = 0;
  for (const auto& shard : shards_) {
    if (shard->health.load(std::memory_order_acquire) ==
        ShardHealth::kQuarantined) {
      ++n;
    }
  }
  metrics_.quarantined->Set(n);
}

ViewId ShardedCatalogService::AddView(const std::string& name,
                                      SpjgQuery definition,
                                      std::string* error) {
  // Validate before routing: DescribeView assumes a well-formed view, so
  // rejection must happen first (same order a single service uses).
  if (auto why = ViewDefinition::Validate(definition)) {
    if (error != nullptr) *error = *why;
    return kInvalidViewId;
  }
  int shard_idx = 0;
  try {
    shard_idx = router_.RouteView(definition);
    MVOPT_FAILPOINT("catalog_shard.add_route");
  } catch (const FailpointTriggered& e) {
    if (error != nullptr) *error = e.what();
    return kInvalidViewId;
  }
  Shard& shard = *shards_[static_cast<size_t>(shard_idx)];
  // Registrations are writes at this layer: hold the shard's writer
  // mutex so the health verdict, the id-overflow check and the
  // delegation are atomic with respect to a concurrent scrub swap.
  MutexLock lock(shard.writer_mu);
  if (shard.health.load(std::memory_order_acquire) != ShardHealth::kHealthy) {
    // Registering elsewhere would break the routing invariant (the view
    // would be invisible to probes after the owner is readmitted), so
    // the owner's quarantine is a registration failure.
    if (error != nullptr) {
      *error = "owning shard " + std::to_string(shard_idx) +
               " is quarantined (" +
               ShardQuarantineCauseName(shard_quarantine_cause(shard_idx)) +
               ")";
    }
    return kInvalidViewId;
  }
  // Shards hand out dense local ids, so the id this registration would
  // get is the shard's current view count. Reject BEFORE delegating when
  // the composite id would not fit ViewId: otherwise GlobalId would wrap
  // (signed overflow, UB) and the view, though registered, would be
  // unreachable — or worse, alias another shard's id.
  const ViewId predicted_local = shard.service->views().num_views();
  std::optional<ViewId> predicted_global =
      ComposeGlobalId(shard_idx, predicted_local);
  if (!predicted_global.has_value()) {
    if (error != nullptr) {
      *error = "view id space exhausted: local id " +
               std::to_string(predicted_local) + " on shard " +
               std::to_string(shard_idx) +
               " does not compose into the ViewId range";
    }
    return kInvalidViewId;
  }
  ViewDefinition* view = shard.service->AddView(name, std::move(definition),
                                                error);
  if (view == nullptr) return kInvalidViewId;
  return GlobalId(shard_idx, view->id());
}

std::optional<ViewId> ShardedCatalogService::ComposeGlobalId(
    int shard, ViewId local) const {
  const ViewId n = static_cast<ViewId>(shards_.size());
  const ViewId s = static_cast<ViewId>(shard);
  if (local < 0 || s < 0 || s >= n) return std::nullopt;
  // local * n + s <= max  <=>  local <= (max - s) / n, checked without
  // performing the (potentially overflowing) multiplication.
  if (local > (std::numeric_limits<ViewId>::max() - s) / n) {
    return std::nullopt;
  }
  return local * n + s;
}

std::vector<Substitute> ShardedCatalogService::FindSubstitutes(
    const SpjgQuery& query, QueryContext& ctx) {
  const std::vector<int> routed = router_.RouteQuery(query);
  std::vector<Substitute> fresh;
  std::vector<Substitute> stale;
  bool partial = false;
  // One query analysis per probe: every shard runs the same options over
  // the same catalog, so the first shard that probes builds it (inside
  // its own probe stage) and the rest reuse it.
  MatchingService::ProbeAnalysis analysis;
  for (int idx : routed) {
    Shard& shard = *shards_[static_cast<size_t>(idx)];
    if (shard.health.load(std::memory_order_acquire) !=
        ShardHealth::kHealthy) {
      partial = true;
      continue;
    }
    // Lock-free: the live pointer is stable-or-retired (a concurrent
    // scrub swap retires the old service, never destroys it), and the
    // service synchronizes the probe internally via its snapshot pin.
    MatchingService* service = shard.live.load(std::memory_order_acquire);
    // The caller's context is reused serially, so the budget accrues
    // across shards exactly as it does across candidates in one shard.
    std::vector<Substitute> subs =
        service->FindSubstitutesShared(query, ctx, &analysis);
    for (Substitute& sub : subs) {
      sub.view_id = GlobalId(idx, sub.view_id);
      // Keep fresh substitutes ahead of tolerated-stale ones *globally*
      // (each shard already orders its own), preserving the single-
      // service ordering contract the optimizer relies on.
      (sub.staleness_lag == 0 ? fresh : stale).push_back(std::move(sub));
    }
  }
  if (partial) {
    ctx.NoteDegradation(DegradationReason::kPartialCatalog);
    if (metrics_.partial_probes != nullptr) {
      metrics_.partial_probes->Increment();
    }
  }
  fresh.insert(fresh.end(), std::make_move_iterator(stale.begin()),
               std::make_move_iterator(stale.end()));
  return fresh;
}

std::optional<UnionSubstitute> ShardedCatalogService::FindUnionSubstitute(
    const SpjgQuery& query, QueryContext& ctx) {
  const std::vector<int> routed = router_.RouteQuery(query);
  std::optional<UnionSubstitute> result;
  bool partial = false;
  for (int idx : routed) {
    Shard& shard = *shards_[static_cast<size_t>(idx)];
    if (shard.health.load(std::memory_order_acquire) !=
        ShardHealth::kHealthy) {
      partial = true;
      continue;
    }
    if (!result.has_value()) {
      MatchingService* service = shard.live.load(std::memory_order_acquire);
      result = service->FindUnionSubstitute(query, ctx);
      if (result.has_value()) {
        for (Substitute& leg : result->legs) {
          leg.view_id = GlobalId(idx, leg.view_id);
        }
      }
    }
  }
  if (partial) {
    ctx.NoteDegradation(DegradationReason::kPartialCatalog);
    if (metrics_.partial_probes != nullptr) {
      metrics_.partial_probes->Increment();
    }
  }
  return result;
}

const ViewDefinition& ShardedCatalogService::ResolveView(ViewId id) const {
  const Shard& shard = *shards_[static_cast<size_t>(ShardOfId(id))];
  // Lock-free. The returned reference stays valid indefinitely: view
  // definitions are shared across the service's snapshot generations,
  // and replaced shard services are retired (kept alive), never
  // destroyed, for this object's lifetime.
  const MatchingService* service =
      shard.live.load(std::memory_order_acquire);
  return service->ResolveView(LocalId(id));
}

bool ShardedCatalogService::AnyRoutedUnhealthy(const SpjgQuery& query) const {
  for (int idx : router_.RouteQuery(query)) {
    if (shards_[static_cast<size_t>(idx)]->health.load(
            std::memory_order_acquire) != ShardHealth::kHealthy) {
      return true;
    }
  }
  return false;
}

ShardQuarantineCause ShardedCatalogService::shard_quarantine_cause(
    int shard) const {
  MutexLock lock(admin_mu_);
  return admin_[static_cast<size_t>(shard)].cause;
}

// --- recovery ------------------------------------------------------------

ShardRecoveryReport ShardedCatalogService::RecoverAll(ThreadPool* pool) {
  ShardRecoveryReport report;
  report.shards.resize(shards_.size());
  if (pool != nullptr && pool->num_workers() > 0 && shards_.size() > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      ShardRecoveryReport::ShardOutcome* out = &report.shards[i];
      const int idx = static_cast<int>(i);
      // RecoverShard absorbs every failure into a quarantine verdict —
      // pool tasks must not throw.
      tasks.emplace_back([this, idx, out] { RecoverShard(idx, out); });
    }
    pool->RunBatch(tasks);
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) {
      RecoverShard(static_cast<int>(i), &report.shards[i]);
    }
  }
  return report;
}

void ShardedCatalogService::RecoverShard(
    int shard_idx, ShardRecoveryReport::ShardOutcome* outcome) {
  outcome->shard = shard_idx;
  const auto start = std::chrono::steady_clock::now();
  Shard& shard = *shards_[static_cast<size_t>(shard_idx)];
  // Replay, verdict and swap under the writer mutex: a registration that
  // appended to the store after the replay read it would be in neither
  // the rebuilt service nor the WAL its next checkpoint resets.
  MutexLock lock(shard.writer_mu);
  std::unique_ptr<MatchingService> fresh;
  std::string detail;
  const ShardQuarantineCause cause =
      Rebuild(shard, "catalog_shard.recover", nullptr, &fresh, &detail,
              &outcome->report);
  outcome->recovery_seconds = SecondsSince(start);
  if (static_cast<size_t>(shard_idx) < metrics_.recovery_latency.size() &&
      metrics_.recovery_latency[static_cast<size_t>(shard_idx)] != nullptr) {
    metrics_.recovery_latency[static_cast<size_t>(shard_idx)]->Observe(
        outcome->recovery_seconds);
  }
  if (cause == ShardQuarantineCause::kNone) {
    Readmit(shard, shard_idx, std::move(fresh));
    outcome->health = ShardHealth::kHealthy;
    outcome->cause = ShardQuarantineCause::kNone;
  } else {
    // Leave the store closed so the scrubber starts from a clean fd
    // state; the files themselves are untouched (evidence preserved).
    if (shard.store != nullptr) shard.store->Close();
    Quarantine(shard, shard_idx, cause, detail);
    outcome->health = ShardHealth::kQuarantined;
    outcome->cause = cause;
    outcome->detail = detail;
  }
}

ShardQuarantineCause ShardedCatalogService::Rebuild(
    Shard& shard, const char* entry_site, const char* exit_site,
    std::unique_ptr<MatchingService>* fresh, std::string* detail,
    RecoveryReport* report) {
  ShardQuarantineCause cause = ShardQuarantineCause::kNone;
  try {
    if (entry_site != nullptr) MVOPT_FAILPOINT(entry_site);
    *fresh = std::make_unique<MatchingService>(catalog_, options_.service);
    if (shard.store != nullptr) {
      // A previous failed attempt may have left the WAL fd open.
      shard.store->Close();
      const RecoveryReport rep = (*fresh)->RecoverFrom(shard.store.get());
      if (report != nullptr) *report = rep;
      if (!rep.snapshot_error.empty()) {
        cause = ShardQuarantineCause::kSnapshotCorrupt;
        *detail = rep.snapshot_error;
      } else if (!rep.quarantined.empty()) {
        // Entry-level quarantines are survivable for a monolithic
        // catalog; under fault isolation they demote the whole shard —
        // its blast radius is small enough to sideline, and readmission
        // requires a clean rebuild.
        cause = ShardQuarantineCause::kReplayFailed;
        *detail = std::to_string(rep.quarantined.size()) +
                  " durable entries unreplayable (first: " +
                  rep.quarantined.front().name + ")";
      } else if (options_.quarantine_on_wal_truncation && rep.wal_tail_torn) {
        cause = ShardQuarantineCause::kWalCorrupt;
        *detail = "WAL tail torn: " +
                  std::to_string(rep.wal_bytes_truncated) +
                  " bytes truncated";
      }
    }
    if (cause == ShardQuarantineCause::kNone &&
        options_.audit_after_recovery) {
      const std::string violations = AuditShard(**fresh);
      if (!violations.empty()) {
        cause = ShardQuarantineCause::kAuditFailed;
        *detail = violations;
      }
    }
    if (cause == ShardQuarantineCause::kNone && exit_site != nullptr) {
      MVOPT_FAILPOINT(exit_site);
    }
  } catch (const FailpointTriggered& e) {
    cause = ShardQuarantineCause::kFailpoint;
    *detail = e.what();
  } catch (const StoreIoError& e) {
    cause = ShardQuarantineCause::kIoError;
    *detail = e.what();
  } catch (const std::exception& e) {
    cause = ShardQuarantineCause::kReplayFailed;
    *detail = e.what();
  }
  return cause;
}

std::string ShardedCatalogService::AuditShard(MatchingService& service) const {
  const AuditReport audit =
      InvariantAuditor().AuditFilterTree(service.filter_tree());
  return audit.ok() ? std::string() : audit.Summary();
}

void ShardedCatalogService::Quarantine(Shard& shard, int shard_idx,
                                       ShardQuarantineCause cause,
                                       const std::string& detail) {
  shard.health.store(ShardHealth::kQuarantined, std::memory_order_release);
  {
    MutexLock lock(admin_mu_);
    ShardAdmin& admin = admin_[static_cast<size_t>(shard_idx)];
    admin.cause = cause;
    admin.detail = detail;
    admin.backoff_window = options_.scrub_backoff_initial_ticks;
    admin.backoff_remaining = 0;  // first scrub attempt runs immediately
  }
  UpdateQuarantineGauge();
}

void ShardedCatalogService::Readmit(Shard& shard, int shard_idx,
                                    std::unique_ptr<MatchingService> fresh) {
  const TableEpochClock* epochs = nullptr;
  {
    MutexLock lock(admin_mu_);
    epochs = epochs_;
  }
  if (epochs != nullptr) fresh->set_epoch_clock(epochs);
  std::unique_ptr<MatchingService> old = std::move(shard.service);
  shard.service = std::move(fresh);
  // Publish for probes before flipping health: a probe that sees
  // kHealthy must find the replacement, never the retired service.
  shard.live.store(shard.service.get(), std::memory_order_release);
  shard.health.store(ShardHealth::kHealthy, std::memory_order_release);
  {
    MutexLock lock(admin_mu_);
    admin_[static_cast<size_t>(shard_idx)] = ShardAdmin{};
    // Retire, don't destroy: ResolveView references handed out before
    // the swap must stay valid.
    if (old != nullptr) retired_.push_back(std::move(old));
  }
  UpdateQuarantineGauge();
}

int ShardedCatalogService::CheckpointAll() {
  int checkpointed = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    if (shard.store == nullptr) continue;
    try {
      MutexLock lock(shard.writer_mu);
      if (shard.health.load(std::memory_order_acquire) !=
          ShardHealth::kHealthy) {
        continue;
      }
      MVOPT_FAILPOINT("catalog_shard.checkpoint");
      shard.service->Checkpoint();
      ++checkpointed;
    } catch (const StoreIoError&) {
      // Per-shard isolation: the shard's snapshot protocol is atomic, so
      // a failed checkpoint leaves its WAL authoritative and the shard
      // healthy. The next CheckpointAll retries it.
    } catch (const FailpointTriggered&) {
      // Injected fault at the site: same contract.
    }
  }
  return checkpointed;
}

int ShardedCatalogService::ScrubTick() {
  int readmitted = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    // The whole attempt (health check, replay, swap and repair
    // checkpoint) runs under the writer mutex. Quarantine takes it too,
    // so a registration that passed its health check has finished its
    // WAL append before the replay reads the store.
    MutexLock lock(shard.writer_mu);
    if (shard.health.load(std::memory_order_acquire) !=
        ShardHealth::kQuarantined) {
      continue;
    }
    {
      MutexLock admin_lock(admin_mu_);
      ShardAdmin& admin = admin_[i];
      if (admin.backoff_remaining > 0) {
        --admin.backoff_remaining;
        continue;
      }
    }
    if (metrics_.scrub_attempts != nullptr) {
      metrics_.scrub_attempts->Increment();
    }
    std::unique_ptr<MatchingService> fresh;
    std::string detail;
    const ShardQuarantineCause cause = Rebuild(
        shard, nullptr, "catalog_shard.scrub_swap", &fresh, &detail, nullptr);
    if (cause != ShardQuarantineCause::kNone) {
      // Circuit breaker: the fault persists, double the wait before the
      // next attempt so a rotting shard doesn't consume every tick.
      if (shard.store != nullptr) shard.store->Close();
      MutexLock admin_lock(admin_mu_);
      ShardAdmin& admin = admin_[i];
      admin.cause = cause;
      admin.detail = detail;
      admin.backoff_window = NextScrubBackoffWindow(
          admin.backoff_window, options_.scrub_backoff_initial_ticks,
          options_.scrub_backoff_max_ticks);
      admin.backoff_remaining = admin.backoff_window;
      continue;
    }
    Readmit(shard, static_cast<int>(i), std::move(fresh));
    ++readmitted;
    if (metrics_.readmissions != nullptr) metrics_.readmissions->Increment();
    if (shard.store != nullptr) {
      try {
        MVOPT_FAILPOINT("catalog_shard.scrub_checkpoint");
        shard.service->Checkpoint();
        if (metrics_.scrub_repairs != nullptr) {
          metrics_.scrub_repairs->Increment();
        }
      } catch (const StoreIoError&) {
        // The WAL stays authoritative; the readmission stands and the
        // next CheckpointAll retries the repair snapshot.
      } catch (const FailpointTriggered&) {
        // Same: a fault after the swap never un-readmits the shard.
      }
    }
  }
  return readmitted;
}

void ShardedCatalogService::ForceQuarantine(int shard,
                                            ShardQuarantineCause cause,
                                            const std::string& detail) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  MutexLock lock(s.writer_mu);
  Quarantine(s, shard, cause, detail);
}

int ShardedCatalogService::NextScrubBackoffWindow(int current,
                                                  int initial_ticks,
                                                  int max_ticks) {
  if (max_ticks < 1) max_ticks = 1;
  if (initial_ticks < 1) initial_ticks = 1;
  if (initial_ticks > max_ticks) initial_ticks = max_ticks;
  if (current <= 0) return initial_ticks;
  if (current > max_ticks / 2) return max_ticks;  // doubling would exceed
                                                  // max (or overflow int)
  return current * 2;
}

// --- lifecycle forwarding ------------------------------------------------

void ShardedCatalogService::set_epoch_clock(const TableEpochClock* clock) {
  {
    MutexLock lock(admin_mu_);
    epochs_ = clock;
  }
  // admin_mu_ is released before touching shard services (lock-order
  // rule: admin_mu_ is never held across a shard-service call).
  for (auto& shard : shards_) {
    MutexLock lock(shard->writer_mu);
    shard->service->set_epoch_clock(clock);
  }
}

int ShardedCatalogService::RevalidationTickAll(
    const std::function<bool(const ViewDefinition&)>& validate) {
  int readmitted = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->writer_mu);
    if (shard->health.load(std::memory_order_acquire) !=
        ShardHealth::kHealthy) {
      continue;
    }
    readmitted += shard->service->RevalidationTick(validate);
  }
  return readmitted;
}

MatchingStats ShardedCatalogService::stats() const {
  MatchingStats total;
  for (const auto& shard : shards_) {
    // Lock-free read side: the service's stats() is internally
    // probe-atomic, and a racing scrub swap at worst reports the retired
    // generation's counters (which the swap resets anyway).
    total.MergeFrom(
        shard->live.load(std::memory_order_acquire)->stats());
  }
  return total;
}

VerifyStats ShardedCatalogService::verify_stats() const {
  VerifyStats total;
  for (const auto& shard : shards_) {
    const VerifyStats s =
        shard->live.load(std::memory_order_acquire)->verify_stats();
    total.checked += s.checked;
    total.proven += s.proven;
    total.rejected += s.rejected;
    total.quarantined_views += s.quarantined_views;
    for (size_t i = 0; i < total.by_code.size(); ++i) {
      total.by_code[i] += s.by_code[i];
    }
    for (const std::string& trace : s.rejection_traces) {
      if (total.rejection_traces.size() >=
          VerifyStats::kMaxRejectionTraces) {
        break;
      }
      total.rejection_traces.push_back(trace);
    }
  }
  return total;
}

}  // namespace mvopt
