// The view-matching optimizer's benchmark driver.
//
//   mvopt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--work-dir DIR] [--span-file PATH]
//
// Every workload runs the same phases against its own catalog
// configuration and query stream (README.md describes them in full):
//
//   set-up    generate inputs, register (or persist and recover) the
//             views, warm up; kSetupReps times, the median reported
//   measure   kWindows windows, each a closed-loop slice (one client
//             calling Optimizer::Optimize) and a serving round
//             (ServingService under an open-loop generator at a nominal
//             then a peak rate, with views registered beside the reads)
//   checks    correctness checks, after the timed phases
//   recover   repeated crash recovery of the catalog as the run left it,
//             in groups between the remaining set-ups
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run.
// The exit code is non-zero when a correctness check fails.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "index/matching_service.h"
#include "inputs.h"
#include "optimizer/optimizer.h"
#include "rewrite/match_program.h"
#include "rewrite/view_description.h"
#include "serve/serving_service.h"
#include "shard/sharded_catalog_service.h"
#include "tpch/schema.h"
#include "tracing.h"

namespace perfbench {
namespace {

using namespace mvopt;

// --- fixed configuration (documented in README.md) ---------------------------

constexpr int kSetupReps = 3;
constexpr int kWarmupQueries = 200;
constexpr int kNumShards = 4;
/// RecoverAll pool: with the calling thread, one thread per shard.
constexpr int kRecoveryWorkers = 3;
constexpr int kRecoverReps = 6;
constexpr int kServeWorkers = 2;
/// Measurement windows: each is a closed-loop slice and a serving
/// round, so every metric samples the whole run.
constexpr int kWindows = 12;
/// Share of each window given to the closed-loop slice; the serving
/// round gets the rest.
constexpr double kClosedLoopShare = 0.6;
constexpr double kNominalQps = 600;
constexpr double kPeakQps = 900;
constexpr double kViewAddsPerSecond = 40;
/// Admission queue of the serving service. A shared host can stop the
/// whole process for 50-100 ms; at the peak rate that fills the default
/// 64-slot queue past the overload controller's high-water mark, and the
/// tier escalates for a few dozen answers. 256 slots absorb such a
/// stall; the latencies, timed from each request's due time, still
/// show it.
constexpr size_t kServeQueueCapacity = 256;
/// Serving latency limit: an answer slower than this (due time to
/// completion) is not goodput.
constexpr double kServeLimitMs = 25;
/// The check pass captures the probes of every kReplayStride-th query
/// for the layer replay.
constexpr int kReplayStride = 4;
/// The closed loop cycles over this prefix of the query stream (every
/// prefix holds the stream's mix of query kinds). A query's latency is
/// its fastest pass, and that minimum settles only with a few dozen
/// passes: over the whole 2000-query stream a run makes about eight.
constexpr size_t kLoopQueries = 500;
/// Queries whose best plans the sharded catalog must match unsharded.
constexpr int kRoutingSample = 400;
/// The five stage spans must cover at least this share of their
/// find_substitutes span (and never more than all of it).
constexpr double kStageCoverageMin = 0.80;
constexpr double kStageCoverageMax = 1.001;

struct RunConfig {
  WorkloadKind kind = WorkloadKind::kPaperFig2;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
  std::string span_file;

  double slice_seconds() const {
    return seconds / kWindows * kClosedLoopShare;
  }
  double round_seconds() const {
    return seconds / kWindows - slice_seconds();
  }
  /// Views one serving round registers.
  int adds_per_round() const {
    return static_cast<int>(std::llround(round_seconds() * kViewAddsPerSecond));
  }
};

/// Operations attempted and failed, over every failure kind.
struct Accounting {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Correctness checks; any failure makes the run exit non-zero.
struct Checks {
  bool ok = true;
  void Expect(bool condition, const std::string& what) {
    if (condition) return;
    ok = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

MatchingService::Options ServiceOptions(WorkloadKind kind) {
  MatchingService::Options options;
  if (kind == WorkloadKind::kViewAnswerable) {
    options.verify_mode = VerifyMode::kEnforce;
  }
  return options;
}

ShardedCatalogOptions ShardOptions(WorkloadKind kind, const std::string& dir) {
  ShardedCatalogOptions options;
  options.num_shards = kNumShards;
  options.dir = dir;
  options.service = ServiceOptions(kind);
  return options;
}

std::string ViewName(int index) { return "v" + std::to_string(index); }

Clock::duration Dur(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// --- the system under test -------------------------------------------------

/// One built system: catalog, inputs and the catalog service (unsharded
/// in memory, or sharded with a durable WAL per shard). Members are
/// destroyed bottom-up, so the services go before the catalog and the
/// WAL directory is removed last.
struct Stack {
  WorkloadKind kind = WorkloadKind::kPaperFig2;
  std::unique_ptr<ScratchDir> wal_dir;
  std::unique_ptr<Catalog> catalog;
  Inputs inputs;
  std::unique_ptr<MatchingService> single;
  std::unique_ptr<ShardedCatalogService> sharded;
  /// Indexes into inputs.views of the registered views, in order.
  std::vector<int> registered;

  SubstituteSource* source() {
    if (sharded != nullptr) return sharded.get();
    return single.get();
  }

  /// Registers inputs.views[index]; false when the view is rejected.
  bool AddView(int index) {
    std::string error;
    const SpjgQuery& def = inputs.views[static_cast<size_t>(index)];
    const bool ok = sharded != nullptr
                        ? sharded->AddView(ViewName(index), def, &error) !=
                              kInvalidViewId
                        : single->AddView(ViewName(index), def, &error) !=
                              nullptr;
    if (ok) {
      registered.push_back(index);
    } else {
      std::fprintf(stderr, "AddView %s rejected: %s\n",
                   ViewName(index).c_str(), error.c_str());
    }
    return ok;
  }

  MatchingStats stats() const {
    return sharded != nullptr ? sharded->stats() : single->stats();
  }
  VerifyStats verify_stats() const {
    return sharded != nullptr ? sharded->verify_stats()
                              : single->verify_stats();
  }

  /// The services a probe visits (for the layer replay).
  ProbeRouter Router() {
    if (sharded == nullptr) {
      const MatchingService* s = single.get();
      return [s](const SpjgQuery&) {
        return std::vector<const MatchingService*>{s};
      };
    }
    ShardedCatalogService* s = sharded.get();
    return [s](const SpjgQuery& query) {
      std::vector<const MatchingService*> out;
      for (int shard : s->RouteShards(query)) {
        out.push_back(&s->shard_service(shard));
      }
      return out;
    };
  }

  int64_t RetiredSnapshots() {
    if (sharded == nullptr) return single->retired_snapshots();
    int64_t n = 0;
    for (int s = 0; s < sharded->num_shards(); ++s) {
      n += sharded->shard_service(s).retired_snapshots();
    }
    return n;
  }
};

std::unique_ptr<Stack> BuildStack(const RunConfig& config, Accounting* acct,
                                  Checks* checks) {
  auto stack = std::make_unique<Stack>();
  stack->kind = config.kind;
  stack->catalog = std::make_unique<Catalog>();
  tpch::BuildSchema(stack->catalog.get(), kTpchScale);
  stack->inputs = MakeInputs(*stack->catalog, config.kind, config.seed,
                             kWindows * config.adds_per_round());

  if (config.kind == WorkloadKind::kServeChurn) {
    // Persist the views through one service, then start the serving
    // catalog the way production does: parallel recovery from the WALs.
    stack->wal_dir = std::make_unique<ScratchDir>(config.work_dir, "wal-");
    const ShardedCatalogOptions options =
        ShardOptions(config.kind, stack->wal_dir->path());
    stack->sharded = std::make_unique<ShardedCatalogService>(
        stack->catalog.get(), options);
    for (int i = 0; i < kInitialViews; ++i) acct->Count(stack->AddView(i));
    stack->sharded.reset();  // clean shutdown; the WALs hold the views
    stack->sharded = std::make_unique<ShardedCatalogService>(
        stack->catalog.get(), options);
    ThreadPool pool(kRecoveryWorkers);
    const ShardRecoveryReport report = stack->sharded->RecoverAll(&pool);
    for (const auto& shard : report.shards) {
      acct->Count(shard.health == ShardHealth::kHealthy);
    }
    checks->Expect(report.all_healthy(), "start-up recovery: all shards "
                                         "healthy");
  } else {
    stack->single = std::make_unique<MatchingService>(
        stack->catalog.get(), ServiceOptions(config.kind));
    for (int i = 0; i < kInitialViews; ++i) acct->Count(stack->AddView(i));
  }

  Optimizer optimizer(stack->catalog.get(), stack->source());
  for (int i = 0; i < kWarmupQueries; ++i) {
    QueryContext ctx;
    (void)optimizer.Optimize(stack->inputs.queries[static_cast<size_t>(i)],
                             ctx);
  }
  return stack;
}

// --- phase: closed-loop optimize -------------------------------------------

/// Closed-loop latencies and throughput. The stream is replayed in
/// passes. On a shared host the CPU is taken away for milliseconds at a
/// time, for seconds on end, so a query's latency is its best pass and
/// the throughput is that of the fastest whole pass: the fastest run is
/// the steadiest measure of the work it costs.
struct LoopResult {
  std::vector<std::vector<double>> samples_us;  ///< per query
  size_t next = 0;  ///< stream position the next window starts at
  /// Closed-loop wall time of each completed pass, and of the pass in
  /// progress (a pass may span windows; the time between them is not
  /// counted).
  std::vector<double> pass_seconds;
  double open_pass_seconds = 0;
  int64_t calls = 0;

  /// Best-of-passes latency of every query run at least once.
  std::vector<double> QueryLatencies() const {
    std::vector<double> out;
    for (const std::vector<double>& s : samples_us) {
      if (!s.empty()) out.push_back(*std::min_element(s.begin(), s.end()));
    }
    return out;
  }
  /// Optimize calls completed per wall second in the fastest whole pass
  /// over the stream (over all calls when no pass completed).
  double qps() const {
    if (pass_seconds.empty()) {
      return Ratio(static_cast<double>(calls), open_pass_seconds);
    }
    return Ratio(static_cast<double>(samples_us.size()),
                 *std::min_element(pass_seconds.begin(), pass_seconds.end()));
  }
};

/// One window of a client calling Optimize back to back over the query
/// stream for `seconds`, continuing where `out`'s previous window
/// stopped. With a span log, every call is an `optimize` span and every
/// context carries the stage hook.
void RunClosedLoop(Stack& stack, SubstituteSource* source, double seconds,
                   SpanLog* log, Accounting* acct, LoopResult* out) {
  Optimizer optimizer(stack.catalog.get(), source);
  const std::vector<SpjgQuery>& queries = stack.inputs.queries;
  QueryContext::StageHook hook;
  if (log != nullptr) hook = MakeStageHook(log);
  const size_t n = std::min(queries.size(), kLoopQueries);
  out->samples_us.resize(n);
  auto mark = Clock::now();
  const auto stop = mark + Dur(seconds);
  while (Clock::now() < stop) {
    const size_t q = out->next++ % n;
    QueryContext ctx;
    if (log != nullptr) ctx.set_stage_hook(hook);
    Span span;
    span.kind = SpanKind::kOptimize;
    span.id = log != nullptr ? log->NewId() : 0;
    ParentScope scope(span.id);
    span.start = Clock::now();
    const OptimizationResult r = optimizer.Optimize(queries[q], ctx);
    span.end = Clock::now();
    if (log != nullptr) log->Add(span);
    out->samples_us[q].push_back(SecondsBetween(span.start, span.end) * 1e6);
    ++out->calls;
    acct->Count(r.plan != nullptr && r.degradation == DegradationReason::kNone);
    if (out->next % n == 0) {  // a pass is complete
      const auto now = Clock::now();
      out->pass_seconds.push_back(out->open_pass_seconds +
                                  SecondsBetween(mark, now));
      out->open_pass_seconds = 0;
      mark = now;
    }
  }
  out->open_pass_seconds += SecondsSince(mark);
}

// --- phase: open-loop serving with view churn -------------------------------

/// The serving phase runs as identical rounds (same requests, same
/// schedule); like the closed loop, latencies are taken per request
/// position as the best round.
struct ServeOutcome {
  /// Nominal-segment latency, due time to completion, [round][position];
  /// a failed request counts as missing the latency limit.
  std::vector<std::vector<double>> nominal_ms;
  /// Peak-segment goodput per round.
  std::vector<double> goodput_qps;
  /// Registration latency per round.
  std::vector<std::vector<double>> add_us;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  /// How late the generator and the writer issued their operations.
  std::vector<double> late_ms;
  /// inputs.views indexes registered during the phase.
  std::vector<int> added;
  /// Offset into the churn views of the next registration.
  int next_churn = 0;
  int64_t submitted = 0;
  int64_t shed = 0;
  int64_t admitted = 0;
  int64_t degraded = 0;
  int64_t tier_escalations = 0;
  int64_t max_queue_depth = 0;

  /// Goodput of the best round: a stretch of seconds in which the host
  /// gives the workers less CPU pushes a round's answers past the
  /// latency limit, and such stretches rarely cover every round.
  double BestGoodput() const {
    double best = 0;
    for (double g : goodput_qps) best = std::max(best, g);
    return best;
  }
  /// Best-of-rounds latency of each nominal request position.
  std::vector<double> NominalLatencies() const {
    std::vector<double> out(nominal_ms.front().size(), 0);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = nominal_ms.front()[i];
      for (const auto& round : nominal_ms) out[i] = std::min(out[i], round[i]);
    }
    return out;
  }
  /// Quantile q of registration latency in the best round.
  double AddLatency(double q) const {
    double best = 0;
    for (const auto& round : add_us) {
      if (round.empty()) continue;
      const double v = Quantile(round, q);
      if (best == 0 || v < best) best = v;
    }
    return best;
  }
  std::vector<double> AllAddLatencies() const {
    std::vector<double> out;
    for (const auto& round : add_us) out.insert(out.end(), round.begin(), round.end());
    return out;
  }
};

struct Pending {
  std::shared_ptr<ServeTicket> ticket;
  Clock::time_point due;
  Clock::time_point submitted;
  uint64_t id = 0;
  int64_t position = 0;
  bool peak = false;
};

/// One serving round of `seconds`: a nominal segment at kNominalQps,
/// then a peak segment at kPeakQps, open loop, on a fresh
/// ServingService. The main thread submits each request when it is due
/// and, between submissions, stamps completed tickets; a writer thread
/// registers new views at kViewAddsPerSecond on its own schedule, so a
/// slow registration delays no read. With the service's two workers
/// that is four threads. With a span log, each request is a `request`
/// span (due time to completion) and the source's probes become its
/// children.
void RunServingRound(Stack& stack, SubstituteSource* source, double seconds,
                     SpanLog* log, Accounting* acct, ServeOutcome* outcome) {
  ServingOptions options;
  options.num_workers = kServeWorkers;
  options.queue_capacity = kServeQueueCapacity;
  if (log != nullptr) {
    options.pre_execute_hook = [](const ServeRequest& request) {
      ParentScope::SetCurrent(request.rng_seed);
    };
  }
  if (stack.sharded != nullptr) {
    ShardedCatalogService* sharded = stack.sharded.get();
    options.partial_catalog_probe = [sharded](const SpjgQuery& query) {
      return sharded->AnyRoutedUnhealthy(query);
    };
  }
  ServingService service(stack.catalog.get(), source, options);

  ServeOutcome& out = *outcome;
  const std::vector<SpjgQuery>& queries = stack.inputs.queries;
  const double segment = seconds / 2;
  const int64_t n_nominal = std::llround(segment * kNominalQps);
  const int64_t n_requests = n_nominal + std::llround(segment * kPeakQps);
  const int64_t n_adds = std::llround(seconds * kViewAddsPerSecond);
  const auto t0 = Clock::now() + Dur(0.005);
  const auto peak_start = t0 + Dur(segment);
  std::vector<double>& nominal_ms = out.nominal_ms.emplace_back(
      static_cast<size_t>(n_nominal), 0.0);
  std::vector<double>& add_us = out.add_us.emplace_back();
  int64_t peak_good = 0;
  Clock::time_point peak_end = peak_start;

  std::vector<double> add_late_ms;
  std::vector<char> add_ok;
  std::thread writer([&] {
    for (int64_t j = 0; j < n_adds; ++j) {
      const double offset =
          (static_cast<double>(j) + 0.5) / kViewAddsPerSecond;
      const auto due = t0 + Dur(offset);
      std::this_thread::sleep_until(due);
      const auto start = Clock::now();
      add_late_ms.push_back(SecondsBetween(due, start) * 1e3);
      const int index = kInitialViews + out.next_churn + static_cast<int>(j);
      const bool ok = stack.AddView(index);
      add_us.push_back(SecondsSince(start) * 1e6);
      add_ok.push_back(ok ? 1 : 0);
      if (ok) out.added.push_back(index);
    }
  });

  auto record = [&](const Pending& p, Clock::time_point stamp) {
    const ServeResult r = p.ticket->Wait();
    const double latency_ms = SecondsBetween(p.due, stamp) * 1e3;
    const bool admitted = r.outcome == AdmissionOutcome::kAdmitted;
    const bool degraded =
        admitted && (r.tier != ServingTier::kFull ||
                     r.opt.degradation != DegradationReason::kNone);
    const bool ok = admitted && !degraded && r.has_plan &&
                    r.error_kind == ServeErrorKind::kNone;
    acct->Count(ok);
    if (admitted) {
      ++out.admitted;
      out.queue_ms.push_back(r.queue_seconds * 1e3);
      out.exec_ms.push_back(SecondsBetween(p.submitted, stamp) * 1e3 -
                            r.queue_seconds * 1e3);
    } else {
      ++out.shed;
    }
    if (degraded) ++out.degraded;
    if (p.peak) {
      if (ok && latency_ms <= kServeLimitMs) ++peak_good;
      peak_end = std::max(peak_end, stamp);
    } else {
      nominal_ms[static_cast<size_t>(p.position)] =
          ok ? latency_ms : std::max(latency_ms, kServeLimitMs);
    }
    if (log != nullptr) {
      Span span;
      span.kind = SpanKind::kRequest;
      span.id = p.id;
      span.start = p.due;
      span.end = stamp;
      log->Add(span);
    }
  };

  std::vector<Pending> outstanding;
  int64_t k = 0;  // next request
  while (k < n_requests || !outstanding.empty()) {
    bool progressed = false;
    for (size_t i = 0; i < outstanding.size();) {
      if (!outstanding[i].ticket->done()) {
        ++i;
        continue;
      }
      record(outstanding[i], Clock::now());
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
      progressed = true;
    }
    if (k < n_requests) {
      const bool peak = k >= n_nominal;
      const auto due =
          peak ? peak_start + Dur(static_cast<double>(k - n_nominal) / kPeakQps)
               : t0 + Dur(static_cast<double>(k) / kNominalQps);
      const auto now = Clock::now();
      if (now >= due) {
        out.late_ms.push_back(SecondsBetween(due, now) * 1e3);
        ServeRequest request;
        request.query = queries[static_cast<size_t>(k) % queries.size()];
        request.rng_seed =
            log != nullptr ? log->NewId() : static_cast<uint64_t>(k) + 1;
        Pending p;
        p.due = due;
        p.id = request.rng_seed;
        p.position = peak ? k - n_nominal : k;
        p.peak = peak;
        p.submitted = Clock::now();
        p.ticket = service.Submit(std::move(request));
        outstanding.push_back(std::move(p));
        ++out.submitted;
        ++k;
        continue;
      }
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  writer.join();
  service.Drain();
  for (char ok : add_ok) acct->Count(ok != 0);
  out.late_ms.insert(out.late_ms.end(), add_late_ms.begin(), add_late_ms.end());
  out.next_churn += static_cast<int>(n_adds);
  out.goodput_qps.push_back(Ratio(static_cast<double>(peak_good),
                                  SecondsBetween(peak_start, peak_end)));
  const ServingStats stats = service.stats();
  out.tier_escalations += stats.tier_escalations;
  out.max_queue_depth = std::max(out.max_queue_depth, stats.max_queue_depth);
}

// --- correctness checks ------------------------------------------------------

struct PassResult {
  std::vector<std::string> plans;  ///< PhysPlan::ToString per query
  int64_t uses_view = 0;
  std::vector<double> costs;
};

/// Optimizes queries [0, limit) once each. `on_query` (if set) runs
/// before each query with its index.
PassResult OptimizeAll(const Catalog& catalog, SubstituteSource* source,
                       const std::vector<SpjgQuery>& queries, size_t limit,
                       const OptimizerOptions& options,
                       const QueryContext::StageHook& hook,
                       const std::function<void(size_t)>& on_query) {
  Optimizer optimizer(&catalog, source, options);
  PassResult out;
  limit = std::min(limit, queries.size());
  for (size_t i = 0; i < limit; ++i) {
    if (on_query) on_query(i);
    QueryContext ctx;
    if (hook) ctx.set_stage_hook(hook);
    const OptimizationResult r = optimizer.Optimize(queries[i], ctx);
    out.plans.push_back(r.plan != nullptr ? r.plan->ToString(catalog)
                                          : std::string("<no plan>"));
    out.costs.push_back(r.cost);
    if (r.uses_view) ++out.uses_view;
  }
  return out;
}

/// Sorted names of the views whose substitutes `source` finds for
/// `query`.
std::vector<std::string> SubstituteNames(SubstituteSource& source,
                                         const SpjgQuery& query) {
  QueryContext ctx;
  std::vector<std::string> names;
  for (const Substitute& sub : source.FindSubstitutes(query, ctx)) {
    names.push_back(source.ResolveView(sub.view_id).name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Forwards to `inner` and lists its substitutes in view-name order,
/// fresh before stale, so that two sources finding the same substitutes
/// hand the optimizer the same list.
class NameOrderSource : public SubstituteSource {
 public:
  explicit NameOrderSource(SubstituteSource* inner) : inner_(inner) {}

  std::vector<Substitute> FindSubstitutes(const SpjgQuery& query,
                                          QueryContext& ctx) override {
    std::vector<Substitute> subs = inner_->FindSubstitutes(query, ctx);
    std::sort(subs.begin(), subs.end(),
              [this](const Substitute& a, const Substitute& b) {
                if ((a.staleness_lag > 0) != (b.staleness_lag > 0)) {
                  return a.staleness_lag == 0;
                }
                return inner_->ResolveView(a.view_id).name() <
                       inner_->ResolveView(b.view_id).name();
              });
    return subs;
  }
  std::optional<UnionSubstitute> FindUnionSubstitute(
      const SpjgQuery& query, QueryContext& ctx) override {
    return inner_->FindUnionSubstitute(query, ctx);
  }
  const ViewDefinition& ResolveView(ViewId id) const override {
    return inner_->ResolveView(id);
  }

 private:
  SubstituteSource* inner_;
};

size_t FirstDifference(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return a.size() == b.size() ? static_cast<size_t>(-1) : n;
}

struct CheckOutcome {
  double plans_using_views_frac = 0;
  double plan_cost_ratio = 0;
  std::vector<SpjgQuery> captured;
  int64_t captured_queries = 0;
  ReplayTotals replay;
  /// Sample queries whose sharded and unsharded best plans differ when
  /// each source lists its substitutes in its own order.
  int64_t tie_divergences = 0;
};

/// Every check of the run, on the catalog as the timed phases left it.
CheckOutcome RunChecks(Stack& stack, Checks* checks) {
  CheckOutcome out;
  const Catalog& catalog = *stack.catalog;
  const std::vector<SpjgQuery>& queries = stack.inputs.queries;

  // Untraced plans, and the base-tables-only plans they improve on.
  const PassResult plain = OptimizeAll(catalog, stack.source(), queries,
                                       queries.size(), OptimizerOptions(),
                                       nullptr, nullptr);
  OptimizerOptions base_options;
  base_options.enable_view_matching = false;
  const PassResult base = OptimizeAll(catalog, nullptr, queries,
                                      queries.size(), base_options, nullptr,
                                      nullptr);
  double log_ratio = 0;
  int64_t costed = 0;
  for (size_t i = 0; i < plain.costs.size(); ++i) {
    if (plain.costs[i] > 0 && base.costs[i] > 0) {
      log_ratio += std::log(plain.costs[i] / base.costs[i]);
      ++costed;
    }
  }
  checks->Expect(costed == static_cast<int64_t>(queries.size()),
                 "every plan and base plan has a positive cost");
  out.plan_cost_ratio = costed > 0 ? std::exp(log_ratio / costed) : 0;
  out.plans_using_views_frac =
      Ratio(static_cast<double>(plain.uses_view),
            static_cast<double>(queries.size()));

  // The traced path (decorator, spans, stage hooks) must choose the same
  // plans, and every substitute it returns must re-prove under
  // RewriteChecker::Check.
  RewriteChecker checker(&catalog);
  SpanLog log;
  TracingSource traced(stack.source(), &log);
  traced.set_checker(&checker);
  const PassResult with_trace = OptimizeAll(
      catalog, &traced, queries, queries.size(), OptimizerOptions(),
      MakeStageHook(&log), [&](size_t i) {
        const bool capture = i % kReplayStride == 0;
        traced.set_capturing(capture);
        if (capture) ++out.captured_queries;
      });
  const size_t diff = FirstDifference(plain.plans, with_trace.plans);
  checks->Expect(diff == static_cast<size_t>(-1),
                 "traced and untraced plan digests agree (first difference "
                 "at query " + std::to_string(diff) + ")");
  checks->Expect(traced.checked() > 0 || traced.substitutes() == 0,
                 "substitutes were re-proved");
  checks->Expect(traced.unproven() == 0,
                 std::to_string(traced.unproven()) +
                     " substitutes do not re-prove; first: " +
                     traced.first_unproven());
  out.captured = traced.TakeCaptured();

  // Compiled and generic tiers agree on every replayed compiled hit.
  out.replay = ReplayProbes(catalog, out.captured, stack.Router());
  checks->Expect(out.replay.verdict_mismatches == 0,
                 std::to_string(out.replay.verdict_mismatches) +
                     " compiled/generic verdict mismatches; first: " +
                     out.replay.first_mismatch);

  // Routing invariant: every probe finds the same views as an unsharded
  // control holding the same views, and on a fixed sample of queries the
  // two choose byte-identical plans when both hand the optimizer their
  // substitutes in view-name order. Any difference fails the run.
  //
  // In their own orders the plans can still differ on a cost tie between
  // two views: the optimizer keeps the first of equal-cost alternatives,
  // and the sharded catalog lists substitutes shard by shard, each in its
  // filter tree's order, which no unsharded control reproduces (not even
  // one registered in shard-major order, the control of DESIGN.md
  // section 14). Such queries are printed and counted in
  // shard.tie_plan_divergences.
  if (stack.sharded != nullptr) {
    MatchingService reference(&catalog, ServiceOptions(stack.kind));
    int64_t reference_views = 0;
    for (int s = 0; s < stack.sharded->num_shards(); ++s) {
      const ViewCatalog& views = stack.sharded->shard_service(s).views();
      for (int i = 0; i < views.num_views(); ++i) {
        const ViewDefinition& view = views.view(i);
        std::string error;
        checks->Expect(
            reference.AddView(view.name(), view.query(), &error) != nullptr,
            "reference registration of " + view.name() + ": " + error);
        ++reference_views;
      }
    }
    checks->Expect(
        reference_views == static_cast<int64_t>(stack.registered.size()),
        "the shards hold " + std::to_string(reference_views) + " of " +
            std::to_string(stack.registered.size()) + " registered views");
    int64_t set_mismatches = 0;
    for (const SpjgQuery& probe : out.captured) {
      if (SubstituteNames(*stack.sharded, probe) !=
          SubstituteNames(reference, probe)) {
        ++set_mismatches;
      }
    }
    checks->Expect(set_mismatches == 0,
                   std::to_string(set_mismatches) +
                       " probes find different views sharded and unsharded");
    NameOrderSource sharded_by_name(stack.sharded.get());
    NameOrderSource reference_by_name(&reference);
    const PassResult sharded_plans =
        OptimizeAll(catalog, &sharded_by_name, queries, kRoutingSample,
                    OptimizerOptions(), nullptr, nullptr);
    const PassResult reference_plans =
        OptimizeAll(catalog, &reference_by_name, queries, kRoutingSample,
                    OptimizerOptions(), nullptr, nullptr);
    for (size_t i = 0; i < reference_plans.plans.size(); ++i) {
      checks->Expect(sharded_plans.plans[i] == reference_plans.plans[i],
                     "query " + std::to_string(i) + ": sharded plan " +
                         sharded_plans.plans[i] +
                         " differs from unsharded plan " +
                         reference_plans.plans[i]);
    }
    const PassResult unsharded =
        OptimizeAll(catalog, &reference, queries, kRoutingSample,
                    OptimizerOptions(), nullptr, nullptr);
    for (size_t i = 0; i < unsharded.plans.size(); ++i) {
      if (plain.plans[i] == unsharded.plans[i]) continue;
      ++out.tie_divergences;
      std::fprintf(stderr,
                   "TIE DIVERGENCE: query %zu: sharded plan %s, unsharded "
                   "plan %s\n",
                   i, plain.plans[i].c_str(), unsharded.plans[i].c_str());
    }
  }
  return out;
}

// --- phase: recovery ---------------------------------------------------------

/// Crash recovery of the catalog as the run left it. The constructor
/// makes the durable state: the sharded catalog is shut down (its WALs
/// are the durable state); the unsharded one is checkpointed to a
/// scratch store. Each RecoverOnce then recovers a fresh service from
/// it, timed, and checks that every registered view comes back.
class Recovery {
 public:
  Recovery(Stack& stack, const RunConfig& config)
      : stack_(stack),
        want_(static_cast<int>(stack.registered.size())) {
    if (stack.sharded != nullptr) {
      stack.sharded.reset();
      return;
    }
    dir_ = std::make_unique<ScratchDir>(config.work_dir, "snapshot-");
    CatalogStore store(dir_->path());
    stack.single->AttachStore(&store);
    stack.single->Checkpoint();
    stack.single.reset();
  }

  void RecoverOnce(Accounting* acct, Checks* checks) {
    if (dir_ == nullptr) {
      RecoverSharded(acct, checks);
    } else {
      RecoverSingle(acct, checks);
    }
  }

  /// Wall time of the fastest repetition.
  double BestSeconds() const {
    return *std::min_element(seconds_.begin(), seconds_.end());
  }
  /// Slowest shard and sum over shards, in the fastest repetition
  /// (sharded only).
  std::pair<double, double> BestShardMs() const {
    if (shard_ms_.empty()) return {0, 0};
    const size_t best = static_cast<size_t>(
        std::min_element(seconds_.begin(), seconds_.end()) - seconds_.begin());
    return shard_ms_[best];
  }

 private:
  void RecoverSharded(Accounting* acct, Checks* checks) {
    ShardedCatalogService service(
        stack_.catalog.get(), ShardOptions(stack_.kind, stack_.wal_dir->path()));
    ThreadPool pool(kRecoveryWorkers);
    const auto start = Clock::now();
    const ShardRecoveryReport report = service.RecoverAll(&pool);
    seconds_.push_back(SecondsSince(start));
    double max_ms = 0;
    double sum_ms = 0;
    int views = 0;
    for (const auto& shard : report.shards) {
      acct->Count(shard.health == ShardHealth::kHealthy);
      max_ms = std::max(max_ms, shard.recovery_seconds * 1e3);
      sum_ms += shard.recovery_seconds * 1e3;
      views += service.shard_service(shard.shard).views().num_views();
    }
    shard_ms_.push_back({max_ms, sum_ms});
    checks->Expect(report.all_healthy(), "recovery: all shards healthy");
    ExpectViews(views, checks);
  }

  void RecoverSingle(Accounting* acct, Checks* checks) {
    CatalogStore store(dir_->path());
    MatchingService service(stack_.catalog.get(), ServiceOptions(stack_.kind));
    const auto start = Clock::now();
    const RecoveryReport report = service.RecoverFrom(&store);
    seconds_.push_back(SecondsSince(start));
    acct->Count(report.quarantined.empty());
    checks->Expect(report.snapshot_error.empty() && report.quarantined.empty(),
                   "recovery: clean report");
    ExpectViews(service.views().num_views(), checks);
  }

  void ExpectViews(int views, Checks* checks) const {
    checks->Expect(views == want_, "recovery restored " +
                                       std::to_string(views) + " of " +
                                       std::to_string(want_) + " views");
  }

  Stack& stack_;
  const int want_;
  std::unique_ptr<ScratchDir> dir_;
  std::vector<double> seconds_;
  std::vector<std::pair<double, double>> shard_ms_;
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- span aggregation --------------------------------------------------------

struct SpanTotals {
  int64_t optimizes = 0;
  double optimize_seconds = 0;
  int64_t probes = 0;  ///< find_substitutes under optimize
  double probe_seconds = 0;
  std::array<double, 5> stage_seconds{};
  int64_t request_probes = 0;  ///< find_substitutes under request
  double request_probe_seconds = 0;
};

SpanTotals AggregateSpans(const std::vector<Span>& spans) {
  SpanTotals t;
  std::unordered_map<uint64_t, SpanKind> kind_of;
  kind_of.reserve(spans.size());
  for (const Span& s : spans) kind_of[s.id] = s.kind;
  for (const Span& s : spans) {
    const double d = SecondsBetween(s.start, s.end);
    switch (s.kind) {
      case SpanKind::kOptimize:
        ++t.optimizes;
        t.optimize_seconds += d;
        break;
      case SpanKind::kRequest:
        break;
      case SpanKind::kFindSubstitutes: {
        const auto parent = kind_of.find(s.parent);
        if (parent == kind_of.end()) break;
        if (parent->second == SpanKind::kOptimize) {
          ++t.probes;
          t.probe_seconds += d;
        } else if (parent->second == SpanKind::kRequest) {
          ++t.request_probes;
          t.request_probe_seconds += d;
        }
        break;
      }
      default:
        t.stage_seconds[static_cast<size_t>(s.kind) -
                        static_cast<size_t>(SpanKind::kStageProbe)] += d;
        break;
    }
  }
  return t;
}

// --- the run -----------------------------------------------------------------

int Run(const RunConfig& config) {
  Accounting acct;
  Checks checks;
  const auto origin = Clock::now();

  std::vector<double> setup_seconds;
  auto start = Clock::now();
  std::unique_ptr<Stack> stack = BuildStack(config, &acct, &checks);
  setup_seconds.push_back(SecondsSince(start));

  SpanLog log;
  TracingSource traced_source(stack->source(), &log);
  std::vector<Metric> metrics;

  // The measured part alternates closed-loop slices and serving rounds,
  // so each metric samples the whole run rather than one stretch of it.
  // A traced run splits each closed-loop slice into an untraced and a
  // traced half: their throughput ratio is the tracing overhead.
  const double slice = config.slice_seconds();
  const double round = config.round_seconds();
  LoopResult plain;
  LoopResult loop;
  ServeOutcome serve;
  int64_t loop_checks = 0;
  int64_t loop_substitutes = 0;
  for (int w = 0; w < kWindows; ++w) {
    if (!config.trace) {
      RunClosedLoop(*stack, stack->source(), slice, nullptr, &acct, &loop);
      RunServingRound(*stack, stack->source(), round, nullptr, &acct, &serve);
      continue;
    }
    RunClosedLoop(*stack, stack->source(), slice / 2, nullptr, &acct, &plain);
    const int64_t checked_before = stack->verify_stats().checked;
    const int64_t substitutes_before = traced_source.substitutes();
    RunClosedLoop(*stack, &traced_source, slice / 2, &log, &acct, &loop);
    loop_checks += stack->verify_stats().checked - checked_before;
    loop_substitutes += traced_source.substitutes() - substitutes_before;
    RunServingRound(*stack, &traced_source, round, &log, &acct, &serve);
  }
  // Memory under load, before the checks build their reference objects.
  const double peak_rss_mb = PeakRssMb();

  if (!config.trace) {
    const CheckOutcome check = RunChecks(*stack, &checks);
    acct.attempted += stack->verify_stats().checked;
    acct.failed += stack->verify_stats().rejected;

    // Recovery repetitions in groups, the remaining set-ups between them.
    Recovery recovery(*stack, config);
    for (int group = 0; group < kSetupReps; ++group) {
      if (group > 0) {
        start = Clock::now();
        std::unique_ptr<Stack> extra = BuildStack(config, &acct, &checks);
        setup_seconds.push_back(SecondsSince(start));
      }
      for (int rep = 0; rep < kRecoverReps / kSetupReps; ++rep) {
        recovery.RecoverOnce(&acct, &checks);
      }
    }

    metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"optimize_p50_us", Quantile(loop.QueryLatencies(), 0.50), "us"},
        {"optimize_p95_us", Quantile(loop.QueryLatencies(), 0.95), "us"},
        {"plans_using_views_frac", check.plans_using_views_frac, "fraction"},
        {"plan_cost_ratio", check.plan_cost_ratio, "ratio"},
        {"serve_goodput_qps", serve.BestGoodput(), "answers/s"},
    };
  } else {
    // Registration layers, replayed on the views added under load.
    double describe_view_s = 0;
    double compile_s = 0;
    for (int index : serve.added) {
      const std::string name = ViewName(index);
      const ViewDefinition* view = nullptr;
      if (stack->sharded != nullptr) {
        for (int s = 0; s < stack->sharded->num_shards() && view == nullptr;
             ++s) {
          view = stack->sharded->shard_service(s).views().FindView(name);
        }
      } else {
        view = stack->single->views().FindView(name);
      }
      if (view == nullptr) continue;
      auto t0 = Clock::now();
      (void)DescribeView(*stack->catalog, *view);
      auto t1 = Clock::now();
      (void)CompileMatchProgram(*stack->catalog, *view, MatchOptions{});
      auto t2 = Clock::now();
      describe_view_s += SecondsBetween(t0, t1);
      compile_s += SecondsBetween(t1, t2);
    }
    const double n_added = static_cast<double>(serve.added.size());
    const MatchingStats stats = stack->stats();
    const int64_t retired = stack->RetiredSnapshots();

    const CheckOutcome check = RunChecks(*stack, &checks);
    acct.attempted += stack->verify_stats().checked;
    acct.failed += stack->verify_stats().rejected;
    Recovery recovery(*stack, config);
    for (int rep = 0; rep < kRecoverReps; ++rep) {
      recovery.RecoverOnce(&acct, &checks);
    }
    const std::pair<double, double> shard_ms = recovery.BestShardMs();

    const SpanTotals spans = AggregateSpans(log.spans());
    double stage_sum = 0;
    for (double s : spans.stage_seconds) stage_sum += s;
    const double stage_frac = Ratio(stage_sum, spans.probe_seconds);
    checks.Expect(stage_frac >= kStageCoverageMin &&
                      stage_frac <= kStageCoverageMax,
                  "stage spans cover " + std::to_string(stage_frac) +
                      " of their find_substitutes spans");

    const double q = static_cast<double>(spans.optimizes);
    const double rq = static_cast<double>(check.captured_queries);
    const ReplayTotals& r = check.replay;
    const bool sharded = stack->kind == WorkloadKind::kServeChurn;
    auto per_query_us = [&](double seconds) { return Ratio(seconds, q) * 1e6; };
    auto per_replay_query_us = [&](double seconds) {
      return Ratio(seconds, rq) * 1e6;
    };
    const double stage_probe_us = per_query_us(spans.stage_seconds[0]);
    double add_sum_us = 0;
    const std::vector<double> add_latency_us = serve.AllAddLatencies();
    for (double v : add_latency_us) add_sum_us += v;
    const double add_mean_us =
        Ratio(add_sum_us, static_cast<double>(add_latency_us.size()));

    metrics = {
        {"optimizer.self_us_per_query",
         per_query_us(spans.optimize_seconds - spans.probe_seconds), "us"},
        {"optimizer.probes_per_query",
         Ratio(static_cast<double>(spans.probes), q), "count"},
        {"optimizer.substitutes_per_query",
         Ratio(static_cast<double>(loop_substitutes), q), "count"},
        {"index.find_substitutes_us", per_query_us(spans.probe_seconds), "us"},
        {"index.stage.probe_us", stage_probe_us, "us"},
        {"index.stage.prefilter_us", per_query_us(spans.stage_seconds[1]),
         "us"},
        {"index.stage.match_us", per_query_us(spans.stage_seconds[2]), "us"},
        {"index.stage.compensate_us", per_query_us(spans.stage_seconds[3]),
         "us"},
        {"index.stage.cost_annotate_us", per_query_us(spans.stage_seconds[4]),
         "us"},
        {"index.stage.sum_frac", stage_frac, "fraction"},
        {"index.stage.probe_explained_frac",
         Ratio(per_replay_query_us(r.describe_seconds + r.walk_seconds),
               stage_probe_us),
         "fraction"},
        {"index.filter_walk_us", per_replay_query_us(r.walk_seconds), "us"},
        {"index.candidates_per_probe",
         Ratio(static_cast<double>(r.candidates),
               static_cast<double>(r.probes)),
         "count"},
        {"index.substitutes_per_candidate",
         Ratio(static_cast<double>(r.checks),
               static_cast<double>(r.candidates)),
         "fraction"},
        {"index.add_view_p50_us", serve.AddLatency(0.50), "us"},
        {"index.add_view_p90_us", serve.AddLatency(0.90), "us"},
        {"index.add_view_publish_us",
         add_mean_us - Ratio(describe_view_s + compile_s, n_added) * 1e6,
         "us"},
        {"index.retired_snapshots", static_cast<double>(retired), "count"},
        {"rewrite.describe_query_us", per_replay_query_us(r.describe_seconds),
         "us"},
        {"rewrite.probe_context_us",
         per_replay_query_us(r.probe_context_seconds), "us"},
        {"rewrite.compiled_exec_us_per_candidate",
         Ratio(r.compiled_seconds, static_cast<double>(r.compiled_runs)) * 1e6,
         "us"},
        {"rewrite.compiled_hit_frac",
         Ratio(static_cast<double>(stats.compiled_hits),
               static_cast<double>(stats.full_tests)),
         "fraction"},
        {"rewrite.generic_match_us_per_candidate",
         Ratio(r.generic_seconds, static_cast<double>(r.generic_runs)) * 1e6,
         "us"},
        {"rewrite.describe_view_us", Ratio(describe_view_s, n_added) * 1e6,
         "us"},
        {"rewrite.compile_program_us", Ratio(compile_s, n_added) * 1e6, "us"},
        {"verify.check_us_per_substitute",
         Ratio(r.check_seconds, static_cast<double>(r.checks)) * 1e6, "us"},
        {"verify.proven_frac",
         Ratio(static_cast<double>(r.proven), static_cast<double>(r.checks)),
         "fraction"},
        {"verify.checks_per_query",
         Ratio(static_cast<double>(loop_checks), q), "count"},
        {"shard.routed_per_probe",
         sharded ? Ratio(static_cast<double>(r.routed_shards),
                         static_cast<double>(r.probes))
                 : 0,
         "count"},
        {"shard.find_substitutes_us",
         sharded ? Ratio(spans.request_probe_seconds,
                         static_cast<double>(spans.request_probes)) *
                       1e6
                 : 0,
         "us"},
        {"shard.tie_plan_divergences",
         static_cast<double>(check.tie_divergences), "count"},
        {"shard.recover_wall_ms", recovery.BestSeconds() * 1e3, "ms"},
        {"shard.recover_max_shard_ms", shard_ms.first, "ms"},
        {"shard.recover_sum_shard_ms", shard_ms.second, "ms"},
        {"serve.queue_wait_ms_p50", Quantile(serve.queue_ms, 0.50), "ms"},
        {"serve.queue_wait_ms_p99", Quantile(serve.queue_ms, 0.99), "ms"},
        {"serve.exec_ms_p50", Quantile(serve.exec_ms, 0.50), "ms"},
        {"serve.exec_ms_p99", Quantile(serve.exec_ms, 0.99), "ms"},
        {"serve.latency_ms_p50", Quantile(serve.NominalLatencies(), 0.50),
         "ms"},
        {"serve.latency_ms_p95", Quantile(serve.NominalLatencies(), 0.95),
         "ms"},
        {"serve.shed_frac",
         Ratio(static_cast<double>(serve.shed),
               static_cast<double>(serve.submitted)),
         "fraction"},
        {"serve.degraded_frac",
         Ratio(static_cast<double>(serve.degraded),
               static_cast<double>(serve.admitted)),
         "fraction"},
        {"serve.tier_escalations",
         static_cast<double>(serve.tier_escalations), "count"},
        {"serve.max_queue_depth",
         static_cast<double>(serve.max_queue_depth), "count"},
        {"loadgen.late_ms_p99", Quantile(serve.late_ms, 0.99), "ms"},
        {"loadgen.late_ms_max", Quantile(serve.late_ms, 1.0), "ms"},
        {"trace.overhead_frac", 1.0 - Ratio(loop.qps(), plain.qps()),
         "fraction"},
    };
    if (!config.span_file.empty() && !log.WriteTsv(config.span_file, origin)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   config.span_file.c_str());
    }
  }

  stack.reset();
  PrintResult(checks.ok, acct.attempted, acct.failed, metrics);
  return checks.ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &config->kind)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config->trace = value == "1";
    } else if (flag == "--work-dir") {
      config->work_dir = value;
    } else if (flag == "--span-file") {
      config->span_file = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && config->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  if (!perfbench::ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper_fig2|view_answerable|serve_churn "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--span-file PATH]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::Run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
