// Benchmark-side tracing. Spans are recorded from outside the system,
// around calls into its public entry points: the driver opens an
// `optimize` or `request` span, TracingSource records a
// `find_substitutes` child span around every probe, and a QueryContext
// stage hook records the pipeline's stage spans as children of that
// probe. Spans stay in memory and are written out when the run ends.
//
// ReplayProbes re-runs captured probe signatures through the layer
// functions one by one (describe, filter walk, probe context, compiled
// and generic match, soundness check) to time each layer in isolation
// and to cross-check the compiled tier against the generic matcher.

#ifndef MVOPT_PERFBENCH_TRACING_H_
#define MVOPT_PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/query_context.h"
#include "index/matching_service.h"
#include "rewrite/substitute_source.h"
#include "verify/rewrite_checker.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kOptimize,
  kRequest,
  kFindSubstitutes,
  kStageProbe,
  kStagePrefilter,
  kStageMatch,
  kStageCompensate,
  kStageCostAnnotate,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kOptimize;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root span
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store, safe to append to from several threads.
class SpanLog {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Span& span);
  std::vector<Span> spans() const;
  /// Writes one tab-separated line per span (kind, id, parent, start
  /// and end in microseconds since `origin`). False on an I/O error.
  bool WriteTsv(const std::string& path, Clock::time_point origin) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The span the calling thread is inside; child spans take it as their
/// parent. Restores the previous value on destruction.
class ParentScope {
 public:
  explicit ParentScope(uint64_t id);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

  static uint64_t Current();
  /// Sets the calling thread's current span without a scope (serving
  /// workers: each request replaces the previous one).
  static void SetCurrent(uint64_t id);

 private:
  uint64_t saved_;
};

/// A stage hook that records each pipeline stage as a child span of the
/// enclosing find_substitutes span.
mvopt::QueryContext::StageHook MakeStageHook(SpanLog* log);

/// SubstituteSource decorator that forwards to the real source and
/// records a find_substitutes span per probe (when given a log). It can
/// also re-prove every returned substitute with RewriteChecker::Check
/// and keep copies of probe signatures for ReplayProbes.
class TracingSource : public mvopt::SubstituteSource {
 public:
  TracingSource(mvopt::SubstituteSource* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  /// Re-prove every returned substitute with `checker` (borrowed).
  void set_checker(const mvopt::RewriteChecker* checker) {
    checker_ = checker;
  }
  /// Copy the signatures of subsequent probes while `capturing` is set.
  void set_capturing(bool capturing) { capturing_ = capturing; }

  std::vector<mvopt::Substitute> FindSubstitutes(
      const mvopt::SpjgQuery& query, mvopt::QueryContext& ctx) override;
  std::optional<mvopt::UnionSubstitute> FindUnionSubstitute(
      const mvopt::SpjgQuery& query, mvopt::QueryContext& ctx) override {
    return inner_->FindUnionSubstitute(query, ctx);
  }
  const mvopt::ViewDefinition& ResolveView(mvopt::ViewId id) const override {
    return inner_->ResolveView(id);
  }

  int64_t substitutes() const { return substitutes_.load(); }
  int64_t checked() const { return checked_.load(); }
  int64_t unproven() const { return unproven_.load(); }
  /// "view: code: detail" of the first substitute that did not re-prove.
  std::string first_unproven() const;
  /// The probe signatures captured so far (moved out).
  std::vector<mvopt::SpjgQuery> TakeCaptured();

 private:
  mvopt::SubstituteSource* inner_;
  SpanLog* log_;
  const mvopt::RewriteChecker* checker_ = nullptr;
  bool capturing_ = false;
  std::atomic<int64_t> substitutes_{0};
  std::atomic<int64_t> checked_{0};
  std::atomic<int64_t> unproven_{0};
  mutable std::mutex mu_;
  std::string first_unproven_;
  std::vector<mvopt::SpjgQuery> captured_;
};

/// Per-layer totals over a replay of captured probes.
struct ReplayTotals {
  int64_t probes = 0;
  int64_t routed_shards = 0;
  double describe_seconds = 0;
  double walk_seconds = 0;
  double probe_context_seconds = 0;
  int64_t candidates = 0;
  int64_t compiled_runs = 0;
  double compiled_seconds = 0;
  int64_t generic_runs = 0;
  double generic_seconds = 0;
  int64_t checks = 0;
  int64_t proven = 0;
  double check_seconds = 0;
  /// Compiled hits whose verdict differs from ViewMatcher::Match.
  int64_t verdict_mismatches = 0;
  std::string first_mismatch;
};

/// The catalog services a probe is routed to: one MatchingService for
/// the unsharded workloads, the routed shards of a sharded catalog.
using ProbeRouter =
    std::function<std::vector<const mvopt::MatchingService*>(
        const mvopt::SpjgQuery&)>;

ReplayTotals ReplayProbes(const mvopt::Catalog& catalog,
                          const std::vector<mvopt::SpjgQuery>& probes,
                          const ProbeRouter& route);

}  // namespace perfbench

#endif  // MVOPT_PERFBENCH_TRACING_H_
