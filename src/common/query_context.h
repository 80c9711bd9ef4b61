// QueryContext: the single per-query object that the probe and optimize
// entry points take (Optimizer::Optimize, SubstituteSource::
// FindSubstitutes / FindUnionSubstitute). It is the only way to pass a
// cross-cutting per-query concern: the pipeline stages below it
// receive it from those entry points, and the filter-tree walk reads
// only its budget. It owns or borrows:
//
//   - the resource budget (deadline, candidate/memo caps, degradation
//     state — see common/query_budget.h),
//   - the per-query trace recorder (observe/trace.h, borrowed; common/
//     stays below observe/ so only the pointer lives here),
//   - an observe hook invoked at every pipeline stage boundary (how the
//     golden-order tests watch the staged pipeline without a registry),
//   - the staleness tolerance (merged with the budget's, maximum wins),
//   - the query's RNG seed (deterministic tie-breaking / sampling for
//     layers that need randomness; never consult a global generator).
//
// A context is per-query state and is NOT thread-safe; give each
// concurrent optimization its own instance. A default-constructed
// context means no budget, no trace and fresh views only.

#ifndef MVOPT_COMMON_QUERY_CONTEXT_H_
#define MVOPT_COMMON_QUERY_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/query_budget.h"

namespace mvopt {

class QueryTrace;  // observe/trace.h (layered above common/)

class QueryContext {
 public:
  /// Stage-boundary observe hook: (stage name, stage wall-clock seconds).
  /// Invoked by the pipeline even when no trace/registry is attached.
  using StageHook = std::function<void(const char* stage, double seconds)>;

  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // --- budget -------------------------------------------------------------

  /// Installs an owned budget (replacing any borrowed one) and returns
  /// it for configuration.
  QueryBudget& EmplaceBudget() {
    owned_budget_ = std::make_unique<QueryBudget>();
    budget_ = owned_budget_.get();
    return *budget_;
  }
  /// Borrows a caller-owned budget (may be null = ungoverned), e.g. one
  /// budget reused across the contexts of several queries; Optimize
  /// resets its per-query outcome state and keeps its limits.
  void BorrowBudget(QueryBudget* budget) {
    owned_budget_.reset();
    budget_ = budget;
  }
  QueryBudget* budget() { return budget_; }
  const QueryBudget* budget() const { return budget_; }

  /// Cooperative deadline check (no-op without a budget). Returns true
  /// when the query should wind down.
  bool TickDeadline() {
    return budget_ != nullptr && budget_->TickDeadline();
  }
  bool exhausted() const { return budget_ != nullptr && budget_->exhausted(); }

  // --- degradation --------------------------------------------------------

  /// Records an advisory degradation. Routed into the budget when one is
  /// attached (so OptimizationResult::degradation reports it); kept
  /// locally otherwise so ungoverned callers can still inspect it. The
  /// local path mirrors the budget's priority rule: first advisory wins
  /// except kPartialCatalog, which replaces any other advisory.
  void NoteDegradation(DegradationReason reason) {
    if (budget_ != nullptr) {
      budget_->NoteDegradation(reason);
    } else if (advisory_ == DegradationReason::kNone ||
               (reason == DegradationReason::kPartialCatalog &&
                advisory_ != DegradationReason::kPartialCatalog)) {
      advisory_ = reason;
    }
  }
  DegradationReason degradation() const {
    return budget_ != nullptr ? budget_->reason() : advisory_;
  }

  // --- trace / observe hooks ----------------------------------------------

  /// Borrows a per-query trace recorder (not thread-safe; one probe at a
  /// time). The optimizer attaches one automatically in full-trace mode.
  void set_trace(QueryTrace* trace) { trace_ = trace; }
  QueryTrace* trace() const { return trace_; }

  void set_stage_hook(StageHook hook) { stage_hook_ = std::move(hook); }
  bool has_stage_hook() const { return static_cast<bool>(stage_hook_); }
  void NotifyStage(const char* stage, double seconds) const {
    if (stage_hook_) stage_hook_(stage, seconds);
  }

  /// Whether the pipeline should read clocks / record stage boundaries
  /// for this query even if the service's counters are off.
  bool observing() const { return trace_ != nullptr || has_stage_hook(); }

  /// Per-query trace suppression: when set, the optimizer must not
  /// attach its own full-mode trace to this query (a caller-installed
  /// trace still wins). The serving layer's degradation tiers use this
  /// to shed tracing cost under overload without reconfiguring the
  /// optimizer for every other query in flight.
  void set_suppress_trace(bool suppress) { suppress_trace_ = suppress; }
  bool suppress_trace() const { return suppress_trace_; }

  // --- staleness ----------------------------------------------------------

  /// Staleness tolerance in update epochs; the effective tolerance is
  /// the maximum of this and the budget's (0 = fresh views only).
  void set_max_staleness(uint64_t epochs) { max_staleness_ = epochs; }
  uint64_t max_staleness() const {
    const uint64_t b = budget_ != nullptr ? budget_->max_staleness() : 0;
    return max_staleness_ > b ? max_staleness_ : b;
  }

  // --- randomness ---------------------------------------------------------

  /// Per-query RNG seed: any layer needing randomness derives a private
  /// stream from this so runs replay exactly. Defaults to the golden
  /// ratio constant used across the repo's deterministic generators.
  void set_rng_seed(uint64_t seed) { rng_seed_ = seed; }
  uint64_t rng_seed() const { return rng_seed_; }

 private:
  QueryBudget* budget_ = nullptr;
  std::unique_ptr<QueryBudget> owned_budget_;
  DegradationReason advisory_ = DegradationReason::kNone;
  QueryTrace* trace_ = nullptr;
  StageHook stage_hook_;
  bool suppress_trace_ = false;
  uint64_t max_staleness_ = 0;
  uint64_t rng_seed_ = 0x9e3779b97f4a7c15ull;
};

}  // namespace mvopt

#endif  // MVOPT_COMMON_QUERY_CONTEXT_H_
