#include "tracing.h"

#include <cstdio>
#include <cstring>
#include <optional>

#include "rewrite/match_program.h"
#include "rewrite/view_description.h"

namespace perfbench {

using namespace mvopt;

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOptimize:
      return "optimize";
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kFindSubstitutes:
      return "find_substitutes";
    case SpanKind::kStageProbe:
      return "stage.probe";
    case SpanKind::kStagePrefilter:
      return "stage.prefilter";
    case SpanKind::kStageMatch:
      return "stage.match";
    case SpanKind::kStageCompensate:
      return "stage.compensate";
    case SpanKind::kStageCostAnnotate:
      return "stage.cost_annotate";
  }
  return "?";
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteTsv(const std::string& path,
                       Clock::time_point origin) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind\tid\tparent\tstart_us\tend_us\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%s\t%llu\t%llu\t%.3f\t%.3f\n", SpanKindName(s.kind),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 SecondsBetween(origin, s.start) * 1e6,
                 SecondsBetween(origin, s.end) * 1e6);
  }
  return std::fclose(f) == 0;
}

namespace {
thread_local uint64_t t_parent = 0;

std::optional<SpanKind> StageSpanKind(const char* stage) {
  if (std::strcmp(stage, "probe") == 0) return SpanKind::kStageProbe;
  if (std::strcmp(stage, "prefilter") == 0) return SpanKind::kStagePrefilter;
  if (std::strcmp(stage, "match") == 0) return SpanKind::kStageMatch;
  if (std::strcmp(stage, "compensate") == 0) {
    return SpanKind::kStageCompensate;
  }
  if (std::strcmp(stage, "cost-annotate") == 0) {
    return SpanKind::kStageCostAnnotate;
  }
  return std::nullopt;
}
}  // namespace

ParentScope::ParentScope(uint64_t id) : saved_(t_parent) { t_parent = id; }
ParentScope::~ParentScope() { t_parent = saved_; }
uint64_t ParentScope::Current() { return t_parent; }
void ParentScope::SetCurrent(uint64_t id) { t_parent = id; }

QueryContext::StageHook MakeStageHook(SpanLog* log) {
  return [log](const char* stage, double seconds) {
    const std::optional<SpanKind> kind = StageSpanKind(stage);
    if (!kind) return;
    Span span;
    span.kind = *kind;
    span.id = log->NewId();
    span.parent = ParentScope::Current();
    span.end = Clock::now();
    span.start = span.end - std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    log->Add(span);
  };
}

std::vector<Substitute> TracingSource::FindSubstitutes(const SpjgQuery& query,
                                                       QueryContext& ctx) {
  Span span;
  span.kind = SpanKind::kFindSubstitutes;
  span.parent = ParentScope::Current();
  span.id = log_ != nullptr ? log_->NewId() : 0;
  std::vector<Substitute> subs;
  {
    ParentScope scope(span.id);
    span.start = Clock::now();
    subs = inner_->FindSubstitutes(query, ctx);
    span.end = Clock::now();
  }
  if (log_ != nullptr) log_->Add(span);
  substitutes_.fetch_add(static_cast<int64_t>(subs.size()));
  if (checker_ != nullptr) {
    for (const Substitute& sub : subs) {
      const ViewDefinition& view = inner_->ResolveView(sub.view_id);
      // A sharded source hands out composite ids; the checker compares
      // the substitute's id with the definition's own (shard-local) one.
      Substitute local = sub;
      local.view_id = view.id();
      const Verdict verdict = checker_->Check(query, view, local);
      checked_.fetch_add(1);
      if (!verdict.proven) {
        unproven_.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu_);
        if (first_unproven_.empty()) {
          first_unproven_ = view.name() + ": " + CheckCodeName(verdict.code) +
                            ": " + verdict.detail;
        }
      }
    }
  }
  if (capturing_) {
    std::lock_guard<std::mutex> lock(mu_);
    captured_.push_back(query);
  }
  return subs;
}

std::string TracingSource::first_unproven() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_unproven_;
}

std::vector<SpjgQuery> TracingSource::TakeCaptured() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(captured_);
}

namespace {

/// Same verdict: both matched or both rejected for the same reason, and
/// matched substitutes agree in shape.
bool SameVerdict(const MatchResult& a, const MatchResult& b) {
  if (a.ok() != b.ok() || a.reason != b.reason) return false;
  if (!a.ok()) return true;
  const Substitute& x = *a.substitute;
  const Substitute& y = *b.substitute;
  return x.view_id == y.view_id && x.predicates.size() == y.predicates.size() &&
         x.outputs.size() == y.outputs.size() &&
         x.group_by.size() == y.group_by.size() &&
         x.needs_aggregation == y.needs_aggregation &&
         x.backjoins.size() == y.backjoins.size();
}

}  // namespace

ReplayTotals ReplayProbes(const Catalog& catalog,
                          const std::vector<SpjgQuery>& probes,
                          const ProbeRouter& route) {
  ReplayTotals totals;
  MatchProgramScratch scratch;
  for (const SpjgQuery& query : probes) {
    ++totals.probes;

    auto t0 = Clock::now();
    const QueryDescription desc = DescribeQuery(catalog, query);
    auto t1 = Clock::now();
    totals.describe_seconds += SecondsBetween(t0, t1);

    const std::vector<const MatchingService*> services = route(query);
    totals.routed_shards += static_cast<int64_t>(services.size());
    bool context_built = false;
    MatchProbeContext pctx;
    for (const MatchingService* service : services) {
      t0 = Clock::now();
      const std::vector<ViewId> candidates =
          service->filter_tree().FindCandidates(desc);
      t1 = Clock::now();
      totals.walk_seconds += SecondsBetween(t0, t1);
      totals.candidates += static_cast<int64_t>(candidates.size());
      if (candidates.empty()) continue;

      if (!context_built) {
        t0 = Clock::now();
        pctx = BuildMatchProbeContext(catalog, query, MatchOptions{});
        t1 = Clock::now();
        totals.probe_context_seconds += SecondsBetween(t0, t1);
        context_built = true;
      }
      const ViewCatalog& views = service->views();
      for (ViewId id : candidates) {
        const ViewDefinition& view = views.view(id);
        std::optional<MatchExecResult> compiled;
        if (const auto& program = views.program(id)) {
          t0 = Clock::now();
          compiled = ExecuteMatchProgram(*program, pctx, scratch);
          t1 = Clock::now();
          totals.compiled_seconds += SecondsBetween(t0, t1);
          ++totals.compiled_runs;
        }

        t0 = Clock::now();
        const MatchResult generic = service->matcher().Match(query, view);
        t1 = Clock::now();
        totals.generic_seconds += SecondsBetween(t0, t1);
        ++totals.generic_runs;

        if (compiled && compiled->status == MatchExecStatus::kDecided &&
            !SameVerdict(compiled->result, generic)) {
          if (totals.verdict_mismatches++ == 0) {
            totals.first_mismatch =
                view.name() + ": compiled " +
                RejectReasonName(compiled->result.reason) + " vs generic " +
                RejectReasonName(generic.reason);
          }
        }

        if (generic.ok()) {
          t0 = Clock::now();
          const Verdict verdict =
              service->checker().Check(query, view, *generic.substitute);
          t1 = Clock::now();
          totals.check_seconds += SecondsBetween(t0, t1);
          ++totals.checks;
          if (verdict.proven) ++totals.proven;
        }
      }
    }
  }
  return totals;
}

}  // namespace perfbench
