// Rewrite soundness checker: a static proof-checking pass over finished
// substitutes (the output of view matching, §3). The checker re-derives,
// from the catalog and the two SPJG expressions alone, whether a
// substitute is provably equivalent to the query expression it claims to
// answer. It deliberately shares no code with src/rewrite: it has its own
// union-find, its own interval arithmetic, its own conjunct
// classification and its own shape matching, so a bug in the matcher and
// a bug in the checker are independent events.
//
// Proof obligations, per candidate table mapping (view refs -> query
// slots):
//   1. Extra view tables must be removable through cardinality-preserving
//      foreign-key joins re-derived from the catalog (§3.2).
//   2. The query predicate and the substitute predicate (view predicate
//      plus inlined compensating predicates) must be equivalent modulo
//      CHECK constraints: equal equality partitions, equal per-class
//      range intervals, and bidirectionally covered residuals (§3.1.2).
//   3. Every output (and, for aggregates, every rollup) must compute the
//      query's expression: shape-equivalent after inlining view outputs,
//      with SUM/COUNT/MIN/MAX/AVG rollups restricted to the patterns that
//      are algebraically valid over disjoint sub-groups (§3.3).
//
// The checker is intentionally conservative: it proves equivalence or
// reports a machine-readable reason why it could not.

#ifndef MVOPT_VERIFY_REWRITE_CHECKER_H_
#define MVOPT_VERIFY_REWRITE_CHECKER_H_

#include <string>

#include "catalog/catalog.h"
#include "common/enum_coverage.h"
#include "query/spjg.h"
#include "query/substitute.h"
#include "query/view_def.h"

namespace mvopt {

/// How the matching pipeline applies the checker to produced substitutes.
enum class VerifyMode {
  kOff,      ///< never run the checker
  kLog,      ///< run it, count + trace rejections, keep all substitutes
  kEnforce,  ///< run it and discard substitutes that cannot be proven
};

inline constexpr int kNumVerifyModes = 3;
static_assert(static_cast<int>(VerifyMode::kEnforce) + 1 == kNumVerifyModes,
              "kNumVerifyModes must cover every VerifyMode");

constexpr const char* VerifyModeName(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff:
      return "off";
    case VerifyMode::kLog:
      return "log";
    case VerifyMode::kEnforce:
      return "enforce";
  }
  return "?";
}

static_assert(AllEnumeratorsNamed<VerifyMode, VerifyModeName>(kNumVerifyModes),
              "every VerifyMode needs a VerifyModeName entry");

/// Machine-readable outcome classes, ordered roughly by how far the proof
/// progressed before failing.
enum class CheckCode {
  kProven = 0,
  kMalformedSubstitute,     ///< structural damage (bad ordinals, arity...)
  kViewNotWellFormed,       ///< view violates the indexable-view contract
  kNoValidTableMapping,     ///< no mapping with removable extra tables
  kBackjoinNotJustified,    ///< backjoin key not proven unique/equal
  kEqualityNotEquivalent,   ///< equality partitions differ
  kRangeNotEquivalent,      ///< some column range differs
  kResidualNotEquivalent,   ///< residual conjuncts not mutually covered
  kGroupingNotEquivalent,   ///< grouping partitions differ
  kOutputNotEquivalent,     ///< an output computes a different expression
  kAggregateRewriteUnsound, ///< rollup pattern not algebraically valid
};

inline constexpr int kNumCheckCodes = 11;
static_assert(static_cast<int>(CheckCode::kAggregateRewriteUnsound) + 1 ==
                  kNumCheckCodes,
              "kNumCheckCodes must cover every CheckCode");

/// Exhaustive (switch-based, no default): a new CheckCode without a
/// name is a -Wswitch error, and the static_assert below proves every
/// value maps to a real name even where that warning is demoted.
constexpr const char* CheckCodeName(CheckCode code) {
  switch (code) {
    case CheckCode::kProven:
      return "proven";
    case CheckCode::kMalformedSubstitute:
      return "malformed-substitute";
    case CheckCode::kViewNotWellFormed:
      return "view-not-well-formed";
    case CheckCode::kNoValidTableMapping:
      return "no-valid-table-mapping";
    case CheckCode::kBackjoinNotJustified:
      return "backjoin-not-justified";
    case CheckCode::kEqualityNotEquivalent:
      return "equality-not-equivalent";
    case CheckCode::kRangeNotEquivalent:
      return "range-not-equivalent";
    case CheckCode::kResidualNotEquivalent:
      return "residual-not-equivalent";
    case CheckCode::kGroupingNotEquivalent:
      return "grouping-not-equivalent";
    case CheckCode::kOutputNotEquivalent:
      return "output-not-equivalent";
    case CheckCode::kAggregateRewriteUnsound:
      return "aggregate-rewrite-unsound";
  }
  return "?";
}

static_assert(AllEnumeratorsNamed<CheckCode, CheckCodeName>(kNumCheckCodes),
              "every CheckCode needs a CheckCodeName entry");

/// The checker's structured answer.
struct Verdict {
  bool proven = false;
  CheckCode code = CheckCode::kProven;
  std::string detail;  ///< human-readable specifics on rejection

  static Verdict Ok() { return Verdict{true, CheckCode::kProven, {}}; }
  static Verdict Fail(CheckCode code, std::string detail) {
    return Verdict{false, code, std::move(detail)};
  }
};

class RewriteChecker {
 public:
  struct Options {
    /// Cap on candidate table mappings tried before giving up.
    int max_table_mappings = 64;
    /// Cap on backjoin slot assignments tried per mapping (self-joins can
    /// make the backjoined slot ambiguous).
    int max_backjoin_assignments = 16;
    /// Mirror of the matcher's nullable-FK relaxation: a nullable FK
    /// column still supports elimination when the query's own predicates
    /// reject NULL in it.
    bool allow_nullable_fk_with_null_rejection = true;
  };

  explicit RewriteChecker(const Catalog* catalog);
  RewriteChecker(const Catalog* catalog, Options options);

  /// Attempts to prove that `sub` (produced against `view`) is equivalent
  /// to `query`. Never mutates anything; safe to call on arbitrary
  /// (including hostile) substitutes.
  Verdict Check(const SpjgQuery& query, const ViewDefinition& view,
                const Substitute& sub) const;

 private:
  Verdict CheckWithMapping(const SpjgQuery& query, const ViewDefinition& view,
                           const Substitute& sub,
                           const std::vector<int32_t>& view_to_slot) const;

  const Catalog* catalog_;
  Options options_;
};

}  // namespace mvopt

#endif  // MVOPT_VERIFY_REWRITE_CHECKER_H_
