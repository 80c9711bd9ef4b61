// InvariantAuditor tests: the live structures built by the real code must
// audit clean (including after deletions and revivals), the optimizer's
// memo must audit clean on real workloads, and hand-built corrupted memo
// snapshots must be flagged.

#include "verify/invariant_auditor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "rewrite/view_catalog.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

TEST(LatticeAuditTest, BuiltLatticePassesIncludingAfterErase) {
  LatticeIndex index;
  // A mix of nested, overlapping and disjoint keys.
  std::vector<LatticeIndex::Key> keys = {
      {},        {1},       {2},          {1, 2},    {1, 2, 3},
      {2, 3},    {3, 4},    {1, 2, 3, 4}, {5},       {1, 5},
      {2, 3, 5}, {4, 5},    {1, 2, 5},    {3},       {1, 3},
  };
  for (const auto& k : keys) index.Insert(k);

  InvariantAuditor auditor;
  EXPECT_TRUE(auditor.AuditLattice(index).ok())
      << auditor.AuditLattice(index).Summary();

  // Lazy deletion keeps erased nodes as waypoints; structure must hold.
  index.Erase({1, 2});
  index.Erase({3, 4});
  index.Erase({});
  EXPECT_TRUE(auditor.AuditLattice(index).ok())
      << auditor.AuditLattice(index).Summary();

  // Revival.
  index.Insert({1, 2});
  index.Insert({2, 3, 4});
  EXPECT_TRUE(auditor.AuditLattice(index).ok())
      << auditor.AuditLattice(index).Summary();
}

TEST(FilterTreeAuditTest, WorkloadTreePassesIncludingAfterRemovals) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);
  ViewCatalog views(&catalog);
  FilterTree tree;

  tpch::WorkloadGenerator gen(&catalog, 1234);
  std::vector<ViewId> ids;
  for (int i = 0; i < 50; ++i) {
    std::string error;
    ViewDefinition* v =
        views.AddView("v" + std::to_string(i), gen.GenerateView(), &error);
    ASSERT_NE(v, nullptr) << error;
    tree.AddView(v->id(), views.shared_description(v->id()));
    ids.push_back(v->id());
  }

  InvariantAuditor auditor;
  AuditReport report = tree.num_views() >= 0 ? auditor.AuditFilterTree(tree)
                                             : AuditReport{};
  EXPECT_TRUE(report.ok()) << report.Summary();

  // Remove every third view, then re-add one: liveness bookkeeping and
  // the view population must stay consistent.
  for (size_t i = 0; i < ids.size(); i += 3) {
    tree.RemoveView(ids[i], views.description(ids[i]));
  }
  report = auditor.AuditFilterTree(tree);
  EXPECT_TRUE(report.ok()) << report.Summary();

  tree.AddView(ids[0], views.shared_description(ids[0]));
  report = auditor.AuditFilterTree(tree);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

class MemoAuditTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemoAuditTest, OptimizerMemoPassesOnWorkload) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);

  MatchingService service(&catalog);
  tpch::WorkloadGenerator view_gen(&catalog, seed * 13 + 3);
  for (int i = 0; i < 25; ++i) {
    std::string error;
    ASSERT_NE(service.AddView("v" + std::to_string(i),
                              view_gen.GenerateView(), &error),
              nullptr)
        << error;
  }

  OptimizerOptions options;
  options.audit_memo = true;
  Optimizer optimizer(&catalog, &service, options);

  tpch::WorkloadGenerator query_gen(&catalog, seed * 7 + 11);
  for (int j = 0; j < 25; ++j) {
    SpjgQuery query = query_gen.GenerateQuery();
    QueryContext ctx;
    OptimizationResult result = optimizer.Optimize(query, ctx);
    EXPECT_TRUE(result.memo_audit.ok())
        << "memo violations for query:\n"
        << query.ToSql(catalog) << "\n"
        << result.memo_audit.Summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoAuditTest, ::testing::Values(1, 2, 3));

TEST(MemoAuditTest, CorruptedMemosAreFlagged) {
  InvariantAuditor auditor;
  const uint32_t full = 0b111;
  const int base = 100000;

  auto expr = [](MemoExprRecord::Kind kind, int32_t table_ref, int c0,
                 int c1) {
    MemoExprRecord e;
    e.kind = kind;
    e.table_ref = table_ref;
    e.child0 = c0;
    e.child1 = c1;
    return e;
  };

  // A well-formed three-table memo: joins over single-table GETs.
  std::vector<MemoGroupRecord> good;
  good.push_back({0b001, -1, {expr(MemoExprRecord::Kind::kGet, 0, -1, -1)}});
  good.push_back({0b010, -1, {expr(MemoExprRecord::Kind::kGet, 1, -1, -1)}});
  good.push_back({0b100, -1, {expr(MemoExprRecord::Kind::kGet, 2, -1, -1)}});
  good.push_back({0b011, -1, {expr(MemoExprRecord::Kind::kJoin, -1, 0, 1)}});
  good.push_back({0b111, -1, {expr(MemoExprRecord::Kind::kJoin, -1, 3, 2)}});
  EXPECT_TRUE(auditor.AuditMemo(good, full, 0, base).ok());

  // Duplicate (mask, spec) key.
  auto dup = good;
  dup.push_back({0b011, -1, {expr(MemoExprRecord::Kind::kJoin, -1, 0, 1)}});
  EXPECT_FALSE(auditor.AuditMemo(dup, full, 0, base).ok());

  // Join children overlap / fail to partition the mask.
  auto overlap = good;
  overlap[4].exprs[0].child0 = 3;  // {0,1}
  overlap[4].exprs[0].child1 = 1;  // {1} — misses table 2, overlaps table 1
  EXPECT_FALSE(auditor.AuditMemo(overlap, full, 0, base).ok());

  // GET names the wrong table for its mask.
  auto wrong_get = good;
  wrong_get[2].exprs[0].table_ref = 1;
  EXPECT_FALSE(auditor.AuditMemo(wrong_get, full, 0, base).ok());

  // Mask escaping the query's table set.
  auto escaped = good;
  escaped[4].mask = 0b1111;
  EXPECT_FALSE(auditor.AuditMemo(escaped, full, 0, base).ok());

  // AGGREGATE expression inside an SPJ group.
  auto agg_in_spj = good;
  agg_in_spj[4].exprs.push_back(
      expr(MemoExprRecord::Kind::kAggregate, -1, 4, -1));
  EXPECT_FALSE(auditor.AuditMemo(agg_in_spj, full, 0, base).ok());

  // Aggregation-spec id outside every declared range.
  auto bad_spec = good;
  bad_spec.push_back(
      {0b111, 7, {expr(MemoExprRecord::Kind::kAggregate, -1, 4, -1)}});
  EXPECT_FALSE(auditor.AuditMemo(bad_spec, full, /*num_agg_specs=*/1, base)
                   .ok());

  // Empty group.
  auto empty = good;
  empty[0].exprs.clear();
  EXPECT_FALSE(auditor.AuditMemo(empty, full, 0, base).ok());
}

}  // namespace
}  // namespace mvopt
