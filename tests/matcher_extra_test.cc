// Additional matcher edge cases beyond the paper's worked examples.

#include <gtest/gtest.h>

#include "index/matching_service.h"
#include "rewrite/matcher.h"
#include "tpch/schema.h"

namespace mvopt {
namespace {

class MatcherExtraTest : public ::testing::Test {
 protected:
  MatcherExtraTest()
      : schema_(tpch::BuildSchema(&catalog_)), matcher_(&catalog_) {}

  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
  }
  static ExprPtr Lit(int64_t v) {
    return Expr::MakeLiteral(Value::Int64(v));
  }

  Catalog catalog_;
  tpch::Schema schema_;
  ViewMatcher matcher_;
};

TEST_F(MatcherExtraTest, PointRangeCompensatesWithSingleEquality) {
  // Query pins o_custkey to one value inside the view's interval: the
  // compensation must be a single equality, not two inequalities
  // (paper Example 2: "o_custkey = 123").
  SpjgBuilder vb(&catalog_);
  int o = vb.AddTable("orders");
  vb.Where(Expr::MakeCompare(CompareOp::kGt, vb.Col(o, "o_custkey"),
                             Lit(50)));
  vb.Where(Expr::MakeCompare(CompareOp::kLt, vb.Col(o, "o_custkey"),
                             Lit(500)));
  vb.Output(vb.Col(o, "o_orderkey"));
  vb.Output(vb.Col(o, "o_custkey"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&catalog_);
  int qo = qb.AddTable("orders");
  qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(qo, "o_custkey"),
                             Lit(123)));
  qb.Output(qb.Col(qo, "o_orderkey"));
  MatchResult r = matcher_.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  ASSERT_EQ(r.substitute->predicates.size(), 1u);
  EXPECT_EQ(r.substitute->predicates[0]->compare_op(), CompareOp::kEq);
}

TEST_F(MatcherExtraTest, IdenticalBoundsNeedNoCompensation) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Where(Expr::MakeCompare(CompareOp::kGe, vb.Col(l, "l_partkey"),
                             Lit(10)));
  vb.Where(Expr::MakeCompare(CompareOp::kLe, vb.Col(l, "l_partkey"),
                             Lit(90)));
  vb.Output(vb.Col(l, "l_orderkey"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kGe, qb.Col(ql, "l_partkey"),
                             Lit(10)));
  qb.Where(Expr::MakeCompare(CompareOp::kLe, qb.Col(ql, "l_partkey"),
                             Lit(90)));
  qb.Output(qb.Col(ql, "l_orderkey"));
  MatchResult r = matcher_.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  EXPECT_TRUE(r.substitute->predicates.empty());
  // Note: l_partkey need not be a view output when no compensation is
  // required.
}

TEST_F(MatcherExtraTest, ComplexOutputExactMatchWithoutSourceColumns) {
  // The view precomputes l_quantity*l_extendedprice without exposing the
  // source columns; the query's identical expression routes to it
  // (§3.1.4 exact-match path).
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(Expr::MakeArith(ArithOp::kMul, vb.Col(l, "l_quantity"),
                            vb.Col(l, "l_extendedprice")),
            "gross");
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(Expr::MakeArith(ArithOp::kMul, qb.Col(ql, "l_quantity"),
                            qb.Col(ql, "l_extendedprice")),
            "g");
  MatchResult r = matcher_.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  EXPECT_EQ(r.substitute->outputs[0].expr->kind(), ExprKind::kColumnRef);
  EXPECT_EQ(r.substitute->outputs[0].expr->column_ref().column, 1);
}

TEST_F(MatcherExtraTest, ComplexOutputRecomposedFromPlainColumns) {
  // The view has the plain columns but not the product; the matcher
  // recomposes the expression from them (§3.1.4 fallback).
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_quantity"));
  vb.Output(vb.Col(l, "l_extendedprice"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(Expr::MakeArith(ArithOp::kMul, qb.Col(ql, "l_quantity"),
                            qb.Col(ql, "l_extendedprice")),
            "g");
  MatchResult r = matcher_.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  EXPECT_EQ(r.substitute->outputs[0].expr->kind(), ExprKind::kArithmetic);
}

TEST_F(MatcherExtraTest, GroupByExpressionMatches) {
  // Grouping on an expression (l_partkey + l_suppkey) in both view and
  // query: shape matching must align them.
  ExprPtr vg;
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vg = Expr::MakeArith(ArithOp::kAdd, vb.Col(l, "l_partkey"),
                       vb.Col(l, "l_suppkey"));
  vb.Output(vg, "k");
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.GroupBy(vg);
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  ExprPtr qg = Expr::MakeArith(ArithOp::kAdd, qb.Col(ql, "l_partkey"),
                               qb.Col(ql, "l_suppkey"));
  qb.Output(qg, "k");
  qb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "n");
  qb.GroupBy(qg);
  MatchResult r = matcher_.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  EXPECT_FALSE(r.substitute->needs_aggregation);
}

TEST_F(MatcherExtraTest, ScalarAggregateFromGroupedView) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_suppkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.GroupBy(vb.Col(l, "l_suppkey"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&catalog_);
  qb.AddTable("lineitem");
  qb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "total");
  qb.SetAggregate();
  MatchResult r = matcher_.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  EXPECT_TRUE(r.substitute->needs_aggregation);
  EXPECT_TRUE(r.substitute->group_by.empty());
  // count(*) over the rollup is SUM(cnt).
  const Expr& out = *r.substitute->outputs[0].expr;
  ASSERT_EQ(out.kind(), ExprKind::kAggregate);
  EXPECT_EQ(out.agg_kind(), AggKind::kSum);
}

TEST_F(MatcherExtraTest, EmptyQueryRangeStillMatches) {
  // Contradictory query predicates (l_partkey > 10 AND < 5): the view
  // trivially contains the (empty) result; compensation reproduces the
  // contradiction.
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kGt, qb.Col(ql, "l_partkey"),
                             Lit(10)));
  qb.Where(Expr::MakeCompare(CompareOp::kLt, qb.Col(ql, "l_partkey"),
                             Lit(5)));
  qb.Output(qb.Col(ql, "l_orderkey"));
  MatchResult r = matcher_.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  EXPECT_EQ(r.substitute->predicates.size(), 2u);
}

TEST_F(MatcherExtraTest, DuplicateResidualTextsAcrossTables) {
  // The same residual shape on two different columns: column-level
  // matching must pair them correctly (shape text alone is ambiguous).
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Where(Expr::MakeCompare(CompareOp::kNe, vb.Col(l, "l_partkey"),
                             Lit(0)));
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_suppkey"));
  ViewDefinition view(0, "v", vb.Build());

  // Query has the same shape but on l_suppkey only: the view's residual
  // (on l_partkey) is not implied -> reject.
  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kNe, qb.Col(ql, "l_suppkey"),
                             Lit(0)));
  qb.Output(qb.Col(ql, "l_orderkey"));
  MatchResult r = matcher_.Match(qb.Build(), view);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.reason, RejectReason::kResidualSubsumption);
}

TEST_F(MatcherExtraTest, DateRangesCompensate) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Where(Expr::MakeCompare(CompareOp::kGe, vb.Col(l, "l_shipdate"),
                             Expr::MakeLiteral(Value::Date(8500))));
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_shipdate"));
  ViewDefinition view(0, "v", vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kGe, qb.Col(ql, "l_shipdate"),
                             Expr::MakeLiteral(Value::Date(9000))));
  qb.Where(Expr::MakeCompare(CompareOp::kLt, qb.Col(ql, "l_shipdate"),
                             Expr::MakeLiteral(Value::Date(9365))));
  qb.Output(qb.Col(ql, "l_orderkey"));
  MatchResult r = matcher_.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  EXPECT_EQ(r.substitute->predicates.size(), 2u);
}

TEST_F(MatcherExtraTest, ServiceUnionSubstituteEndToEnd) {
  MatchingService service(&catalog_);
  std::string error;
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{1, 25},
                        std::pair<int64_t, int64_t>{26, 50}}) {
    SpjgBuilder vb(&catalog_);
    int l = vb.AddTable("lineitem");
    vb.Where(Expr::MakeCompare(CompareOp::kGe, vb.Col(l, "l_quantity"),
                               Lit(lo)));
    vb.Where(Expr::MakeCompare(CompareOp::kLe, vb.Col(l, "l_quantity"),
                               Lit(hi)));
    vb.Output(vb.Col(l, "l_orderkey"));
    vb.Output(vb.Col(l, "l_quantity"));
    ASSERT_NE(service.AddView("slice" + std::to_string(lo), vb.Build(),
                              &error),
              nullptr)
        << error;
  }
  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kGe, qb.Col(ql, "l_quantity"),
                             Lit(10)));
  qb.Where(Expr::MakeCompare(CompareOp::kLe, qb.Col(ql, "l_quantity"),
                             Lit(40)));
  qb.Output(qb.Col(ql, "l_orderkey"));
  SpjgQuery query = qb.Build();
  QueryContext ctx;
  // No single view covers [10, 40]...
  EXPECT_TRUE(service.FindSubstitutes(query, ctx).empty());
  // ...but the union of the two slices does.
  auto u = service.FindUnionSubstitute(query, ctx);
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->legs.size(), 2u);
}

}  // namespace
}  // namespace mvopt
