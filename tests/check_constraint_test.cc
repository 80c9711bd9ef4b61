// Check-constraint exploitation (§3.1.2): "check constraints on the
// tables of a query can be added to the where-clause without changing the
// query result. Hence, check constraints can be taken into account by
// including them in the antecedent of the implication Wq => Wv."

#include <gtest/gtest.h>

#include "index/matching_service.h"
#include "rewrite/matcher.h"
#include "tpch/schema.h"

namespace mvopt {
namespace {

class CheckConstraintTest : public ::testing::Test {
 protected:
  CheckConstraintTest() : schema_(tpch::BuildSchema(&catalog_)) {
    // CHECK (l_quantity <= 50) — true of all generated data.
    TableDef& lineitem = catalog_.mutable_table(schema_.lineitem);
    auto qty = lineitem.FindColumn("l_quantity");
    quantity_ = *qty;
    lineitem.AddCheckConstraint(Expr::MakeCompare(
        CompareOp::kLe, Expr::MakeColumn(0, quantity_),
        Expr::MakeLiteral(Value::Int64(50))));
    // CHECK (l_returnflag like '%') — a residual-shaped constraint.
    auto rf = lineitem.FindColumn("l_returnflag");
    lineitem.AddCheckConstraint(
        Expr::MakeLike(Expr::MakeColumn(0, *rf), "%"));
  }

  ViewDefinition QuantityBoundedView(int64_t bound) {
    SpjgBuilder vb(&catalog_);
    int l = vb.AddTable("lineitem");
    vb.Where(Expr::MakeCompare(CompareOp::kLe, vb.Col(l, "l_quantity"),
                               Expr::MakeLiteral(Value::Int64(bound))));
    vb.Output(vb.Col(l, "l_orderkey"));
    vb.Output(vb.Col(l, "l_quantity"));
    return ViewDefinition(0, "v", vb.Build());
  }

  SpjgQuery UnconstrainedQuery() {
    SpjgBuilder qb(&catalog_);
    int l = qb.AddTable("lineitem");
    qb.Output(qb.Col(l, "l_orderkey"));
    return qb.Build();
  }

  Catalog catalog_;
  tpch::Schema schema_;
  ColumnOrdinal quantity_ = -1;
};

TEST_F(CheckConstraintTest, CheckDischargesViewRange) {
  // View keeps quantity <= 60; the check guarantees quantity <= 50, so
  // the view contains every row even though the query has no predicate.
  ViewDefinition view = QuantityBoundedView(60);
  MatchOptions with;
  with.use_check_constraints = true;
  ViewMatcher matcher(&catalog_, with);
  MatchResult r = matcher.Match(UnconstrainedQuery(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  // No compensating predicate: the check-implied bound holds on the
  // view's rows already.
  EXPECT_TRUE(r.substitute->predicates.empty());
}

TEST_F(CheckConstraintTest, WithoutChecksTheViewIsRejected) {
  ViewDefinition view = QuantityBoundedView(60);
  MatchOptions without;
  without.use_check_constraints = false;
  ViewMatcher matcher(&catalog_, without);
  MatchResult r = matcher.Match(UnconstrainedQuery(), view);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.reason, RejectReason::kRangeSubsumption);
}

TEST_F(CheckConstraintTest, CheckTighterThanViewStillNeedsContainment) {
  // View keeps quantity <= 40: rows with quantity in (40, 50] are
  // missing, so even with the check the view must be rejected.
  ViewDefinition view = QuantityBoundedView(40);
  ViewMatcher matcher(&catalog_);
  MatchResult r = matcher.Match(UnconstrainedQuery(), view);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.reason, RejectReason::kRangeSubsumption);
}

TEST_F(CheckConstraintTest, QueryPredicateStillCompensated) {
  // View <= 60 (discharged by the check); the query's own quantity <= 20
  // must still be enforced on the view.
  ViewDefinition view = QuantityBoundedView(60);
  SpjgBuilder qb(&catalog_);
  int l = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kLe, qb.Col(l, "l_quantity"),
                             Expr::MakeLiteral(Value::Int64(20))));
  qb.Output(qb.Col(l, "l_orderkey"));
  ViewMatcher matcher(&catalog_);
  MatchResult r = matcher.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  ASSERT_EQ(r.substitute->predicates.size(), 1u);
  EXPECT_EQ(r.substitute->predicates[0]->compare_op(), CompareOp::kLe);
}

TEST_F(CheckConstraintTest, ResidualCheckDischargesViewResidual) {
  // View keeps rows with l_returnflag like '%'; the check states exactly
  // that, so a query without the predicate still matches.
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Where(Expr::MakeLike(vb.Col(l, "l_returnflag"), "%"));
  vb.Output(vb.Col(l, "l_orderkey"));
  ViewDefinition view(0, "v", vb.Build());
  ViewMatcher matcher(&catalog_);
  MatchResult r = matcher.Match(UnconstrainedQuery(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  EXPECT_TRUE(r.substitute->predicates.empty());
}

TEST_F(CheckConstraintTest, FilterTreeAdmitsCheckDischargedViews) {
  // End-to-end through the MatchingService: the filter tree must not
  // prune a view whose range constraint is discharged by a check.
  MatchingService service(&catalog_);
  std::string error;
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Where(Expr::MakeCompare(CompareOp::kLe, vb.Col(l, "l_quantity"),
                             Expr::MakeLiteral(Value::Int64(60))));
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_quantity"));
  ASSERT_NE(service.AddView("v", vb.Build(), &error), nullptr) << error;
  QueryContext ctx;
  auto subs = service.FindSubstitutes(UnconstrainedQuery(), ctx);
  EXPECT_EQ(subs.size(), 1u);
}

}  // namespace
}  // namespace mvopt
