#include "rewrite/equiv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mvopt {
namespace {

ColumnRefId C(int t, int c) { return ColumnRefId{t, c}; }

TEST(EquivTest, TrivialClassesAfterRegistration) {
  EquivalenceClasses ec;
  ec.AddTableColumns(0, 3);
  EXPECT_EQ(ec.NumClasses(), 3);
  EXPECT_TRUE(ec.IsTrivial(C(0, 0)));
  EXPECT_FALSE(ec.AreEquivalent(C(0, 0), C(0, 1)));
}

TEST(EquivTest, MergeAndTransitivity) {
  EquivalenceClasses ec;
  ec.AddTableColumns(0, 2);
  ec.AddTableColumns(1, 2);
  ec.AddTableColumns(2, 2);
  // A=B and B=C implies A=C (the §3.1.2 transitivity example).
  ec.AddEquality(C(0, 0), C(1, 0));
  ec.AddEquality(C(1, 0), C(2, 0));
  EXPECT_TRUE(ec.AreEquivalent(C(0, 0), C(2, 0)));
  EXPECT_FALSE(ec.IsTrivial(C(0, 0)));
  EXPECT_EQ(ec.NontrivialClasses().size(), 1u);
  EXPECT_EQ(ec.ClassMembers(ec.ClassOf(C(0, 0))).size(), 3u);
}

TEST(EquivTest, EquivalentPredicatesSameClasses) {
  // (A=B, B=C) and (A=C, C=B) produce the same classes.
  EquivalenceClasses ec1;
  ec1.AddTableColumns(0, 3);
  ec1.AddEquality(C(0, 0), C(0, 1));
  ec1.AddEquality(C(0, 1), C(0, 2));
  EquivalenceClasses ec2;
  ec2.AddTableColumns(0, 3);
  ec2.AddEquality(C(0, 0), C(0, 2));
  ec2.AddEquality(C(0, 2), C(0, 1));
  for (int c = 0; c < 3; ++c) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(ec1.AreEquivalent(C(0, c), C(0, d)),
                ec2.AreEquivalent(C(0, c), C(0, d)));
    }
  }
}

TEST(EquivTest, RedundantEqualityIsNoop) {
  EquivalenceClasses ec;
  ec.AddTableColumns(0, 2);
  ec.AddEquality(C(0, 0), C(0, 1));
  int before = ec.NumClasses();
  ec.AddEquality(C(0, 1), C(0, 0));
  EXPECT_EQ(ec.NumClasses(), before);
}

TEST(EquivTest, UnregisteredColumnHasNoClass) {
  EquivalenceClasses ec;
  ec.AddTableColumns(0, 1);
  EXPECT_EQ(ec.ClassOf(C(5, 5)), -1);
  EXPECT_FALSE(ec.AreEquivalent(C(5, 5), C(0, 0)));
  // Not even equivalent to itself: it is in no class.
  EXPECT_FALSE(ec.AreEquivalent(C(5, 5), C(5, 5)));
  // Past the end of a registered slot is unregistered too.
  EXPECT_EQ(ec.ClassOf(C(0, 1)), -1);
}

TEST(EquivTest, UnregisteredColumnIsTrivial) {
  // An unregistered column is equal only to itself: trivial, and never
  // an out-of-range class lookup.
  EquivalenceClasses ec;
  EXPECT_TRUE(ec.IsTrivial(C(0, 0)));
  ec.AddTableColumns(0, 2);
  ec.AddEquality(C(0, 0), C(0, 1));
  EXPECT_TRUE(ec.IsTrivial(C(3, 0)));
  EXPECT_TRUE(ec.IsTrivial(C(-1, 0)));
  EXPECT_TRUE(ec.IsTrivial(C(0, 7)));
  EXPECT_FALSE(ec.IsTrivial(C(0, 1)));
}

TEST(EquivTest, ClassIdsFollowRegistrationOrder) {
  // Class ids number classes by their first member in registration
  // order, and members are listed in registration order, whatever order
  // the equalities arrive in.
  EquivalenceClasses ec;
  ec.AddTableColumns(0, 2);
  ec.AddTableColumns(1, 2);
  ec.AddEquality(C(1, 1), C(0, 1));
  ec.AddEquality(C(1, 0), C(1, 1));
  ASSERT_EQ(ec.NumClasses(), 2);
  EXPECT_EQ(ec.ClassOf(C(0, 0)), 0);
  EXPECT_EQ(ec.ClassOf(C(1, 0)), 1);
  auto members = ec.ClassMembers(1);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], C(0, 1));
  EXPECT_EQ(members[1], C(1, 0));
  EXPECT_EQ(members[2], C(1, 1));
  ASSERT_EQ(ec.NontrivialClasses().size(), 1u);
  EXPECT_EQ(ec.NontrivialClasses()[0], 1);
}

TEST(EquivTest, EqualityBeforeRegistrationKeepsFirstSeenOrder) {
  EquivalenceClasses ec;
  ec.AddEquality(C(1, 2), C(2, 0));  // strays, registered first
  ec.AddTableColumns(0, 1);
  ec.AddTableColumns(1, 3);
  EXPECT_EQ(ec.ClassOf(C(1, 2)), 0);
  EXPECT_EQ(ec.ClassOf(C(0, 0)), 1);
  EXPECT_EQ(ec.ClassOf(C(1, 0)), 2);
  EXPECT_EQ(ec.NumClasses(), 4);
  EXPECT_TRUE(ec.AreEquivalent(C(1, 2), C(2, 0)));
}

// ---- Differential test against a naive reference partition.

/// The specification, written as plainly as possible: a registration
/// list (first seen first) plus a label per column; merging relabels.
class ReferenceClasses {
 public:
  void AddTableColumns(int32_t t, int n) {
    for (int c = 0; c < n; ++c) Ensure(C(t, c));
  }
  void AddEquality(ColumnRefId a, ColumnRefId b) {
    const int la = label_[Ensure(a)];
    const int lb = label_[Ensure(b)];
    for (int& l : label_) {
      if (l == lb) l = la;
    }
  }
  int Find(ColumnRefId col) const {
    auto it = std::find(order_.begin(), order_.end(), col);
    return it == order_.end() ? -1 : static_cast<int>(it - order_.begin());
  }
  /// Classes by first member in registration order, members in order.
  std::vector<std::vector<ColumnRefId>> Classes() const {
    std::vector<int> first_label;
    std::vector<std::vector<ColumnRefId>> out;
    for (size_t i = 0; i < order_.size(); ++i) {
      auto it = std::find(first_label.begin(), first_label.end(), label_[i]);
      if (it == first_label.end()) {
        first_label.push_back(label_[i]);
        out.emplace_back();
        it = first_label.end() - 1;
      }
      out[static_cast<size_t>(it - first_label.begin())].push_back(order_[i]);
    }
    return out;
  }

 private:
  size_t Ensure(ColumnRefId col) {
    const int i = Find(col);
    if (i >= 0) return static_cast<size_t>(i);
    order_.push_back(col);
    label_.push_back(next_label_++);
    return order_.size() - 1;
  }

  std::vector<ColumnRefId> order_;
  std::vector<int> label_;
  int next_label_ = 0;
};

void ExpectSame(const EquivalenceClasses& ec, const ReferenceClasses& ref,
                const std::vector<ColumnRefId>& probes) {
  const auto classes = ref.Classes();
  ASSERT_EQ(ec.NumClasses(), static_cast<int>(classes.size()));
  std::vector<int32_t> nontrivial;
  for (size_t k = 0; k < classes.size(); ++k) {
    auto members = ec.ClassMembers(static_cast<int>(k));
    ASSERT_EQ(std::vector<ColumnRefId>(members.begin(), members.end()),
              classes[k])
        << "class " << k;
    if (classes[k].size() >= 2) nontrivial.push_back(static_cast<int32_t>(k));
    for (ColumnRefId m : classes[k]) {
      EXPECT_EQ(ec.ClassOf(m), static_cast<int>(k));
      EXPECT_EQ(ec.IsTrivial(m), classes[k].size() == 1);
    }
  }
  auto nt = ec.NontrivialClasses();
  EXPECT_EQ(std::vector<int32_t>(nt.begin(), nt.end()), nontrivial);
  for (ColumnRefId a : probes) {
    if (ref.Find(a) < 0) {
      EXPECT_EQ(ec.ClassOf(a), -1);
      EXPECT_TRUE(ec.IsTrivial(a));
    }
    for (ColumnRefId b : probes) {
      const int ra = ref.Find(a);
      const int rb = ref.Find(b);
      bool same = false;
      if (ra >= 0 && rb >= 0) {
        for (const auto& cls : classes) {
          const bool has_a = std::find(cls.begin(), cls.end(), a) != cls.end();
          const bool has_b = std::find(cls.begin(), cls.end(), b) != cls.end();
          if (has_a || has_b) {
            same = has_a && has_b;
            break;
          }
        }
      }
      EXPECT_EQ(ec.AreEquivalent(a, b), same);
    }
  }
}

TEST(EquivTest, RandomizedAgainstReferencePartition) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Slots 0..5 model a FROM list with self-joins (several slots of one
    // table), -1 and 2000 model refs that are never slot-indexed.
    auto random_column = [&rng]() {
      const int64_t pick = rng.Uniform(0, 19);
      const int32_t t = pick == 0   ? -1
                        : pick == 1 ? 2000
                                    : static_cast<int32_t>(pick % 6);
      return C(t, static_cast<int>(rng.Uniform(0, 6)));
    };
    std::vector<ColumnRefId> probes;
    for (int i = 0; i < 12; ++i) probes.push_back(random_column());

    EquivalenceClasses ec;
    ReferenceClasses ref;
    // A copy taken part-way through, then extended independently with
    // the same operations as a from-scratch build would see.
    std::optional<EquivalenceClasses> copy;
    std::optional<ReferenceClasses> copy_ref;
    const int num_ops = static_cast<int>(rng.Uniform(1, 40));
    for (int op = 0; op < num_ops; ++op) {
      const int64_t kind = rng.Uniform(0, 9);
      if (kind < 3) {
        // Register (or re-register, possibly wider or narrower) a slot.
        const int32_t t = static_cast<int32_t>(rng.Uniform(0, 5));
        const int n = static_cast<int>(rng.Uniform(0, 6));
        ec.AddTableColumns(t, n);
        ref.AddTableColumns(t, n);
        if (copy) {
          copy->AddTableColumns(t, n);
          copy_ref->AddTableColumns(t, n);
        }
      } else if (kind < 8) {
        const ColumnRefId a = random_column();
        const ColumnRefId b = random_column();
        ec.AddEquality(a, b);
        ref.AddEquality(a, b);
        if (copy) {
          copy->AddEquality(a, b);
          copy_ref->AddEquality(a, b);
        }
      } else {
        // A batch through AddEqualities.
        std::vector<ColumnEqualityPred> batch;
        for (int i = static_cast<int>(rng.Uniform(0, 3)); i >= 0; --i) {
          batch.push_back({random_column(), random_column()});
        }
        ec.AddEqualities(batch);
        for (const auto& p : batch) ref.AddEquality(p.lhs, p.rhs);
        if (copy) {
          copy->AddEqualities(batch);
          for (const auto& p : batch) copy_ref->AddEquality(p.lhs, p.rhs);
        }
      }
      if (!copy && rng.Bernoulli(0.1)) {
        copy = ec;
        copy_ref = ref;
      }
    }
    ExpectSame(ec, ref, probes);
    if (copy) ExpectSame(*copy, *copy_ref, probes);
    if (HasFatalFailure()) return;
  }
}

TEST(EquivTest, ManyDisjointMerges) {
  EquivalenceClasses ec;
  for (int t = 0; t < 10; ++t) ec.AddTableColumns(t, 4);
  // Chain column 0 across all tables; column 1 pairwise (0,1),(2,3)...
  for (int t = 0; t + 1 < 10; ++t) ec.AddEquality(C(t, 0), C(t + 1, 0));
  for (int t = 0; t + 1 < 10; t += 2) ec.AddEquality(C(t, 1), C(t + 1, 1));
  EXPECT_EQ(ec.ClassMembers(ec.ClassOf(C(0, 0))).size(), 10u);
  EXPECT_EQ(ec.ClassMembers(ec.ClassOf(C(0, 1))).size(), 2u);
  EXPECT_TRUE(ec.AreEquivalent(C(0, 0), C(9, 0)));
  EXPECT_FALSE(ec.AreEquivalent(C(1, 1), C(2, 1)));
  // 1 class of 10 + 5 classes of 2 + 20 trivial (cols 2,3) + 0 col1 left.
  EXPECT_EQ(ec.NumClasses(), 1 + 5 + 20);
}

}  // namespace
}  // namespace mvopt
