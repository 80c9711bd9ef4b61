// Structure-sharing catalog snapshots (DESIGN.md §15): a new generation
// shares every catalog entry and filter-tree node its write did not
// touch, generations stay independent values after the copy, and under
// random sequences of registrations, aborted registrations, quarantines
// and readmissions every published generation answers like a tree built
// from scratch — and keeps answering as it did after later writes.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "index/matching_service.h"
#include "rewrite/match_program.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/invariant_auditor.h"

namespace mvopt {
namespace {

std::vector<ViewId> Sorted(std::vector<ViewId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

ViewId Register(CatalogSnapshot* snap, const std::string& name,
                SpjgQuery definition) {
  std::string error;
  ViewDefinition* view = snap->views.AddView(name, std::move(definition),
                                             &error);
  EXPECT_NE(view, nullptr) << error;
  if (view == nullptr) return kInvalidViewId;
  snap->tree.AddView(view->id(), snap->views.shared_description(view->id()));
  return view->id();
}

class SnapshotSharingTest : public ::testing::Test {
 protected:
  SnapshotSharingTest() : schema_(tpch::BuildSchema(&catalog_, 0.001)) {
    tpch::WorkloadGenerator gen(&catalog_, 11);
    for (int i = 0; i < 101; ++i) defs_.push_back(gen.GenerateView());
    for (const SpjgQuery& def : defs_) {
      probes_.push_back(DescribeQuery(catalog_, def));
    }
  }

  std::vector<std::vector<ViewId>> Answers(const FilterTree& tree) const {
    std::vector<std::vector<ViewId>> out;
    for (const QueryDescription& probe : probes_) {
      out.push_back(tree.FindCandidates(probe));
    }
    return out;
  }

  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> defs_;
  std::vector<QueryDescription> probes_;
};

TEST_F(SnapshotSharingTest, NextGenerationSharesWhatTheAddDidNotTouch) {
  CatalogSnapshot first(&catalog_);
  for (int i = 0; i < 100; ++i) {
    Register(&first, "v" + std::to_string(i), defs_[i]);
  }
  const std::vector<std::vector<ViewId>> before = Answers(first.tree);

  CatalogSnapshot next(first);
  EXPECT_EQ(next.version, first.version + 1);
  const ViewId added = Register(&next, "v100", defs_[100]);
  ASSERT_EQ(added, 100);

  // Catalog entries are shared, not copied.
  EXPECT_EQ(&first.views.description(0), &next.views.description(0));
  EXPECT_EQ(&first.views.description(99), &next.views.description(99));
  EXPECT_EQ(&first.views.view(0), &next.views.view(0));
  EXPECT_EQ(first.views.num_views(), 100);
  EXPECT_EQ(next.views.num_views(), 101);
  EXPECT_EQ(first.views.FindView("v100"), nullptr);
  EXPECT_EQ(next.views.FindView("v100"), &next.views.view(100));

  // The tree copied at most the new view's root-to-leaf path (one node
  // per level); every other node, untouched hubs' subtrees included, is
  // the same object in both generations.
  const int nodes = first.tree.NodeCount();
  const int shared = first.tree.SharedNodeCount(next.tree);
  EXPECT_GT(nodes, 20);
  EXPECT_GE(shared, nodes - kNumFilterLevels);
  EXPECT_LT(shared, nodes);  // the root, at least, was copied

  // The older generation is unaffected; the newer one finds the view.
  EXPECT_EQ(Answers(first.tree), before);
  const std::vector<ViewId> found = next.tree.FindCandidates(probes_[100]);
  EXPECT_NE(std::find(found.begin(), found.end(), added), found.end());
}

TEST_F(SnapshotSharingTest, WritesToTheSourceAfterACopyStayInTheSource) {
  CatalogSnapshot source(&catalog_);
  for (int i = 0; i < 50; ++i) {
    Register(&source, "v" + std::to_string(i), defs_[i]);
  }
  CatalogSnapshot copy(source);
  const std::vector<std::vector<ViewId>> copy_answers = Answers(copy.tree);
  const int copy_nodes = copy.tree.NodeCount();

  // The source owned every node before the copy; afterwards it must
  // copy them before writing, or the copy would see its writes.
  for (int i = 50; i < 100; ++i) {
    Register(&source, "v" + std::to_string(i), defs_[i]);
  }
  source.tree.RemoveView(0, source.views.description(0));
  auto program = std::make_shared<const MatchProgram>();
  source.views.SetProgram(1, program);

  EXPECT_EQ(Answers(copy.tree), copy_answers);
  EXPECT_EQ(copy.tree.NodeCount(), copy_nodes);
  EXPECT_EQ(copy.tree.num_views(), 50);
  EXPECT_EQ(copy.views.num_views(), 50);
  EXPECT_EQ(copy.views.program(1), nullptr);
  EXPECT_EQ(source.views.program(1), program);
  EXPECT_EQ(copy.views.FindView("v60"), nullptr);
  EXPECT_NE(source.views.FindView("v60"), nullptr);
}

#ifdef MVOPT_FAILPOINTS

class SnapshotDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisableAll(); }
};

TEST_P(SnapshotDifferentialTest, GenerationsMatchScratchTreeAndStayFrozen) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);
  tpch::WorkloadGenerator gen(&catalog, seed);
  std::vector<SpjgQuery> defs;
  for (int i = 0; i < 90; ++i) defs.push_back(gen.GenerateView());
  std::vector<QueryDescription> probes;
  for (int i = 0; i < 30; ++i) {
    probes.push_back(DescribeQuery(catalog, gen.GenerateQuery()));
  }
  // Each view's own definition is a probe it is guaranteed to answer.
  for (size_t i = 0; i < defs.size(); i += 3) {
    probes.push_back(DescribeQuery(catalog, defs[i]));
  }

  MatchingService service(&catalog);
  const char* const kAbortSites[] = {"filter_tree.add_view",
                                     "filter_tree.insert_leaf",
                                     "match_program.compile"};
  struct Pinned {
    std::unique_ptr<FilterTree> tree;
    std::vector<std::vector<ViewId>> answers;
  };
  std::vector<Pinned> pinned;
  std::vector<bool> live;  // by view id: in the filter tree
  size_t next_def = 0;
  Rng rng(seed);
  for (int step = 0; step < 160 && next_def < defs.size(); ++step) {
    std::vector<ViewId> in_tree;
    std::vector<ViewId> out_of_tree;
    for (size_t id = 0; id < live.size(); ++id) {
      (live[id] ? in_tree : out_of_tree).push_back(static_cast<ViewId>(id));
    }
    const size_t op = rng.Weighted({5, 2, 2, 2});
    const std::string name = "v" + std::to_string(next_def);
    if (op == 0) {
      std::string error;
      ASSERT_NE(service.AddView(name, defs[next_def], &error), nullptr)
          << error;
      live.push_back(true);
      ++next_def;
    } else if (op == 1) {
      const char* site = kAbortSites[rng.Uniform(0, 2)];
      FailpointRegistry::Instance().Enable(site);
      std::string error;
      EXPECT_EQ(service.AddView(name, defs[next_def], &error), nullptr)
          << site;
      FailpointRegistry::Instance().Disable(site);
      // The name stays free: the next add of this view must succeed.
      EXPECT_EQ(service.views().FindView(name), nullptr) << site;
    } else if (op == 2 && !in_tree.empty()) {
      const ViewId id =
          in_tree[rng.Uniform(0, static_cast<int64_t>(in_tree.size()) - 1)];
      ASSERT_TRUE(service.ReportChecksumMismatch(id));
      live[id] = false;
    } else if (op == 3 && !out_of_tree.empty()) {
      const ViewId id = out_of_tree[rng.Uniform(
          0, static_cast<int64_t>(out_of_tree.size()) - 1)];
      ASSERT_TRUE(service.ReadmitView(id));
      live[id] = true;
    }
    ASSERT_EQ(service.views().num_views(), static_cast<int>(live.size()));

    const FilterTree& current = service.filter_tree();
    FilterTree scratch;
    for (size_t id = 0; id < live.size(); ++id) {
      if (!live[id]) continue;
      const auto view = static_cast<ViewId>(id);
      scratch.AddView(view, service.views().shared_description(view));
    }
    ASSERT_EQ(current.num_views(), scratch.num_views()) << "step " << step;
    Pinned pin{std::make_unique<FilterTree>(current), {}};
    for (size_t p = 0; p < probes.size(); ++p) {
      std::vector<ViewId> got = current.FindCandidates(probes[p]);
      EXPECT_EQ(Sorted(got), Sorted(scratch.FindCandidates(probes[p])))
          << "step " << step << " probe " << p;
      pin.answers.push_back(std::move(got));
    }
    AuditReport audit = InvariantAuditor().AuditFilterTree(current);
    ASSERT_TRUE(audit.ok()) << "step " << step << ": " << audit.Summary();
    pinned.push_back(std::move(pin));
  }
  ASSERT_GT(next_def, defs.size() / 2);

  // Every generation pinned along the way answers exactly as it did.
  for (size_t g = 0; g < pinned.size(); ++g) {
    for (size_t p = 0; p < probes.size(); ++p) {
      EXPECT_EQ(pinned[g].tree->FindCandidates(probes[p]),
                pinned[g].answers[p])
          << "generation " << g << " probe " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotDifferentialTest,
                         ::testing::Values(3, 17, 29));

#endif  // MVOPT_FAILPOINTS

}  // namespace
}  // namespace mvopt
