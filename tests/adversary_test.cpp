#include "adversary/adversary.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "heal/baselines.h"

namespace fg {
namespace {

TEST(RandomDeleteAdversary, StopsAtFloor) {
  ForgivingGraphHealer h(make_cycle(5));
  RandomDeleteAdversary adv(3);
  Rng rng(1);
  int deletions = 0;
  while (auto a = adv.next(h, rng)) {
    EXPECT_EQ(a->kind, Action::Kind::kDelete);
    h.remove(a->target);
    ++deletions;
  }
  EXPECT_EQ(deletions, 2);
  EXPECT_EQ(h.healed().alive_count(), 3);
}

TEST(MaxDegreeDeleteAdversary, TargetsHub) {
  ForgivingGraphHealer h(make_star(8));
  MaxDegreeDeleteAdversary adv;
  Rng rng(1);
  auto a = adv.next(h, rng);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->target, 0);
}

TEST(HelperLoadAdversary, PrefersHelperBurdenedProcessors) {
  ForgivingGraphHealer h(make_star(9));
  Rng rng(1);
  h.remove(0);  // creates helpers among the leaves
  HelperLoadAdversary adv;
  auto a = adv.next(h, rng);
  ASSERT_TRUE(a.has_value());
  EXPECT_GT(h.engine().helper_count(a->target), 0);
}

TEST(HelperLoadAdversary, FallsBackToDegreeForBaselines) {
  StarHealer h(make_star(8));
  HelperLoadAdversary adv;
  Rng rng(1);
  auto a = adv.next(h, rng);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->target, 0);
}

TEST(ChurnAdversary, MixesInsertsAndDeletes) {
  ForgivingGraphHealer h(make_cycle(10));
  ChurnAdversary adv(0.5, 3);
  Rng rng(7);
  int inserts = 0, deletes = 0;
  for (int i = 0; i < 60; ++i) {
    auto a = adv.next(h, rng);
    ASSERT_TRUE(a.has_value());
    if (a->kind == Action::Kind::kInsert) {
      ++inserts;
      h.insert(a->neighbors);
    } else {
      ++deletes;
      h.remove(a->target);
    }
  }
  EXPECT_GT(inserts, 10);
  EXPECT_GT(deletes, 10);
}

TEST(StarAttackAdversary, DeletesHubOnceThenStops) {
  ForgivingGraphHealer h(make_star(6));
  StarAttackAdversary adv;
  Rng rng(1);
  auto a = adv.next(h, rng);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->target, 0);
  h.remove(0);
  EXPECT_FALSE(adv.next(h, rng).has_value());
}

TEST(BuildAndBurnAdversary, AlternatesInsertDelete) {
  ForgivingGraphHealer h(make_cycle(8));
  BuildAndBurnAdversary adv(4);
  Rng rng(3);
  for (int round = 0; round < 5; ++round) {
    auto a1 = adv.next(h, rng);
    ASSERT_TRUE(a1 && a1->kind == Action::Kind::kInsert);
    NodeId id = h.insert(a1->neighbors);
    auto a2 = adv.next(h, rng);
    ASSERT_TRUE(a2 && a2->kind == Action::Kind::kDelete);
    EXPECT_EQ(a2->target, id);
    h.remove(a2->target);
  }
  EXPECT_EQ(h.healed().alive_count(), 8);
}

TEST(CutVertexAdversary, FindsArticulationPoint) {
  // A dumbbell: two triangles joined through node 2 — the unique cut vertex.
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  ForgivingGraphHealer h(g);
  CutVertexAdversary adv;
  Rng rng(1);
  auto a = adv.next(h, rng);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->target, 2);
}

TEST(CutVertexAdversary, FallsBackOnBiconnectedGraphs) {
  ForgivingGraphHealer h(make_complete(5));
  CutVertexAdversary adv;
  Rng rng(1);
  auto a = adv.next(h, rng);
  ASSERT_TRUE(a.has_value());  // no cut vertex: max-degree fallback
}

TEST(CutVertexAdversary, ForgivingGraphSurvivesRepeatedCutAttacks) {
  Rng rng(5);
  Graph g0 = make_random_tree(40, rng);  // trees: every internal node is a cut
  ForgivingGraphHealer h(g0);
  CutVertexAdversary adv(6);
  int deletions = 0;
  while (auto a = adv.next(h, rng)) {
    h.remove(a->target);
    ++deletions;
    ASSERT_TRUE(is_connected(h.healed()));
  }
  EXPECT_EQ(deletions, 34);
}

TEST(MakeAdversary, FactoryNames) {
  EXPECT_EQ(make_adversary("random-delete")->name(), "random-delete");
  EXPECT_EQ(make_adversary("cut-vertex")->name(), "cut-vertex");
  EXPECT_EQ(make_adversary("maxdeg-delete")->name(), "maxdeg-delete");
  EXPECT_EQ(make_adversary("helper-load")->name(), "helper-load");
  EXPECT_EQ(make_adversary("star-attack")->name(), "star-attack");
  EXPECT_EQ(make_adversary("churn:0.5")->name(), "churn");
  EXPECT_EQ(make_adversary("build-and-burn:8")->name(), "build-and-burn");
  EXPECT_EQ(make_adversary("batch:1")->name(), "batch-delete");
  EXPECT_EQ(make_adversary("regions:2")->name(), "regions");
  EXPECT_NE(make_adversary("churn:0"), nullptr);
  EXPECT_NE(make_adversary("churn:1"), nullptr);
}

TEST(MakeAdversary, BadNamesAndParametersReturnNull) {
  for (const char* name :
       {"nope", "", "random", "churn:", "churn:abc", "churn:0.5x", "churn:-0.1", "churn:1.5",
        "churn:nan", "batch:0", "batch:-3", "batch:2x", "regions:0", "regions:x",
        "build-and-burn:0", "build-and-burn:"})
    EXPECT_EQ(make_adversary(name), nullptr) << name;
}

}  // namespace
}  // namespace fg
