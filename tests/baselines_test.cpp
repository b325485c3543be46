#include "heal/baselines.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"

namespace fg {
namespace {

TEST(NoHealer, DisconnectsOnCutVertex) {
  NoHealer h(make_star(5));
  h.remove(0);
  EXPECT_EQ(connected_components(h.healed()), 4);
}

TEST(LineHealer, ConnectsNeighborsInCycle) {
  LineHealer h(make_star(6));
  h.remove(0);
  EXPECT_TRUE(is_connected(h.healed()));
  for (NodeId v = 1; v <= 5; ++v) EXPECT_EQ(h.healed().degree(v), 2);
}

TEST(LineHealer, TwoNeighborsSingleEdge) {
  LineHealer h(make_path(3));
  h.remove(1);
  EXPECT_TRUE(h.healed().has_edge(0, 2));
  EXPECT_EQ(h.healed().edge_count(), 1);
}

TEST(StarHealer, SurrogateTakesAllEdges) {
  StarHealer h(make_star(8));
  h.remove(0);
  EXPECT_TRUE(is_connected(h.healed()));
  EXPECT_EQ(h.healed().degree(1), 6);  // smallest-id neighbor becomes hub
  EXPECT_EQ(exact_diameter(h.healed()), 2);
}

TEST(BinaryTreeHealer, BalancedTreeShape) {
  BinaryTreeHealer h(make_star(8));
  h.remove(0);
  EXPECT_TRUE(is_connected(h.healed()));
  // 7 neighbors in a heap-shaped tree: root degree 2, max degree 3.
  int maxdeg = 0;
  for (NodeId v : h.healed().alive_nodes()) maxdeg = std::max(maxdeg, h.healed().degree(v));
  EXPECT_EQ(maxdeg, 3);
  EXPECT_EQ(h.healed().edge_count(), 6);
}

TEST(KAryHealer, DegreeBoundedByKPlusOne) {
  KAryHealer h(make_star(20), 4);
  h.remove(0);
  EXPECT_TRUE(is_connected(h.healed()));
  int maxdeg = 0;
  for (NodeId v : h.healed().alive_nodes()) maxdeg = std::max(maxdeg, h.healed().degree(v));
  EXPECT_LE(maxdeg, 5);
  EXPECT_GE(maxdeg, 4);
}

TEST(BaselineHealer, InsertUpdatesBothGraphs) {
  LineHealer h(make_path(3));
  std::vector<NodeId> nbrs{0, 2};
  NodeId id = h.insert(nbrs);
  EXPECT_EQ(id, 3);
  EXPECT_TRUE(h.healed().has_edge(3, 0));
  EXPECT_TRUE(h.gprime().has_edge(3, 2));
}

TEST(BaselineHealer, GPrimeKeepsDeletedNodes) {
  LineHealer h(make_path(4));
  h.remove(1);
  EXPECT_EQ(h.gprime().alive_count(), 4);
  EXPECT_TRUE(h.gprime().has_edge(0, 1));
}

TEST(MakeHealer, FactoryNames) {
  Graph g0 = make_cycle(4);
  EXPECT_EQ(make_healer("forgiving", g0)->name(), "ForgivingGraph");
  EXPECT_EQ(make_healer("none", g0)->name(), "NoHealing");
  EXPECT_EQ(make_healer("line", g0)->name(), "Line");
  EXPECT_EQ(make_healer("star", g0)->name(), "Star");
  EXPECT_EQ(make_healer("binary-tree", g0)->name(), "BinaryTree");
  EXPECT_EQ(make_healer("kary:3", g0)->name(), "KAry(3)");
  EXPECT_NE(make_healer("forgiving", g0)->forgiving(), nullptr);
  EXPECT_EQ(make_healer("line", g0)->forgiving(), nullptr);
}

TEST(MakeHealer, BadNamesAndParametersReturnNull) {
  Graph g0 = make_cycle(4);
  for (const char* name : {"bogus", "", "kary:", "kary:x", "kary:3x", "kary:1", "kary:-2"})
    EXPECT_EQ(make_healer(name, g0), nullptr) << name;
  EXPECT_NE(make_healer("kary:2", g0), nullptr);
}

TEST(BinaryTreeHealer, RepeatedDeletionsAccumulateDegree) {
  // The ablation motivation: without RT merging, repeated deletions around
  // the same survivor accumulate unbounded degree relative to G'.
  Graph g0 = make_star(10);
  BinaryTreeHealer bt(g0);
  ForgivingGraphHealer fgh(g0);
  for (NodeId v = 0; v < 6; ++v) {
    bt.remove(v);
    fgh.remove(v);
  }
  int bt_max = 0, fg_max = 0;
  for (NodeId v : bt.healed().alive_nodes()) bt_max = std::max(bt_max, bt.healed().degree(v));
  for (NodeId v : fgh.healed().alive_nodes())
    fg_max = std::max(fg_max, fgh.healed().degree(v));
  EXPECT_LE(fg_max, 3);  // FG: degree <= 3 * G'-degree (= 1 for star leaves)
}

}  // namespace
}  // namespace fg
