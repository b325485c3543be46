#include "fg/virtual_forest.h"

#include <gtest/gtest.h>

namespace fg {
namespace {

// Every vnode is constructed into a reserved handle; these reserve one
// handle at a time, so handles follow construction order.
VNodeId add_leaf(VirtualForest& f, NodeId owner, NodeId other) {
  const VNodeId h = f.reserve_range(1);
  f.make_leaf_in(h, owner, other);
  return h;
}

VNodeId add_helper(VirtualForest& f, NodeId owner, NodeId other, VNodeId left,
                   VNodeId right) {
  return f.make_helper_in(f.reserve_range(1), owner, other, left, right);
}

TEST(SlotKey, OrderingAndUniqueness) {
  EXPECT_LT(slot_key(0, 1), slot_key(0, 2));
  EXPECT_LT(slot_key(0, 99), slot_key(1, 0));
  EXPECT_NE(slot_key(1, 2), slot_key(2, 1));
}

TEST(VirtualForest, LeafBasics) {
  VirtualForest f;
  VNodeId leaf = add_leaf(f, 3, 7);
  const auto& n = f.node(leaf);
  EXPECT_TRUE(n.is_leaf);
  EXPECT_EQ(n.owner, 3);
  EXPECT_EQ(n.other, 7);
  EXPECT_EQ(n.rep, leaf);  // a real node is its own representative
  EXPECT_EQ(n.leaf_count, 1);
  EXPECT_TRUE(f.is_perfect(leaf));
  EXPECT_TRUE(f.valid_haft(leaf));
}

TEST(VirtualForest, HelperJoinSetsFields) {
  VirtualForest f;
  VNodeId a = add_leaf(f, 0, 9);
  VNodeId b = add_leaf(f, 1, 9);
  VNodeId h = add_helper(f, 0, 9, a, b);
  const auto& n = f.node(h);
  EXPECT_FALSE(n.is_leaf);
  EXPECT_EQ(n.left, a);
  EXPECT_EQ(n.right, b);
  EXPECT_EQ(n.height, 1);
  EXPECT_EQ(n.leaf_count, 2);
  EXPECT_EQ(n.rep, b);  // inherits the right child's representative
  EXPECT_EQ(f.node(a).parent, h);
  EXPECT_EQ(f.node(b).parent, h);
  EXPECT_TRUE(f.valid_haft(h));
  EXPECT_EQ(f.root_of(a), h);
}

TEST(VirtualForest, UnlinkAndRemove) {
  VirtualForest f;
  VNodeId a = add_leaf(f, 0, 9);
  VNodeId b = add_leaf(f, 1, 9);
  VNodeId h = add_helper(f, 0, 9, a, b);
  f.unlink_from_parent(a);
  f.unlink_from_parent(b);
  EXPECT_EQ(f.node(a).parent, kNoVNode);
  EXPECT_EQ(f.node(h).left, kNoVNode);
  f.remove(h);
  EXPECT_FALSE(f.exists(h));
  EXPECT_TRUE(f.exists(a));
  EXPECT_EQ(f.live_count(), 2);
}

TEST(VirtualForest, IsAncestor) {
  VirtualForest f;
  VNodeId a = add_leaf(f, 0, 9);
  VNodeId b = add_leaf(f, 1, 9);
  VNodeId c = add_leaf(f, 2, 9);
  VNodeId h1 = add_helper(f, 0, 9, a, b);
  VNodeId h2 = add_helper(f, 1, 9, h1, c);
  EXPECT_TRUE(f.is_ancestor(h2, a));
  EXPECT_TRUE(f.is_ancestor(h1, a));
  EXPECT_TRUE(f.is_ancestor(a, a));
  EXPECT_FALSE(f.is_ancestor(h1, c));
  EXPECT_FALSE(f.is_ancestor(a, h1));
}

TEST(VirtualForest, LeavesAndSubtreeEnumeration) {
  VirtualForest f;
  VNodeId a = add_leaf(f, 0, 9);
  VNodeId b = add_leaf(f, 1, 9);
  VNodeId c = add_leaf(f, 2, 9);
  VNodeId h1 = add_helper(f, 0, 9, a, b);
  VNodeId h2 = add_helper(f, 1, 9, h1, c);
  auto leaves = f.leaves_of(h2);
  EXPECT_EQ(leaves, (std::vector<VNodeId>{a, b, c}));  // left-to-right
  EXPECT_EQ(f.subtree_of(h2).size(), 5u);
  EXPECT_EQ(f.subtree_of(h1).size(), 3u);
}

TEST(VirtualForest, ValidHaftRejectsLeftImbalance) {
  VirtualForest f;
  VNodeId a = add_leaf(f, 0, 9);
  VNodeId b = add_leaf(f, 1, 9);
  VNodeId c = add_leaf(f, 2, 9);
  VNodeId h1 = add_helper(f, 0, 9, a, b);
  // Left child must be the bigger/perfect side; (c, h1) violates it.
  VNodeId bad = add_helper(f, 1, 9, c, h1);
  EXPECT_FALSE(f.valid_haft(bad));
}

TEST(VirtualForest, CompactRenumbersLiveRowsMonotonically) {
  VirtualForest f;
  VNodeId x = add_leaf(f, 5, 9);   // torn down below
  VNodeId a = add_leaf(f, 0, 9);
  VNodeId y = add_leaf(f, 6, 9);   // torn down below
  VNodeId b = add_leaf(f, 1, 9);
  VNodeId h = add_helper(f, 0, 9, a, b);
  VNodeId z = add_leaf(f, 7, 9);   // torn down below
  f.remove(x);
  f.remove(y);
  f.remove(z);
  ASSERT_EQ(f.arena_size(), 6);
  ASSERT_EQ(f.live_count(), 3);

  std::vector<VNodeId> renumber = f.compact();
  EXPECT_EQ(renumber,
            (std::vector<VNodeId>{kNoVNode, 0, kNoVNode, 1, 2, kNoVNode}));
  EXPECT_EQ(f.arena_size(), 3);
  EXPECT_EQ(f.live_count(), 3);
  const VNodeId a2 = renumber[static_cast<size_t>(a)];
  const VNodeId b2 = renumber[static_cast<size_t>(b)];
  const VNodeId h2 = renumber[static_cast<size_t>(h)];
  const auto& n = f.node(h2);
  EXPECT_EQ(n.left, a2);
  EXPECT_EQ(n.right, b2);
  EXPECT_EQ(n.rep, b2);
  EXPECT_EQ(n.owner, 0);
  EXPECT_EQ(f.node(a2).parent, h2);
  EXPECT_EQ(f.node(b2).rep, b2);
  EXPECT_TRUE(f.valid_haft(h2));

  // Nothing left to drop: the map is the identity.
  EXPECT_EQ(f.compact(), (std::vector<VNodeId>{0, 1, 2}));
}

TEST(VirtualForest, AggregatesFitLemma1Range) {
  EXPECT_TRUE(VirtualForest::aggregates_fit(1, 0));
  EXPECT_TRUE(VirtualForest::aggregates_fit(INT32_MAX, 31));
  EXPECT_FALSE(VirtualForest::aggregates_fit(0, 0));
  EXPECT_FALSE(VirtualForest::aggregates_fit(int64_t{1} << 31, 31));
  EXPECT_FALSE(VirtualForest::aggregates_fit((int64_t{1} << 32) + 1, 0));  // truncates to 1
  EXPECT_FALSE(VirtualForest::aggregates_fit(1, 32));
  EXPECT_FALSE(VirtualForest::aggregates_fit(1, 40000));
  EXPECT_FALSE(VirtualForest::aggregates_fit(1, -1));
}

TEST(VirtualForestDeathTest, HelperOverNonRootsRejected) {
  VirtualForest f;
  VNodeId a = add_leaf(f, 0, 9);
  VNodeId b = add_leaf(f, 1, 9);
  VNodeId h = add_helper(f, 0, 9, a, b);
  VNodeId c = add_leaf(f, 2, 9);
  (void)h;
  const VNodeId slot = f.reserve_range(1);
  EXPECT_DEATH(f.make_helper_in(slot, 2, 9, a, c), "roots");
}

TEST(VirtualForestDeathTest, RemoveWithChildrenRejected) {
  VirtualForest f;
  VNodeId a = add_leaf(f, 0, 9);
  VNodeId b = add_leaf(f, 1, 9);
  VNodeId h = add_helper(f, 0, 9, a, b);
  EXPECT_DEATH(f.remove(h), "detached");
}

}  // namespace
}  // namespace fg
