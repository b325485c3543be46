#include "fg/virtual_forest.h"

#include <algorithm>

#include "util/check.h"

namespace fg {

namespace {

/// A reserved-but-unconstructed placeholder: dead with no owner. Tombstones
/// keep their (real, >= 0) owner, so the two dead states never collide.
bool is_placeholder(const VirtualForest::VNode& n) {
  return !n.alive && n.owner == kInvalidNode;
}

}  // namespace

VNodeId VirtualForest::reserve_range(int count) {
  FG_CHECK_MSG(count >= 0, "negative reservation");
  auto base = static_cast<VNodeId>(nodes_.size());
  VNode placeholder;
  placeholder.alive = false;  // owner stays kInvalidNode: see is_placeholder
  nodes_.resize(nodes_.size() + static_cast<size_t>(count), placeholder);
  // Credit the live count up front: construction may run concurrently and
  // must not touch shared scalars, and every reserved handle is constructed
  // before the commit settles (FG_CHECKed via unconstructed_in).
  live_count_ += count;
  return base;
}

void VirtualForest::make_leaf_in(VNodeId h, NodeId owner, NodeId other) {
  FG_CHECK_MSG(h >= 0 && h < static_cast<VNodeId>(nodes_.size()),
               "constructing outside the arena: reservation exhausted");
  VNode& n = nodes_[static_cast<size_t>(h)];
  FG_CHECK_MSG(is_placeholder(n), "handle is not an unconstructed reservation");
  n.owner = owner;
  n.other = other;
  n.is_leaf = true;
  n.rep = h;  // a real node is its own representative
  n.alive = true;
}

VNodeId VirtualForest::make_helper_in(VNodeId h, NodeId owner, NodeId other,
                                      VNodeId left, VNodeId right) {
  FG_CHECK_MSG(h >= 0 && h < static_cast<VNodeId>(nodes_.size()),
               "constructing outside the arena: reservation exhausted");
  FG_CHECK(exists(left) && exists(right));
  FG_CHECK_MSG(is_root(left) && is_root(right), "helper children must be roots");
  VNode& n = nodes_[static_cast<size_t>(h)];
  FG_CHECK_MSG(is_placeholder(n), "handle is not an unconstructed reservation");
  n.owner = owner;
  n.other = other;
  n.is_leaf = false;
  n.left = left;
  n.right = right;
  n.height = static_cast<int16_t>(1 + std::max(nodes_[left].height, nodes_[right].height));
  n.leaf_count = nodes_[left].leaf_count + nodes_[right].leaf_count;
  n.rep = nodes_[right].rep;  // Algorithm A.9: inherit the other tree's rep
  n.alive = true;
  nodes_[static_cast<size_t>(left)].parent = h;
  nodes_[static_cast<size_t>(right)].parent = h;
  return h;
}

int VirtualForest::unconstructed_in(VNodeId begin, VNodeId end) const {
  FG_CHECK(begin >= 0 && begin <= end && end <= static_cast<VNodeId>(nodes_.size()));
  int count = 0;
  for (VNodeId h = begin; h < end; ++h)
    if (is_placeholder(nodes_[static_cast<size_t>(h)])) ++count;
  return count;
}

void VirtualForest::unlink_from_parent(VNodeId child) {
  FG_CHECK(exists(child));
  VNodeId p = nodes_[child].parent;
  if (p == kNoVNode) return;
  if (nodes_[p].left == child) nodes_[p].left = kNoVNode;
  if (nodes_[p].right == child) nodes_[p].right = kNoVNode;
  nodes_[child].parent = kNoVNode;
}

void VirtualForest::remove(VNodeId h) {
  remove_uncounted(h);
  --live_count_;
}

void VirtualForest::remove_uncounted(VNodeId h) {
  FG_CHECK(exists(h));
  FG_CHECK_MSG(nodes_[h].left == kNoVNode && nodes_[h].right == kNoVNode,
               "remove requires children already detached");
  unlink_from_parent(h);
  nodes_[h].alive = false;
}

void VirtualForest::credit_removals(int count) {
  FG_CHECK_MSG(count >= 0 && count <= live_count_, "over-credited removals");
  live_count_ -= count;
}

const VirtualForest::VNode& VirtualForest::node(VNodeId h) const {
  FG_CHECK(exists(h));
  return nodes_[static_cast<size_t>(h)];
}

bool VirtualForest::exists(VNodeId h) const {
  return h >= 0 && h < static_cast<VNodeId>(nodes_.size()) &&
         nodes_[static_cast<size_t>(h)].alive;
}

VNodeId VirtualForest::root_of(VNodeId h) const {
  FG_CHECK(exists(h));
  while (nodes_[static_cast<size_t>(h)].parent != kNoVNode)
    h = nodes_[static_cast<size_t>(h)].parent;
  return h;
}

bool VirtualForest::is_perfect(VNodeId h) const {
  const VNode& n = node(h);
  return n.leaf_count == (int64_t{1} << n.height);
}

std::pair<int64_t, int> VirtualForest::validate_rec(VNodeId h, bool* ok) const {
  if (!exists(h)) {
    *ok = false;
    return {0, 0};
  }
  const VNode& n = nodes_[static_cast<size_t>(h)];
  if (n.is_leaf) {
    if (n.left != kNoVNode || n.right != kNoVNode || n.leaf_count != 1 || n.height != 0 ||
        n.rep != h)
      *ok = false;
    return {1, 0};
  }
  if (n.left == kNoVNode || n.right == kNoVNode) {
    *ok = false;
    return {0, 0};
  }
  if (node(n.left).parent != h || node(n.right).parent != h) *ok = false;
  auto [ll, lh] = validate_rec(n.left, ok);
  auto [rl, rh] = validate_rec(n.right, ok);
  if (ll + rl != n.leaf_count || 1 + std::max(lh, rh) != n.height) *ok = false;
  // Haft property at this node.
  if (!is_perfect(n.left) || ll < rl) *ok = false;
  return {ll + rl, 1 + std::max(lh, rh)};
}

bool VirtualForest::valid_haft(VNodeId root) const {
  bool ok = exists(root);
  if (ok) validate_rec(root, &ok);
  return ok;
}

std::vector<VNodeId> VirtualForest::leaves_of(VNodeId root) const {
  std::vector<VNodeId> out;
  std::vector<VNodeId> stack{root};
  while (!stack.empty()) {
    VNodeId h = stack.back();
    stack.pop_back();
    const VNode& n = node(h);
    if (n.is_leaf) {
      out.push_back(h);
      continue;
    }
    if (n.right != kNoVNode) stack.push_back(n.right);
    if (n.left != kNoVNode) stack.push_back(n.left);
  }
  return out;
}

std::vector<VNodeId> VirtualForest::subtree_of(VNodeId root) const {
  std::vector<VNodeId> out;
  std::vector<VNodeId> stack{root};
  while (!stack.empty()) {
    VNodeId h = stack.back();
    stack.pop_back();
    out.push_back(h);
    const VNode& n = node(h);
    if (n.right != kNoVNode) stack.push_back(n.right);
    if (n.left != kNoVNode) stack.push_back(n.left);
  }
  return out;
}

void VirtualForest::restore_grow(int arena_size) {
  FG_CHECK_MSG(arena_size >= static_cast<int>(nodes_.size()),
               "restore cannot shrink the arena");
  VNode placeholder;
  placeholder.alive = false;
  nodes_.resize(static_cast<size_t>(arena_size), placeholder);
}

void VirtualForest::restore_row(VNodeId h, const VNode& row) {
  FG_CHECK(h >= 0 && h < static_cast<VNodeId>(nodes_.size()));
  nodes_[static_cast<size_t>(h)] = row;
}

void VirtualForest::restore_live_count(int n) {
  FG_CHECK(n >= 0 && n <= static_cast<int>(nodes_.size()));
  live_count_ = n;
}

std::vector<VNodeId> VirtualForest::compact() {
  const size_t arena = nodes_.size();
  std::vector<VNodeId> renumber(arena, kNoVNode);
  VNodeId next = 0;
  for (size_t h = 0; h < arena; ++h)
    if (nodes_[h].alive) renumber[h] = next++;
  // A link to a row that is not live maps to kNoVNode (bounds-checked: the
  // rows may come from a restored snapshot, never trusted to index).
  auto map = [&](VNodeId h) {
    return h >= 0 && static_cast<size_t>(h) < arena ? renumber[static_cast<size_t>(h)]
                                                    : kNoVNode;
  };
  std::vector<VNode> rows;
  rows.reserve(static_cast<size_t>(next));
  for (const VNode& n : nodes_) {
    if (!n.alive) continue;
    VNode m = n;
    m.parent = map(n.parent);
    m.left = map(n.left);
    m.right = map(n.right);
    m.rep = map(n.rep);
    rows.push_back(m);
  }
  nodes_ = std::move(rows);  // releases the old buffer
  live_count_ = next;
  return renumber;
}

VirtualForest VirtualForest::from_dump(std::vector<VNode> nodes) {
  VirtualForest f;
  f.nodes_ = std::move(nodes);
  f.live_count_ = 0;
  for (const VNode& n : f.nodes_)
    if (n.alive) ++f.live_count_;
  return f;
}

std::string VirtualForest::to_dot(VNodeId root) const {
  std::string out = "digraph RT {\n  rankdir=TB;\n";
  for (VNodeId h : subtree_of(root)) {
    const VNode& n = node(h);
    out += "  n" + std::to_string(h) + " [label=\"(" + std::to_string(n.owner) + "," +
           std::to_string(n.other) + ")\", shape=" + (n.is_leaf ? "box" : "ellipse") +
           "];\n";
    if (n.left != kNoVNode)
      out += "  n" + std::to_string(h) + " -> n" + std::to_string(n.left) + ";\n";
    if (n.right != kNoVNode)
      out += "  n" + std::to_string(h) + " -> n" + std::to_string(n.right) + ";\n";
  }
  out += "}\n";
  return out;
}

bool VirtualForest::is_ancestor(VNodeId anc, VNodeId h) const {
  FG_CHECK(exists(anc) && exists(h));
  for (VNodeId cur = h; cur != kNoVNode; cur = nodes_[static_cast<size_t>(cur)].parent)
    if (cur == anc) return true;
  return false;
}

}  // namespace fg
