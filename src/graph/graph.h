// Dynamic undirected simple graph over pooled flat adjacency.
//
// This is the shared substrate for the whole repository: the healed network
// G, the insertions-only reference graph G', and every baseline healer
// operate on Graph. Node ids are small dense integers handed out by the
// caller (the experiment harness allocates them consecutively); removal
// leaves a tombstone so ids are never reused, matching the paper's model in
// which a deleted processor never returns.
//
// Storage model (docs/DESIGN.md, "Graph substrate"): each node's neighbor
// list is a *sorted* flat array — up to kInlineCap ids inline in the
// per-node slot, larger lists in a shared spill pool (one contiguous
// buffer with power-of-two size-class free lists, so an edge flip never
// touches the general-purpose allocator once the pool is warm). Reads are
// cache-linear and the iteration order is ascending by construction, which
// makes every traversal — checkpoints, repair plans, trace output —
// canonical and stdlib-independent (contract C4 determinism no longer
// depends on a hash function).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/prefetch.h"

namespace fg {

/// Processor / vertex identifier. Dense, non-negative, never reused.
using NodeId = int32_t;

constexpr NodeId kInvalidNode = -1;

/// A read-only, always-sorted, duplicate-free range over the alive
/// neighbors of one node. A lightweight pointer pair: copy freely, but any
/// Graph mutation invalidates outstanding views (the spill pool may move).
class NeighborView {
 public:
  using value_type = NodeId;
  using iterator = const NodeId*;
  using const_iterator = const NodeId*;

  NeighborView() = default;
  NeighborView(const NodeId* first, const NodeId* last) : first_(first), last_(last) {}

  const NodeId* begin() const { return first_; }
  const NodeId* end() const { return last_; }
  size_t size() const { return static_cast<size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  NodeId operator[](size_t i) const { return first_[i]; }
  NodeId front() const { return *first_; }
  NodeId back() const { return *(last_ - 1); }

  /// Membership by binary search (the view is sorted).
  bool contains(NodeId w) const;

 private:
  const NodeId* first_ = nullptr;
  const NodeId* last_ = nullptr;
};

/// One edge flip of a batched mutation (see Graph::apply_edge_deltas).
struct EdgeDelta {
  enum class Op : uint8_t { kAdd, kRemove };

  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  Op op = Op::kAdd;
};

/// Undirected simple graph with tombstoned deletion.
class Graph {
 public:
  Graph() = default;

  /// Create `n` initial nodes with ids 0..n-1 and no edges.
  explicit Graph(int n);

  /// Add a new node and return its id (ids are consecutive).
  NodeId add_node();

  /// Ensure ids [0, id] exist (used when mirroring another graph's ids).
  void ensure_node(NodeId id);

  /// Remove a node and all incident edges. The id becomes dead forever.
  void remove_node(NodeId v);

  /// Add an undirected edge. Returns false if it already existed.
  /// Both endpoints must be alive; self loops are rejected.
  bool add_edge(NodeId u, NodeId v);

  /// Remove an undirected edge. Returns false if it did not exist.
  bool remove_edge(NodeId u, NodeId v);

  /// Apply a batch of edge flips with add_edge / remove_edge semantics per
  /// delta (an add of an existing edge or a remove of an absent one is
  /// skipped); returns how many deltas changed the graph. Each undirected
  /// edge may appear at most once per batch (FG_DCHECKed), so the batch is
  /// order-free and every touched node's list is rebuilt in ONE linear
  /// merge sweep — k flips against one node cost O(degree + k log k), not
  /// O(degree * k). This is the entry point the structural core's commit
  /// drives: one call per region's image-edge side effects.
  int apply_edge_deltas(std::span<const EdgeDelta> deltas);

  /// Bulk-load a canonical edge list into a graph that has no edges yet.
  /// `edges` must be strictly ascending lexicographically with u < v, both
  /// endpoints alive and in range (FG_DCHECKed — the caller validates
  /// untrusted input first; uint32 pairs because that is the snapshot
  /// section layout, so the restore path loads with no conversion copy).
  /// One degree-count pass sizes every neighbor list at its final size
  /// class and lays the spill blocks out back-to-back in one pool
  /// allocation, one fill pass appends through a flat cursor array;
  /// because for each node every smaller neighbor arrives (ascending)
  /// before any larger one, the lists are sorted by construction. O(V + E)
  /// total with no per-edge searches or incremental regrowth — this is the
  /// snapshot restore path.
  void add_edges_bulk(std::span<const std::pair<uint32_t, uint32_t>> edges);

  bool has_edge(NodeId u, NodeId v) const;
  bool is_alive(NodeId v) const;

  /// Prefetch v's adjacency head (a cache hint; no effect on state), so a
  /// loop over independent neighbors() calls can overlap their misses.
  void prefetch(NodeId v) const { util::prefetch(&adj_[static_cast<size_t>(v)]); }

  /// Number of ids ever created (alive + dead).
  int node_capacity() const { return static_cast<int>(adj_.size()); }

  /// Number of alive nodes.
  int alive_count() const { return alive_count_; }

  /// Number of edges (between alive nodes; dead nodes have none).
  int64_t edge_count() const { return edge_count_; }

  int degree(NodeId v) const;

  /// The neighbors of v as a sorted flat view. Invalidated by any mutation.
  NeighborView neighbors(NodeId v) const;

  /// Visit every neighbor of v in ascending id order.
  template <class F>
  void for_each_neighbor(NodeId v, F&& f) const {
    for (NodeId w : neighbors(v)) f(w);
  }

  /// All alive node ids in increasing order.
  std::vector<NodeId> alive_nodes() const;

  /// Deep equality on alive nodes and edges (used by the centralized vs
  /// distributed equivalence tests).
  bool same_topology(const Graph& other) const;

 private:
  /// Neighbor lists up to this long live inline in the per-node slot;
  /// longer lists spill to the pool (capacities double from kSpillMinCap).
  static constexpr int32_t kInlineCap = 4;
  static constexpr int32_t kSpillMinCap = 8;

  struct AdjSlot {
    int32_t degree = 0;
    int32_t cap = kInlineCap;  ///< == kInlineCap means inline storage.
    uint32_t spill = 0;        ///< Pool offset; meaningful iff cap > kInlineCap.
    NodeId inl[kInlineCap] = {kInvalidNode, kInvalidNode, kInvalidNode, kInvalidNode};
  };

  void check_valid(NodeId v) const;
  const NodeId* adj_data(const AdjSlot& s) const;
  NodeId* adj_data(AdjSlot& s);
  /// Insert w into v's sorted list (false if present). May move the list.
  bool insert_neighbor(NodeId v, NodeId w);
  /// Erase w from v's sorted list (false if absent). Never moves the list.
  bool erase_neighbor(NodeId v, NodeId w);
  void grow_slot(AdjSlot& s);
  /// Ensure capacity for `need` entries, DISCARDING current contents
  /// (single allocation at the final size class — for callers about to
  /// overwrite the whole list).
  void reserve_slot_discard(AdjSlot& s, int32_t need);
  /// Return v's spill block (if any) to its size-class free list.
  void release_slot(AdjSlot& s);
  uint32_t pool_alloc(int32_t cap);
  void pool_free(uint32_t offset, int32_t cap);
  static int size_class(int32_t cap);

  /// One endpoint's view of a delta (each delta contributes two), packed
  /// for a plain-integer sort: node << 32 | other << 1 | is_add. Sorting
  /// the packed keys orders touches by (node, other) with the op in the
  /// low bit.
  using Touch = uint64_t;
  static Touch pack_touch(NodeId node, NodeId other, EdgeDelta::Op op) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 32) |
           (static_cast<uint64_t>(static_cast<uint32_t>(other)) << 1) |
           (op == EdgeDelta::Op::kAdd ? 1u : 0u);
  }
  static NodeId touch_node(Touch t) { return static_cast<NodeId>(t >> 32); }
  static NodeId touch_other(Touch t) {
    return static_cast<NodeId>((t >> 1) & 0x7FFFFFFFu);
  }
  static bool touch_is_add(Touch t) { return (t & 1) != 0; }
  /// Rebuild `node`'s sorted list by merging in its touches; counts the
  /// applied flips (on the node < other endpoint only) into added/removed.
  void merge_touches(NodeId node, std::span<const Touch> touches, int* added,
                     int* removed);

  std::vector<AdjSlot> adj_;
  /// The spill pool: every spilled neighbor list is a sub-range of this one
  /// buffer. Blocks are recycled through free_lists_ (one stack of offsets
  /// per power-of-two size class); the buffer itself never shrinks.
  std::vector<NodeId> pool_;
  std::vector<std::vector<uint32_t>> free_lists_;
  std::vector<char> alive_;
  /// apply_edge_deltas scratch, pooled across calls.
  std::vector<Touch> touch_scratch_;
  std::vector<NodeId> merge_scratch_;
  int alive_count_ = 0;
  int64_t edge_count_ = 0;
};

}  // namespace fg
