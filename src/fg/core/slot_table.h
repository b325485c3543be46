// Pooled flat per-processor slot tables (Table 1 of the paper).
//
// Every processor keeps, per G' edge to a dead neighbor, one *slot*: the
// real (leaf) virtual node of that edge plus the at-most-one helper node it
// simulates for it. PR 5 proved on the adjacency lists that shedding
// per-element hash nodes is the dominant lever on the wave-commit path;
// this header applies the same treatment to the slot tables — the last
// hash containers that stood on it.
//
// Storage model mirrors Graph's AdjSlot (src/graph/graph.h): each
// processor's slots are a *sorted* flat array of Entry, keyed by the far
// endpoint `other` — up to kInlineCap entries inline in the per-processor
// head, longer tables in a shared spill pool with power-of-two size-class
// free lists, so steady-state slot churn never touches the general-purpose
// allocator. Lookups are a binary search over a contiguous range; iteration
// order is ascending by `other`, which makes every slot walk — helper
// counts, root scans, checkpoint rebuild checks — canonical by
// construction, with no stdlib hash order anywhere near contract C4.
//
// Concurrency contract (docs/CONCURRENCY.md): the table is NOT internally
// synchronized. The parallel commit relies on two structural facts instead:
//   * during the merge fan-out no entry is inserted or erased, so the
//     entry arrays are stable and concurrent in-place writes to *distinct*
//     entries (merge_region installing helpers) are race-free;
//   * during the break fan-out the table is neither read nor written —
//     every slot mutation is recorded into a region-local BreakEffects
//     buffer and applied by the single-threaded stitch in region id order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fg/virtual_forest.h"
#include "graph/graph.h"
#include "util/check.h"
#include "util/prefetch.h"

namespace fg::core {

class SlotTable {
 public:
  struct Entry {
    NodeId other = kInvalidNode;  ///< Far endpoint of the G' edge slot (the key).
    VNodeId leaf = kNoVNode;      ///< The slot's real node.
    VNodeId helper = kNoVNode;    ///< The at-most-one helper simulated for it.
  };

  /// Ensure processors [0, n) have (possibly empty) tables. Grow-only.
  /// The per-processor heads are allocated lazily on the first ensure() —
  /// a table that is never written (snapshot restore of an insert-only
  /// substrate, early warmup) costs nothing but this size_t.
  void resize(size_t n) {
    FG_CHECK(n >= procs_);
    procs_ = n;
    if (!heads_.empty()) heads_.resize(n);
  }

  size_t procs() const { return procs_; }

  /// Processor v's slot for far endpoint `other`, or nullptr. Binary search
  /// over the sorted entry array.
  const Entry* find(NodeId v, NodeId other) const {
    const Head& h = head(v);
    const Entry* first = data(h);
    const Entry* last = first + h.count;
    const Entry* it = std::lower_bound(first, last, other, by_other);
    return (it != last && it->other == other) ? it : nullptr;
  }
  Entry* find(NodeId v, NodeId other) {
    return const_cast<Entry*>(std::as_const(*this).find(v, other));
  }

  /// Processor v's slot for `other`, inserted empty (sorted position) if
  /// absent. May move v's entries (never another processor's).
  Entry& ensure(NodeId v, NodeId other) {
    Head& h = head(v);
    Entry* first = data(h);
    Entry* it = std::lower_bound(first, first + h.count, other, by_other);
    if (it != first + h.count && it->other == other) return *it;
    size_t at = static_cast<size_t>(it - first);
    if (h.count == h.cap) {
      grow(h);
      first = data(h);
    }
    Entry* pos = first + at;
    std::move_backward(pos, first + h.count, first + h.count + 1);
    ++h.count;
    *pos = Entry{other, kNoVNode, kNoVNode};
    return *pos;
  }

  /// Erase processor v's slot for `other` (must exist). Never reallocates.
  void erase(NodeId v, NodeId other) {
    Head& h = head(v);
    Entry* first = data(h);
    Entry* it = std::lower_bound(first, first + h.count, other, by_other);
    FG_CHECK_MSG(it != first + h.count && it->other == other,
                 "erasing an absent slot");
    std::move(it + 1, first + h.count, it);
    --h.count;
  }

  /// Drop every slot of processor v, returning its spill block to the pool.
  void clear(NodeId v) {
    Head& h = head(v);
    if (h.cap > kInlineCap) free_block(h.spill, h.cap);
    h = Head{};
  }

  int count(NodeId v) const { return head(v).count; }

  /// Processor v's slots, sorted ascending by `other`. Invalidated by any
  /// mutation of v's table (the spill pool may move).
  std::span<const Entry> entries(NodeId v) const {
    const Head& h = head(v);
    return {data(h), static_cast<size_t>(h.count)};
  }

  /// Prefetch processor v's table head (a cache hint; no effect on state).
  void prefetch(NodeId v) const {
    if (!heads_.empty()) util::prefetch(&heads_[static_cast<size_t>(v)]);
  }

  /// Rewrite every entry's leaf and helper through `renumber` (indexed by
  /// old handle; the map VirtualForest::compact returns). A handle outside
  /// the map becomes kNoVNode. Keys are untouched, so every table stays
  /// sorted.
  void remap_handles(std::span<const VNodeId> renumber) {
    auto map = [&](VNodeId x) {
      return x >= 0 && static_cast<size_t>(x) < renumber.size()
                 ? renumber[static_cast<size_t>(x)]
                 : kNoVNode;
    };
    for (Head& h : heads_) {
      Entry* first = data(h);
      for (Entry* e = first; e != first + h.count; ++e) {
        e->leaf = map(e->leaf);
        e->helper = map(e->helper);
      }
    }
  }

 private:
  static constexpr int32_t kInlineCap = 2;
  static constexpr int32_t kSpillMinCap = 4;

  struct Head {
    int32_t count = 0;
    int32_t cap = kInlineCap;  ///< == kInlineCap means inline storage.
    uint32_t spill = 0;        ///< Pool offset; meaningful iff cap > kInlineCap.
    Entry inl[kInlineCap];
  };

  static bool by_other(const Entry& e, NodeId other) { return e.other < other; }

  const Head& head(NodeId v) const {
    FG_CHECK(v >= 0 && static_cast<size_t>(v) < procs_);
    static const Head kEmptyHead{};
    if (heads_.empty()) return kEmptyHead;
    return heads_[static_cast<size_t>(v)];
  }
  Head& head(NodeId v) {
    FG_CHECK(v >= 0 && static_cast<size_t>(v) < procs_);
    if (heads_.size() != procs_) heads_.resize(procs_);
    return heads_[static_cast<size_t>(v)];
  }

  const Entry* data(const Head& h) const {
    return h.cap == kInlineCap ? h.inl : pool_.data() + h.spill;
  }
  Entry* data(Head& h) {
    return h.cap == kInlineCap ? h.inl : pool_.data() + h.spill;
  }

  static int size_class(int32_t cap) {
    int c = 0;
    for (int32_t s = kSpillMinCap; s < cap; s <<= 1) ++c;
    return c;
  }

  uint32_t alloc_block(int32_t cap) {
    int c = size_class(cap);
    if (static_cast<size_t>(c) < free_lists_.size() && !free_lists_[static_cast<size_t>(c)].empty()) {
      uint32_t off = free_lists_[static_cast<size_t>(c)].back();
      free_lists_[static_cast<size_t>(c)].pop_back();
      return off;
    }
    auto off = static_cast<uint32_t>(pool_.size());
    pool_.resize(pool_.size() + static_cast<size_t>(cap));
    return off;
  }

  void free_block(uint32_t off, int32_t cap) {
    int c = size_class(cap);
    if (free_lists_.size() <= static_cast<size_t>(c))
      free_lists_.resize(static_cast<size_t>(c) + 1);
    free_lists_[static_cast<size_t>(c)].push_back(off);
  }

  void grow(Head& h) {
    int32_t new_cap = h.cap == kInlineCap ? kSpillMinCap : h.cap * 2;
    uint32_t off = alloc_block(new_cap);  // may move pool_: copy via indices
    Entry* src = h.cap == kInlineCap ? h.inl : pool_.data() + h.spill;
    std::copy(src, src + h.count, pool_.data() + off);
    if (h.cap > kInlineCap) free_block(h.spill, h.cap);
    h.cap = new_cap;
    h.spill = off;
  }

  /// Materialized lazily (see resize); procs_ is the logical extent.
  std::vector<Head> heads_;
  size_t procs_ = 0;
  /// The spill pool: every spilled table is a sub-range of this one buffer,
  /// recycled through per-size-class free lists; it never shrinks.
  std::vector<Entry> pool_;
  std::vector<std::vector<uint32_t>> free_lists_;
};

}  // namespace fg::core
