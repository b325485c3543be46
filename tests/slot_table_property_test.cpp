// Property test for the pooled flat slot tables (fg/core/slot_table.h):
// random interleaved attach (ensure) / field-install / detach (erase) /
// teardown (clear) sequences are checked against a naive map-of-pairs model
// after every step — the same harness shape as graph_view_property_test.cpp
// for the adjacency substrate. The pinned properties are what the commit
// path relies on:
//   * entries(v) is sorted ascending by `other` and duplicate-free, so
//     every slot walk (helper counts, root scans, checkpoint rebuild) is
//     canonical by construction;
//   * find/ensure/erase/count/clear match the model exactly, across spill
//     growth and pooled-block recycling;
//   * the deterministic merge tie-break is preserved: ordering per-
//     processor slots by `other` is exactly ordering them by
//     slot_key(owner, other) — the key piece_info derives from a piece's
//     representative (rep.owner, rep.other), the paper's "NodeID" order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "fg/core/slot_table.h"
#include "fg/virtual_forest.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace fg::core {
namespace {

/// Naive model: (owner, other) -> (leaf, helper).
using Model = std::map<std::pair<NodeId, NodeId>, std::pair<VNodeId, VNodeId>>;

void check_equivalent(const SlotTable& slots, const Model& m, int procs) {
  // Per-processor expected slots, sorted by `other` (std::map iterates keys
  // in ascending (owner, other) order already).
  std::vector<std::vector<std::pair<NodeId, std::pair<VNodeId, VNodeId>>>>
      expect(static_cast<size_t>(procs));
  for (const auto& [key, val] : m)
    expect[static_cast<size_t>(key.first)].push_back({key.second, val});

  for (NodeId v = 0; v < procs; ++v) {
    const auto& want = expect[static_cast<size_t>(v)];
    ASSERT_EQ(slots.count(v), static_cast<int>(want.size())) << "proc " << v;
    auto view = slots.entries(v);
    ASSERT_EQ(view.size(), want.size());
    for (size_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view[i].other, want[i].first) << "proc " << v << " slot " << i;
      ASSERT_EQ(view[i].leaf, want[i].second.first);
      ASSERT_EQ(view[i].helper, want[i].second.second);
      if (i > 0) {
        ASSERT_LT(view[i - 1].other, view[i].other);  // sorted, unique
        // The merge tie-break: per-processor slot order by `other` IS the
        // slot_key order piece_info ranks representatives by.
        ASSERT_LT(slot_key(v, view[i - 1].other), slot_key(v, view[i].other));
      }
    }
    // Both lookup paths agree, present and absent.
    for (const auto& [other, val] : want) {
      const SlotTable::Entry* e = slots.find(v, other);
      ASSERT_NE(e, nullptr);
      ASSERT_EQ(e->leaf, val.first);
      ASSERT_EQ(e->helper, val.second);
    }
    for (NodeId w = 0; w < procs; w += 3) {
      bool present = m.contains({v, w});
      ASSERT_EQ(slots.find(v, w) != nullptr, present);
    }
  }
}

TEST(SlotTableProperty, RandomChurnMatchesMapOfPairsModel) {
  Rng rng(20260808);
  for (int trial = 0; trial < 8; ++trial) {
    const int procs = 4 + static_cast<int>(rng.next_below(12));
    SlotTable slots;
    slots.resize(static_cast<size_t>(procs));
    Model m;
    VNodeId next_vnode = 1;

    for (int step = 0; step < 400; ++step) {
      NodeId v = static_cast<NodeId>(rng.next_below(procs));
      NodeId w = static_cast<NodeId>(rng.next_below(procs));
      const uint64_t roll = rng.next_below(100);
      if (roll < 45) {
        // Attach: ensure a slot and install its leaf (idempotent on the
        // key; an existing slot keeps its fields — exactly what the break
        // stitch relies on when it FG_CHECKs the slot was empty).
        SlotTable::Entry& e = slots.ensure(v, w);
        auto [it, inserted] = m.try_emplace({v, w}, std::pair{kNoVNode, kNoVNode});
        ASSERT_EQ(e.leaf, it->second.first);
        ASSERT_EQ(e.helper, it->second.second);
        if (inserted) {
          e.leaf = next_vnode;
          it->second.first = next_vnode++;
        }
      } else if (roll < 65) {
        // Install/steal a field in place: the merge fan-out's only slot
        // write (merge_region installing a helper), and the teardown
        // stitch's field clear.
        if (const SlotTable::Entry* found = slots.find(v, w)) {
          SlotTable::Entry* e = slots.find(v, w);
          ASSERT_EQ(e, found);
          auto& mv = m.at({v, w});
          if (rng.next_bool(0.5)) {
            e->helper = next_vnode;
            mv.second = next_vnode++;
          } else {
            e->helper = kNoVNode;
            mv.second = kNoVNode;
          }
        } else {
          ASSERT_FALSE(m.contains({v, w}));
        }
      } else if (roll < 85) {
        // Detach: erase the slot if present (the break stitch's path once
        // both fields are empty).
        if (slots.find(v, w) != nullptr) {
          slots.erase(v, w);
          ASSERT_EQ(m.erase({v, w}), 1u);
        } else {
          ASSERT_FALSE(m.contains({v, w}));
        }
      } else {
        // Teardown: drop all of v's slots (finish_break on a victim),
        // returning its spill block to the pool for later reuse.
        slots.clear(v);
        for (auto it = m.begin(); it != m.end();)
          it = (it->first.first == v) ? m.erase(it) : std::next(it);
      }
      if (step % 19 == 0) check_equivalent(slots, m, procs);
    }
    check_equivalent(slots, m, procs);
  }
}

TEST(SlotTableProperty, HubChurnRecyclesSpillBlocks) {
  // Grow one processor's table past every size class, clear it, regrow a
  // second: the second table must reuse pooled blocks without disturbing
  // the small (inline) tables around it.
  const int procs = 300;
  SlotTable slots;
  slots.resize(procs);
  Model m;
  for (NodeId w = 1; w < procs; ++w) {
    slots.ensure(0, w).leaf = w;
    m[{0, w}] = {w, kNoVNode};
    slots.ensure(w, 0).leaf = w + 1000;  // every spoke keeps an inline slot back
    m[{w, 0}] = {w + 1000, kNoVNode};
  }
  check_equivalent(slots, m, procs);
  slots.clear(0);
  for (auto it = m.begin(); it != m.end();)
    it = (it->first.first == 0) ? m.erase(it) : std::next(it);
  for (NodeId w = 2; w < procs; ++w) {
    slots.ensure(1, w).leaf = w;
    auto [it, inserted] = m.try_emplace({1, w}, std::pair{kNoVNode, kNoVNode});
    if (inserted) it->second.first = w;
  }
  check_equivalent(slots, m, procs);
}

TEST(SlotTableProperty, GrowOnlyResizePreservesTables) {
  SlotTable slots;
  slots.resize(2);
  slots.ensure(0, 9).leaf = 7;
  slots.ensure(1, 3).helper = 8;
  slots.resize(6);  // insert_node path: later processors start empty
  ASSERT_EQ(slots.procs(), 6u);
  ASSERT_EQ(slots.find(0, 9)->leaf, 7);
  ASSERT_EQ(slots.find(1, 3)->helper, 8);
  for (NodeId v = 2; v < 6; ++v) ASSERT_EQ(slots.count(v), 0);
}

TEST(SlotTableProperty, SlotKeyOrdersLexicographically) {
  // The representative tie-break rule: slot_key(owner, other) compares
  // exactly like the pair (owner, other) for the non-negative ids the
  // engine uses — so the haft merge plan's key order is the paper's NodeID
  // order, independent of container iteration order.
  const std::vector<std::pair<NodeId, NodeId>> keys = {
      {0, 0}, {0, 1}, {0, 1000000}, {1, 0}, {1, 1}, {7, 3}, {7, 4}, {8, 0}};
  for (size_t i = 0; i < keys.size(); ++i)
    for (size_t j = 0; j < keys.size(); ++j)
      ASSERT_EQ(slot_key(keys[i].first, keys[i].second) <
                    slot_key(keys[j].first, keys[j].second),
                keys[i] < keys[j])
          << "(" << keys[i].first << "," << keys[i].second << ") vs ("
          << keys[j].first << "," << keys[j].second << ")";
}

}  // namespace
}  // namespace fg::core
