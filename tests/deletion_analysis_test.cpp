// The wave analysis behind every repair plan (core::DeletionAnalysis):
// analyze_deletion marks the wave's dirty region — the victims' leaves and
// helpers (dead) and all their ancestors — in one table sized to the wave,
// with one walk per dead vnode, and reads each RT root off that walk.
// These tests hold the table against a brute-force reference on seeded
// churn streams, in both shapes a membership index has to serve: wide
// waves in a small arena, and single victims deep in a large old one. A
// corrupted parent cycle, or a chain longer than Lemma 1 allows, must abort
// the walk, and a pinned digest of every wave's plan shows the plans
// themselves did not move.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/forgiving_graph.h"
#include "fg/healer_service.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace fg {
namespace {

/// Brute-force membership by handle: dead = the victims' slot leaves and
/// helpers; dirty = dead plus every ancestor, each chain walked in full.
struct Reference {
  std::vector<uint8_t> dead;
  std::vector<uint8_t> dirty;
};

Reference reference(const core::StructuralCore& core, const std::vector<NodeId>& victims) {
  const VirtualForest& f = core.forest();
  Reference ref;
  ref.dead.assign(static_cast<size_t>(f.arena_size()), 0);
  ref.dirty.assign(static_cast<size_t>(f.arena_size()), 0);
  for (NodeId v : victims)
    for (const core::SlotTable::Entry& slot : core.slot_table().entries(v))
      for (VNodeId h : {slot.leaf, slot.helper}) {
        if (h == kNoVNode) continue;
        ref.dead[static_cast<size_t>(h)] = 1;
        for (VNodeId x = h; x != kNoVNode; x = f.node(x).parent)
          ref.dirty[static_cast<size_t>(x)] = 1;
      }
  return ref;
}

/// The roots of the RTs holding `victims`' dead vnodes, ascending, by
/// root_of over every dead vnode.
std::vector<VNodeId> reference_roots(const core::StructuralCore& core,
                                     const std::vector<NodeId>& victims) {
  std::vector<VNodeId> roots;
  for (NodeId v : victims)
    for (const core::SlotTable::Entry& slot : core.slot_table().entries(v))
      for (VNodeId h : {slot.leaf, slot.helper})
        if (h != kNoVNode) roots.push_back(core.forest().root_of(h));
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

/// Analyze the wave and check every arena handle's marks and root, the
/// table's load, and each seed's roots against the brute-force reference.
/// Returns the dirty-set size.
size_t expect_matches_reference(const core::StructuralCore& core,
                                const std::vector<NodeId>& victims) {
  const core::DeletionAnalysis a = core.analyze_deletion(victims);
  const Reference ref = reference(core, victims);
  const VirtualForest& f = core.forest();
  size_t dirty = 0;
  for (VNodeId h = 0; h < f.arena_size(); ++h) {
    const size_t i = static_cast<size_t>(h);
    EXPECT_EQ(a.is_dirty(h), ref.dirty[i] != 0) << "handle " << h;
    EXPECT_EQ(a.is_dead_vnode(h), ref.dead[i] != 0) << "handle " << h;
    if (ref.dirty[i] == 0) continue;
    ++dirty;
    const core::DirtySet::Cell* c = a.dirty.find(h);
    if (c == nullptr) continue;  // already reported above
    EXPECT_EQ(c->root, f.root_of(h)) << "handle " << h;
  }
  EXPECT_FALSE(a.is_dirty(f.arena_size()));
  EXPECT_EQ(a.dirty.size(), dirty);
  EXPECT_LE(2 * a.dirty.size(), a.dirty.capacity());

  // Each seed's roots are exactly the RTs its own victims' dead vnodes
  // live in, and no RT is split across two seeds.
  std::vector<VNodeId> all_roots;
  for (const core::DeletionAnalysis::Seed& seed : a.seeds) {
    EXPECT_EQ(seed.roots, reference_roots(core, seed.victims));
    all_roots.insert(all_roots.end(), seed.roots.begin(), seed.roots.end());
  }
  std::sort(all_roots.begin(), all_roots.end());
  EXPECT_EQ(all_roots, reference_roots(core, victims));
  return dirty;
}

/// `count` distinct random alive processors.
std::vector<NodeId> pick_victims(const ForgivingGraph& fg, int count, Rng& rng) {
  std::vector<NodeId> alive;
  for (NodeId v = 0; v < fg.healed().node_capacity(); ++v)
    if (fg.is_alive(v)) alive.push_back(v);
  rng.shuffle(alive);
  alive.resize(std::min(alive.size(), static_cast<size_t>(count)));
  return alive;
}

// Wide waves in a small arena: 64 victims a wave on a 512-node network
// with an insertion burst before every wave, so the dirty set is a large
// share of the (compacting) arena — the regime a dense mark array served.
// The analysis is held against the reference on every wave.
TEST(DeletionAnalysis, WideWavesInASmallArenaMatchTheReference) {
  for (uint64_t seed : {3u, 17u, 41u}) {
    Rng rng(seed);
    ForgivingGraph fg(make_sparse_random(512, 4.0, rng));
    int dense_waves = 0;  // arena <= 64 * dirty: where the mark array was used
    for (int wave = 0; wave < 24; ++wave) {
      for (int i = 0; i < 64; ++i) {
        std::vector<NodeId> attach = pick_victims(fg, 2, rng);
        fg.insert(attach);
      }
      std::vector<NodeId> victims = pick_victims(fg, 64, rng);
      const size_t dirty = expect_matches_reference(fg.core(), victims);
      if (static_cast<size_t>(fg.forest().arena_size()) <= 64 * dirty) ++dense_waves;
      fg.delete_batch(victims);
    }
    fg.validate();
    EXPECT_GE(dense_waves, 20) << "seed " << seed;
  }
}

// Single victims deep in a large old arena: the rt_breakup shape, a
// 2^16-leaf hub RT broken one spoke at a time, where a handful of dirty
// handles sit in an arena of about 2^17 rows — the regime that needed
// binary-searched sorted vectors instead of an arena-sized mark array.
TEST(DeletionAnalysis, SingleVictimsDeepInALargeArenaMatchTheReference) {
  constexpr int kSpokes = 1 << 16;
  ForgivingGraph fg(make_star(kSpokes + 1));
  fg.remove(0);
  ASSERT_GT(fg.forest().arena_size(), kSpokes);
  Rng rng(65536);
  for (int wave = 0; wave < 24; ++wave) {
    const NodeId v = 1 + static_cast<NodeId>(rng.next_below(kSpokes));
    if (!fg.is_alive(v)) continue;
    const std::vector<NodeId> victims{v};
    const size_t dirty = expect_matches_reference(fg.core(), victims);
    EXPECT_GE(dirty, 16u);  // a leaf ~16 levels deep, and its helper's chain
    EXPECT_LE(dirty, 64u);  // O(log n), not O(arena)
    EXPECT_GT(static_cast<size_t>(fg.forest().arena_size()), 64 * dirty);
    fg.delete_batch(victims);
  }
}

// A parent cycle in the forest (a corrupted row) must abort the walk that
// meets it instead of spinning: the walk's own path still has no root.
TEST(DeletionAnalysisDeathTest, ParentCycleAbortsTheWalk) {
  ForgivingGraph fg(make_star(17));
  fg.remove(0);
  const core::StructuralCore& core = fg.core();
  const core::SlotTable::Entry* slot = core.slot_table().find(1, 0);
  ASSERT_NE(slot, nullptr);
  const VNodeId leaf = slot->leaf;
  const VNodeId parent = core.forest().node(leaf).parent;
  ASSERT_NE(parent, kNoVNode);
  VirtualForest::VNode row = core.forest().node(parent);
  row.parent = leaf;
  fg.core().inject_vnode_row(parent, row);
  const std::vector<NodeId> victims{1};
  EXPECT_DEATH(fg.core().analyze_deletion(victims), "parent cycle");
}

// An acyclic chain longer than Lemma 1 allows (40 rows of a 127-row RT
// re-parented into one path) must abort the walk at its 33rd node.
TEST(DeletionAnalysisDeathTest, ChainOverLemmaOneBoundAbortsTheWalk) {
  ForgivingGraph fg(make_star(65));
  fg.remove(0);
  const core::StructuralCore& core = fg.core();
  const core::SlotTable::Entry* slot = core.slot_table().find(1, 0);
  ASSERT_NE(slot, nullptr);
  std::vector<VNodeId> chain{slot->leaf};
  for (VNodeId h = 0; h < core.forest().arena_size() && chain.size() < 40; ++h)
    if (core.forest().exists(h) && h != slot->leaf) chain.push_back(h);
  ASSERT_EQ(chain.size(), 40u);
  for (size_t i = 0; i < chain.size(); ++i) {
    VirtualForest::VNode row = core.forest().node(chain[i]);
    row.parent = i + 1 < chain.size() ? chain[i + 1] : kNoVNode;
    fg.core().inject_vnode_row(chain[i], row);
  }
  const std::vector<NodeId> victims{1};
  EXPECT_DEATH(fg.core().analyze_deletion(victims), "longer than Lemma 1");
}

// ---------------------------------------------------------------------------
// Plans pinned across commits.

/// FNV-1a over every committed wave's plan, fed through the core's delta
/// recorder seam (fired once per settled wave with the plan it committed).
class PlanDigest : public core::DeltaRecorder {
 public:
  void on_wave_committed(const core::StructuralCore& core,
                         const core::RepairPlan& plan) override {
    (void)core;
    ++waves_;
    add(static_cast<int64_t>(plan.regions.size()));
    for (const core::RegionPlan& r : plan.regions) {
      add(r.arena_base);
      add_all(r.victims);
      add_all(r.roots);
      add(static_cast<int64_t>(r.events.size()));
      for (const core::RegionPlan::Event& e : r.events) {
        add(e.is_piece ? 1 : 0);
        add(e.h);
      }
      add(static_cast<int64_t>(r.fresh.size()));
      for (const core::RegionPlan::FreshLeaf& l : r.fresh) {
        add(l.owner);
        add(l.dead);
      }
      add(static_cast<int64_t>(r.pieces.size()));
      for (const haft::PieceInfo& p : r.pieces) {
        add(p.leaf_count);
        add(static_cast<int64_t>(p.key));
      }
      add(static_cast<int64_t>(r.steps.size()));
      for (const haft::MergeStep& s : r.steps) {
        add(s.left);
        add(s.right);
        add(s.result);
      }
      add(static_cast<int64_t>(r.victim_edges.size()));
      for (const auto& [u, v] : r.victim_edges) {
        add(u);
        add(v);
      }
      add(r.red_teardowns);
    }
  }

  uint64_t digest() const { return h_; }
  int64_t waves() const { return waves_; }

 private:
  void add(int64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= static_cast<uint64_t>(x >> (8 * b)) & 0xFFu;
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& xs) {
    add(static_cast<int64_t>(xs.size()));
    for (const T& x : xs) add(x);
  }

  uint64_t h_ = 14695981039346656037ULL;
  int64_t waves_ = 0;
};

// A seeded 50/50 churn stream through the shipped HealerConfig{} at
// n = 4096. The digest was recorded from the planner that kept sorted
// dead/dirty vectors (and an arena-sized mark array for dense waves): the
// wave-sized table must not move a single plan field.
TEST(PlanGolden, ServicePlansArePinned) {
  constexpr int kNodes = 4096;
  constexpr int kOps = 8000;
  Rng rng(23);
  Graph g0 = make_sparse_random(kNodes, 8.0, rng);
  HealerService service(g0);
  PlanDigest digest;
  service.engine().core().set_delta_recorder(&digest);

  std::vector<NodeId> pool(static_cast<size_t>(kNodes));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = kNodes;
  for (int i = 0; i < kOps; ++i) {
    if (pool.size() > 64 && rng.next_bool(0.5)) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      service.push(ChurnOp::Delete(victim));
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      service.push(ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
  }
  service.flush();
  service.engine().core().set_delta_recorder(nullptr);

  EXPECT_EQ(digest.waves(), service.stats().waves);
  EXPECT_EQ(digest.waves(), 63);
  EXPECT_EQ(digest.digest(), 14525643045588729545ULL);
}

}  // namespace
}  // namespace fg
