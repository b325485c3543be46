// The break stream the distributed engine reads its repair DAG from.
//
// For every region of a plan, in region id order: one begin record, then
// each break-script event (a piece or a teardown) with its vnode's owner
// and RT parent's owner, then each fresh anchor leaf at its reserved handle
// arena_base + j with no parent. The engine turns these records into its
// teardown and detach messages, so the stream's order and arguments are
// protocol behaviour, not an implementation detail. A seeded multi-region
// churn stream is planned with ShardedForest::plan; each record is read
// off the plan against the core before ShardedForest::execute commits it,
// and folds its kind, region id, handle, owner and parent owner into an
// FNV-1a digest. The pinned digest was recorded from the callbacks the
// core's sequential break once fired while applying the same script: an
// event's owner and parent stay fixed until its own event runs, so reading
// them before the commit gives the same stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/sharded_forest.h"
#include "fg/virtual_forest.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace fg {
namespace {

class CallbackDigest {
 public:
  /// Fold every record of `plan`, read against `core` before the commit.
  void add_plan(const core::StructuralCore& core, const core::RepairPlan& plan) {
    const VirtualForest& forest = core.forest();
    for (const core::RegionPlan& region : plan.regions) {
      region_ = region.id;
      ++callbacks_;
      add(0);
      add(region.id);
      for (const core::RegionPlan::Event& e : region.events) {
        const VirtualForest::VNode& n = forest.node(e.h);
        const NodeId parent_owner =
            n.parent == kNoVNode ? kInvalidNode : forest.node(n.parent).owner;
        add_callback(e.is_piece ? 1 : 2, e.h, n.owner, parent_owner);
      }
      VNodeId leaf = region.arena_base;
      for (const core::RegionPlan::FreshLeaf& f : region.fresh)
        add_callback(1, leaf++, f.owner, kInvalidNode);
    }
  }

  uint64_t digest() const { return h_; }
  int64_t callbacks() const { return callbacks_; }

 private:
  void add_callback(int kind, VNodeId h, NodeId owner, NodeId parent_owner) {
    ++callbacks_;
    add(kind);
    add(region_);
    add(h);
    add(owner);
    add(parent_owner);
  }
  void add(int64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= static_cast<uint64_t>(x >> (8 * b)) & 0xFFu;
      h_ *= 1099511628211ULL;
    }
  }

  uint64_t h_ = 14695981039346656037ULL;
  int64_t callbacks_ = 0;
  int region_ = -1;
};

struct StreamResult {
  uint64_t digest = 0;
  int waves = 0;
  int multi_region_waves = 0;
};

/// A 50/50 insert/delete stream at n = 512 in 16-victim waves. Each wave's
/// plan is folded into the digest, then committed by ShardedForest::execute.
StreamResult run_stream() {
  constexpr int kNodes = 512;
  constexpr int kOps = 3000;
  constexpr size_t kWave = 16;
  Rng rng(59);
  core::StructuralCore core(make_sparse_random(kNodes, 4.0, rng));
  ShardedForest shards;
  CallbackDigest digest;
  StreamResult result;

  std::vector<NodeId> pool(static_cast<size_t>(kNodes));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  std::vector<NodeId> wave;
  for (int i = 0; i < kOps; ++i) {
    if (pool.size() > 64 && rng.next_bool(0.5)) {
      const size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      wave.push_back(pool[j]);
      pool[j] = pool.back();
      pool.pop_back();
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      const NodeId ends[] = {a, b};
      pool.push_back(core.insert_node(ends));
    }
    if (wave.size() < kWave) continue;
    core::RepairPlan plan = shards.plan(core, wave);
    wave.clear();
    ++result.waves;
    if (plan.regions.size() > 1) ++result.multi_region_waves;
    digest.add_plan(core, plan);
    shards.execute(core, plan);
  }
  core.validate();
  EXPECT_GT(digest.callbacks(), 2000);
  result.digest = digest.digest();
  return result;
}

TEST(ObserverGolden, CallbackStreamIsPinned) {
  const StreamResult reserved = run_stream();
  EXPECT_GT(reserved.waves, 50);
  EXPECT_GT(reserved.multi_region_waves, 0);
  EXPECT_EQ(reserved.digest, 7244505360903251050ULL);
}

}  // namespace
}  // namespace fg
