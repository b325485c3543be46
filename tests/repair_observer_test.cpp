// The RepairObserver callback stream of core::StructuralCore::commit_break.
//
// The distributed engine turns every on_region_begin / on_piece /
// on_teardown callback into a message of its repair DAG, so the stream's
// order and arguments are protocol behaviour, not an implementation detail.
// A seeded multi-region churn stream is driven through plan_deletion +
// commit_break; each callback folds its kind, region id, handle, owner and
// parent owner into an FNV-1a digest, and the digest is pinned. It was
// recorded from the core whose sequential break still applied its side
// effects inline; the recorded break that replaced it had to reproduce
// every callback. Every handle comes from the plan's arena reservation, the
// only allocation mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/sharded_forest.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace fg {
namespace {

class CallbackDigest final : public core::RepairObserver {
 public:
  void on_region_begin(int region_id) override {
    region_ = region_id;
    ++callbacks_;
    add(0);
    add(region_id);
  }
  void on_piece(VNodeId root, NodeId owner, NodeId parent_owner) override {
    add_callback(1, root, owner, parent_owner);
  }
  void on_teardown(VNodeId h, NodeId owner, NodeId parent_owner) override {
    add_callback(2, h, owner, parent_owner);
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

/// A 50/50 insert/delete stream at n = 512 in 16-victim waves. Each wave
/// commits its break through commit_break with the observer installed, then
/// merges through ShardedForest::commit.
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
    core::RepairPlan plan = core.plan_deletion(wave);
    wave.clear();
    ++result.waves;
    if (plan.regions.size() > 1) ++result.multi_region_waves;
    shards.commit(core, plan, core.commit_break(plan, &digest));
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
