// The parallel break fan-out (contract C4 extended to the break phase,
// docs/CONCURRENCY.md):
//
//   * Concurrent break_region calls over a CommitPool — the exact shape
//     ShardedForest::execute dispatches — must land on the byte-identical
//     checkpoint a sequential break produces (the same primitives, each
//     region broken and stitched in turn). The engine-level fan-out gate
//     may keep breaks inline on boxes with no spare hardware threads, so
//     this suite drives the pool directly; it is what keeps the parallel
//     break TSan-covered everywhere (the tsan/asan preset filters include
//     BreakPool).
//   * The BreakEffects stitch is deterministic: region-local buffers
//     filled concurrently and applied in region id order replay the
//     sequential break's shared-state writes exactly — image-edge
//     drops, slot ops, counters, live count.
//   * The engine-level knob (set_break_workers) composes with the merge
//     fan-out across waves and worker-count changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/sharded_forest.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "support/checkpoint.h"
#include "util/rng.h"

namespace fg {
namespace {

using support::checkpoint;

// The sequential break: each region broken into one reused BreakEffects
// buffer and stitched before the next region breaks.
std::vector<std::vector<VNodeId>> sequential_break(core::StructuralCore& core,
                                                   const core::RepairPlan& plan) {
  std::vector<std::vector<VNodeId>> pieces(plan.regions.size());
  core::StructuralCore::BreakEffects effects;
  core.begin_break(plan);
  for (const core::RegionPlan& region : plan.regions) {
    pieces[static_cast<size_t>(region.id)] = core.break_region(region, &effects);
    core.apply_break_effects(region, effects);
  }
  core.finish_break(plan);
  return pieces;
}

// Break every region of one wave concurrently on a CommitPool, recording
// each region's side effects, then stitch in region id order — the pipeline
// ShardedForest::execute runs when break workers > 1.
std::vector<std::vector<VNodeId>> pooled_break(core::StructuralCore& core,
                                               const core::RepairPlan& plan,
                                               int background) {
  const int regions = static_cast<int>(plan.regions.size());
  std::vector<std::vector<VNodeId>> pieces(static_cast<size_t>(regions));
  std::vector<core::StructuralCore::BreakEffects> effects(
      static_cast<size_t>(regions));
  core.begin_break(plan);
  struct Ctx {
    std::atomic<int> next{0};
    std::atomic<int> broken{0};
  };
  auto ctx = std::make_shared<Ctx>();
  auto work = [ctx, &core, &plan, &pieces, &effects, regions] {
    for (int r = ctx->next.fetch_add(1); r < regions;
         r = ctx->next.fetch_add(1)) {
      pieces[static_cast<size_t>(r)] = core.break_region(
          plan.regions[static_cast<size_t>(r)], &effects[static_cast<size_t>(r)]);
      ctx->broken.fetch_add(1, std::memory_order_release);
    }
  };
  CommitPool pool(background);
  pool.dispatch(work);
  work();
  while (ctx->broken.load(std::memory_order_acquire) < regions)
    std::this_thread::yield();
  for (int r = 0; r < regions; ++r)
    core.apply_break_effects(plan.regions[static_cast<size_t>(r)],
                             effects[static_cast<size_t>(r)]);
  core.finish_break(plan);
  return pieces;
}

// Finish the wave (sequential merges) so the cores are comparable as full
// checkpoints, not just mid-repair state.
void finish_merge(core::StructuralCore& core, const core::RepairPlan& plan,
                  std::vector<std::vector<VNodeId>> pieces) {
  const int regions = static_cast<int>(plan.regions.size());
  std::vector<core::StructuralCore::MergeEffects> effects(
      static_cast<size_t>(regions));
  for (int r = 0; r < regions; ++r)
    core.merge_region(plan.regions[static_cast<size_t>(r)],
                      std::move(pieces[static_cast<size_t>(r)]),
                      &effects[static_cast<size_t>(r)]);
  for (int r = 0; r < regions; ++r)
    core.apply_merge_effects(effects[static_cast<size_t>(r)]);
  core.check_reservation_settled(plan);
}

TEST(BreakPool, ConcurrentBreakRegionsMatchSequential) {
  Rng rng(311);
  Graph g0 = make_erdos_renyi(150, 7.0 / 150, rng);
  core::StructuralCore sequential(g0);
  core::StructuralCore concurrent(g0);

  auto alive = sequential.image().alive_nodes();
  rng.shuffle(alive);
  alive.resize(8);

  {
    core::RepairPlan plan = ShardedForest().plan(sequential, alive);
    finish_merge(sequential, plan, sequential_break(sequential, plan));
  }
  {
    core::RepairPlan plan = ShardedForest().plan(concurrent, alive);
    finish_merge(concurrent, plan, pooled_break(concurrent, plan, 3));
  }

  EXPECT_EQ(checkpoint(sequential), checkpoint(concurrent));
  sequential.validate();
  concurrent.validate();
}

TEST(BreakPool, RepeatedWavesThroughTheSamePoolStayIdentical) {
  // Several waves, the concurrent core breaking each on a fresh drain-style
  // dispatch — the stitch must keep derived state (slot tables, healed
  // image, live count) in lockstep so later waves plan identically.
  Rng rng(313);
  Graph g0 = make_erdos_renyi(140, 7.0 / 140, rng);
  core::StructuralCore sequential(g0);
  core::StructuralCore concurrent(g0);

  for (int wave = 0; wave < 5; ++wave) {
    auto alive = sequential.image().alive_nodes();
    if (alive.size() <= 16) break;
    rng.shuffle(alive);
    alive.resize(6);
    {
      core::RepairPlan plan = ShardedForest().plan(sequential, alive);
      finish_merge(sequential, plan, sequential_break(sequential, plan));
    }
    {
      core::RepairPlan plan = ShardedForest().plan(concurrent, alive);
      finish_merge(concurrent, plan, pooled_break(concurrent, plan, 2));
    }
    ASSERT_EQ(checkpoint(sequential), checkpoint(concurrent)) << "wave " << wave;
  }
  sequential.validate();
  concurrent.validate();
}

TEST(BreakPool, EngineKnobComposesWithMergeWorkersAcrossWaves) {
  // The engine-level path: set_break_workers with and without commit
  // workers, reconfigured mid-run — every combination must track the
  // single-threaded engine's checkpoints wave for wave.
  Rng rng(317);
  Graph g0 = make_erdos_renyi(130, 7.0 / 130, rng);
  ForgivingGraph single(g0);
  ForgivingGraph pooled(g0);
  pooled.set_break_workers(4);

  for (int wave = 0; wave < 6; ++wave) {
    if (wave == 2) pooled.set_commit_workers(2);   // both fan-outs, one pool
    if (wave == 4) pooled.set_break_workers(2);    // resize the shared pool
    auto alive = single.healed().alive_nodes();
    if (alive.size() <= 12) break;
    rng.shuffle(alive);
    alive.resize(5);
    single.delete_batch(alive);
    pooled.delete_batch(alive);
    ASSERT_EQ(checkpoint(single), checkpoint(pooled)) << "wave " << wave;
  }
  single.validate();
  pooled.validate();
  EXPECT_TRUE(is_connected(pooled.healed()));
}

TEST(BreakPool, GlobalSplitSingleRegionBreaksInline) {
  // A wave of G'-adjacent victims is one region (a G' edge between two
  // victims unites them); the fan-out gate (regions <= 1) breaks it on the
  // calling thread, and it must still be byte-identical.
  Rng rng(331);
  Graph g0 = make_erdos_renyi(100, 7.0 / 100, rng);
  ForgivingGraph single(g0);
  ForgivingGraph pooled(g0);
  pooled.set_break_workers(4);

  // Grow the wave along G' edges from a random start: each victim after
  // the first is a G' neighbour of an earlier one.
  auto alive = single.healed().alive_nodes();
  std::vector<NodeId> wave{rng.pick(alive)};
  for (size_t i = 0; i < wave.size() && wave.size() < 6; ++i)
    for (NodeId y : single.gprime().neighbors(wave[i]))
      if (wave.size() < 6 && std::find(wave.begin(), wave.end(), y) == wave.end())
        wave.push_back(y);
  ASSERT_EQ(wave.size(), 6u);
  ASSERT_EQ(single.plan_delete_batch(wave).regions.size(), 1u);

  single.delete_batch(wave);
  pooled.delete_batch(wave);
  EXPECT_EQ(checkpoint(single), checkpoint(pooled));
  pooled.validate();
}

}  // namespace
}  // namespace fg
