// The arena-id reservation behind the schedule-independent commit
// (contract C4, docs/CONCURRENCY.md):
//
//   * Property: every committed wave's final forest has the identical
//     arena_size() and the identical checkpoint (base-image) bytes across
//     commit worker counts {1, 2, 4} — the handle of every vnode a commit
//     allocates is fixed at plan time by region order alone, so the
//     schedule cannot leak into the structure. Runs under the TSan preset
//     with commit workers > 1 (the concurrency gate).
//   * Plan shape: the reservation is contiguous, disjoint, and exactly
//     sized (fresh + steps per region, prefix-summed in region id order).
//   * Guards: an exhausted or misaligned reservation fails loudly
//     (FG_CHECK) instead of silently growing or overwriting the arena.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/sharded_forest.h"
#include "fg/virtual_forest.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "support/checkpoint.h"
#include "util/rng.h"

namespace fg {
namespace {

using support::checkpoint;

// ---------------------------------------------------------------------------
// Property: checkpoints are a pure function of the schedule, not the
// commit worker count.

TEST(ArenaReservation, CommitWorkerCountNeverChangesTheForest) {
  Rng rng(271);
  Graph g0 = make_erdos_renyi(160, 7.0 / 160, rng);

  // One engine per worker count — driving plan, break, AND merge fan-outs
  // at that count — through the identical schedule of deletion waves;
  // workers = 1 is the reference.
  const std::vector<int> worker_counts{1, 2, 4};
  std::vector<ForgivingGraph> engines;
  engines.reserve(worker_counts.size());
  for (int workers : worker_counts) {
    engines.emplace_back(g0);
    engines.back().set_shard_workers(workers);
    engines.back().set_commit_workers(workers);
    engines.back().set_break_workers(workers);
  }

  for (int wave = 0; wave < 8; ++wave) {
    auto alive = engines.front().healed().alive_nodes();
    if (alive.size() <= 16) break;
    rng.shuffle(alive);
    alive.resize(6);
    for (ForgivingGraph& fg : engines) fg.delete_batch(alive);

    const std::vector<uint8_t> reference = checkpoint(engines.front());
    for (size_t i = 1; i < engines.size(); ++i) {
      ASSERT_EQ(engines[i].forest().arena_size(),
                engines.front().forest().arena_size())
          << "arena diverged at wave " << wave
          << " with commit workers=" << worker_counts[i];
      ASSERT_EQ(checkpoint(engines[i]), reference)
          << "checkpoint diverged at wave " << wave
          << " with commit workers=" << worker_counts[i];
    }
  }
  for (ForgivingGraph& fg : engines) {
    fg.validate();
    EXPECT_TRUE(is_connected(fg.healed()));
  }
}

TEST(ArenaReservation, PlanRangesAreContiguousDisjointAndExact) {
  Rng rng(277);
  Graph g0 = make_erdos_renyi(120, 7.0 / 120, rng);
  ForgivingGraph fg(g0);
  for (int i = 0; i < 30; ++i) {
    auto alive = fg.healed().alive_nodes();
    fg.remove(rng.pick(alive));
  }

  auto alive = fg.healed().alive_nodes();
  rng.shuffle(alive);
  alive.resize(10);
  core::RepairPlan plan = fg.plan_delete_batch(alive);

  // The reservation starts exactly at the planning-time arena size and the
  // regions tile it in id order: base_r = start + sum of earlier regions'
  // (fresh + steps) counts.
  ASSERT_EQ(plan.arena_start, fg.forest().arena_size());
  int next = plan.arena_start;
  for (const core::RegionPlan& region : plan.regions) {
    EXPECT_EQ(region.arena_base, next);
    next += static_cast<int>(region.fresh.size() + region.steps.size());
  }
  EXPECT_EQ(plan.arena_total, next - plan.arena_start);

  // Committing consumes the reservation exactly: the arena grows by
  // arena_total, with no hole left behind.
  fg.commit_delete_batch(plan);
  EXPECT_EQ(fg.forest().arena_size(), plan.arena_start + plan.arena_total);
  EXPECT_EQ(fg.forest().unconstructed_in(plan.arena_start,
                                         plan.arena_start + plan.arena_total),
            0);
  fg.validate();
}

TEST(ArenaReservation, ConcurrentMergeRegionsMatchSequential) {
  // The concurrent path itself, machine-independently: the engine-level
  // fan-out gate may keep commits inline on boxes with no spare hardware
  // threads, so this test drives CommitPool + merge_region directly — the
  // exact shape ShardedForest::execute dispatches — and is what keeps the
  // parallel merge TSan-covered everywhere. Two identical cores, one wave:
  // sequential merges vs pool merges must land on identical checkpoints.
  Rng rng(293);
  Graph g0 = make_erdos_renyi(150, 7.0 / 150, rng);
  core::StructuralCore sequential(g0);
  core::StructuralCore concurrent(g0);

  auto alive = sequential.image().alive_nodes();
  rng.shuffle(alive);
  alive.resize(8);

  auto run = [&](core::StructuralCore& core, bool pooled) {
    core::RepairPlan plan = ShardedForest().plan(core, alive);
    const int regions = static_cast<int>(plan.regions.size());
    std::vector<std::vector<VNodeId>> pieces(static_cast<size_t>(regions));
    core::StructuralCore::BreakEffects break_effects;
    core.begin_break(plan);
    for (int r = 0; r < regions; ++r) {
      const core::RegionPlan& region = plan.regions[static_cast<size_t>(r)];
      pieces[static_cast<size_t>(r)] = core.break_region(region, &break_effects);
      core.apply_break_effects(region, break_effects);
    }
    core.finish_break(plan);
    std::vector<core::StructuralCore::MergeEffects> effects(
        static_cast<size_t>(regions));
    if (!pooled) {
      for (int r = 0; r < regions; ++r)
        core.merge_region(plan.regions[static_cast<size_t>(r)],
                          std::move(pieces[static_cast<size_t>(r)]),
                          &effects[static_cast<size_t>(r)]);
    } else {
      struct Ctx {
        std::atomic<int> next{0};
        std::atomic<int> merged{0};
      };
      auto ctx = std::make_shared<Ctx>();
      auto work = [ctx, &core, &plan, &pieces, &effects, regions] {
        for (int r = ctx->next.fetch_add(1); r < regions;
             r = ctx->next.fetch_add(1)) {
          core.merge_region(plan.regions[static_cast<size_t>(r)],
                            std::move(pieces[static_cast<size_t>(r)]),
                            &effects[static_cast<size_t>(r)]);
          ctx->merged.fetch_add(1, std::memory_order_release);
        }
      };
      CommitPool pool(3);
      pool.dispatch(work);
      work();
      while (ctx->merged.load(std::memory_order_acquire) < regions)
        std::this_thread::yield();
    }
    for (int r = 0; r < regions; ++r)
      core.apply_merge_effects(effects[static_cast<size_t>(r)]);
    core.check_reservation_settled(plan);
  };

  run(sequential, /*pooled=*/false);
  run(concurrent, /*pooled=*/true);

  EXPECT_EQ(checkpoint(sequential), checkpoint(concurrent));
  sequential.validate();
  concurrent.validate();
}

TEST(ArenaReservation, CommitPoolPersistsAcrossWaves) {
  // The pool is built once per set_commit_workers, then reused: several
  // waves through the same engine must all land on the single-threaded
  // engine's checkpoints.
  Rng rng(283);
  Graph g0 = make_erdos_renyi(140, 7.0 / 140, rng);
  ForgivingGraph single(g0);
  ForgivingGraph pooled(g0);
  pooled.set_commit_workers(4);
  pooled.set_break_workers(4);
  for (int wave = 0; wave < 6; ++wave) {
    auto alive = single.healed().alive_nodes();
    if (alive.size() <= 12) break;
    rng.shuffle(alive);
    alive.resize(5);
    single.delete_batch(alive);
    pooled.delete_batch(alive);
    ASSERT_EQ(checkpoint(single), checkpoint(pooled)) << "wave " << wave;
  }
  // Shrinking the pool back to inline keeps working (and stays identical).
  pooled.set_commit_workers(1);
  pooled.set_break_workers(1);
  auto alive = single.healed().alive_nodes();
  std::vector<NodeId> wave{alive[0], alive[alive.size() / 2]};
  single.delete_batch(wave);
  pooled.delete_batch(wave);
  EXPECT_EQ(checkpoint(single), checkpoint(pooled));
}

// ---------------------------------------------------------------------------
// Guards: reservation misuse dies loudly instead of corrupting the arena.

using ReservationGuardsDeathTest = ::testing::Test;

TEST(ReservationGuardsDeathTest, ConstructingPastTheReservationDies) {
  VirtualForest forest;
  VNodeId base = forest.reserve_range(1);
  // One handle reserved; the second construction runs off the end of the
  // arena — the "exhausted reservation" case (an undersized plan).
  forest.make_leaf_in(base, 0, 1);
  EXPECT_DEATH(forest.make_leaf_in(base + 1, 0, 2), "reservation exhausted");
}

TEST(ReservationGuardsDeathTest, ConstructingTwiceIntoOneHandleDies) {
  VirtualForest forest;
  VNodeId base = forest.reserve_range(2);
  forest.make_leaf_in(base, 0, 1);
  // Misaligned draw: a second region colliding with an already-constructed
  // handle must not silently overwrite it.
  EXPECT_DEATH(forest.make_leaf_in(base, 5, 6), "not an unconstructed reservation");
}

TEST(ReservationGuardsDeathTest, ConstructingIntoALiveHandleDies) {
  VirtualForest forest;
  const VNodeId leaf = forest.reserve_range(3);
  forest.make_leaf_in(leaf, 0, 1);
  forest.make_leaf_in(leaf + 1, 2, 0);
  forest.make_leaf_in(leaf + 2, 3, 0);
  EXPECT_DEATH(forest.make_helper_in(leaf, 0, 2, leaf + 1, leaf + 2),
               "not an unconstructed reservation");
}

TEST(ReservationGuardsDeathTest, CommittingAStalePlanDies) {
  // Any repair between plan and commit bumps the mutation epoch (and here
  // also moves the arena); the commit re-checks and refuses.
  ForgivingGraph fg(make_path(20));
  std::vector<NodeId> wave{5};
  core::RepairPlan plan = fg.plan_delete_batch(wave);
  fg.remove(15);
  EXPECT_DEATH(fg.commit_delete_batch(plan), "stale plan");
}

TEST(ReservationGuardsDeathTest, CommittingAfterAnInsertionDies) {
  // An insertion leaves the arena completely untouched — only the
  // mutation-epoch stamp catches this staleness.
  ForgivingGraph fg(make_path(20));
  std::vector<NodeId> wave{5};
  core::RepairPlan plan = fg.plan_delete_batch(wave);
  std::vector<NodeId> neighbors{0, 10};
  fg.insert(neighbors);
  EXPECT_DEATH(fg.commit_delete_batch(plan), "stale plan");
}

}  // namespace
}  // namespace fg
