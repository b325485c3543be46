// Tests of the sharded plan/commit pipeline: region partitioning (the DSU
// over victims, shared RTs, and victim-victim G' edges), per-region
// healing semantics, plan purity under concurrent planning, the disjoint-
// regions adversary, and the dist engine's per-region DAG branches.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "adversary/adversary.h"
#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "fg/sharded_forest.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "harness/trace.h"
#include "heal/healer.h"
#include "support/checkpoint.h"
#include "util/rng.h"

namespace fg {
namespace {

/// Random single deletions to grow some RTs before the wave under test.
/// Returns the victims so the identical churn can replay on twin engines.
std::vector<NodeId> churn(ForgivingGraph& fg, Rng& rng, int deletions) {
  std::vector<NodeId> victims;
  for (int i = 0; i < deletions; ++i) {
    auto alive = fg.healed().alive_nodes();
    if (static_cast<int>(alive.size()) <= 4) break;
    NodeId v = rng.pick(alive);
    fg.remove(v);
    victims.push_back(v);
  }
  return victims;
}

using support::checkpoint;

bool same_plans(const core::RepairPlan& a, const core::RepairPlan& b) {
  if (a.victims != b.victims || a.victim_region != b.victim_region ||
      a.regions.size() != b.regions.size())
    return false;
  for (size_t i = 0; i < a.regions.size(); ++i) {
    const core::RegionPlan& x = a.regions[i];
    const core::RegionPlan& y = b.regions[i];
    if (x.id != y.id || x.victims != y.victims || x.roots != y.roots ||
        x.events.size() != y.events.size() || x.fresh.size() != y.fresh.size() ||
        x.pieces.size() != y.pieces.size() || x.steps.size() != y.steps.size())
      return false;
    for (size_t j = 0; j < x.events.size(); ++j)
      if (x.events[j].is_piece != y.events[j].is_piece || x.events[j].h != y.events[j].h)
        return false;
    for (size_t j = 0; j < x.fresh.size(); ++j)
      if (x.fresh[j].owner != y.fresh[j].owner || x.fresh[j].dead != y.fresh[j].dead)
        return false;
    for (size_t j = 0; j < x.pieces.size(); ++j)
      if (x.pieces[j].leaf_count != y.pieces[j].leaf_count || x.pieces[j].key != y.pieces[j].key)
        return false;
    for (size_t j = 0; j < x.steps.size(); ++j)
      if (x.steps[j].left != y.steps[j].left || x.steps[j].right != y.steps[j].right ||
          x.steps[j].result != y.steps[j].result)
        return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Region partitioning.

TEST(RegionPartition, SingleVictimIsOneRegion) {
  ForgivingGraph fg(make_cycle(12));
  auto plan = fg.plan_delete_batch(std::vector<NodeId>{3});
  EXPECT_EQ(plan.regions.size(), 1u);
  EXPECT_EQ(plan.victim_region, std::vector<int>{0});
}

TEST(RegionPartition, AdjacentVictimsShareARegion) {
  // A G' edge between two victims must be healed by one structure spanning
  // both neighborhoods — splitting them could disconnect the network.
  ForgivingGraph fg(make_path(8));  // 0-1-...-7
  std::vector<NodeId> wave{3, 4};
  auto plan = fg.plan_delete_batch(wave);
  ASSERT_EQ(plan.regions.size(), 1u);
  fg.delete_batch(wave);
  fg.validate();
  EXPECT_TRUE(is_connected(fg.healed()));
}

TEST(RegionPartition, SharedRtVictimsShareARegion) {
  // Both victims own leaves of the hub's RT, so their debris merges.
  ForgivingGraph fg(make_star(16));
  fg.remove(0);
  std::vector<NodeId> wave{3, 9};
  EXPECT_NE(fg.affected_roots(3), std::vector<VNodeId>{});
  EXPECT_EQ(fg.affected_roots(3), fg.affected_roots(9));
  auto plan = fg.plan_delete_batch(wave);
  EXPECT_EQ(plan.regions.size(), 1u);
}

TEST(RegionPartition, DisjointVictimsSplitIntoRegions) {
  // Far-apart victims on a long path: no shared edges, no shared RTs.
  ForgivingGraph fg(make_path(30));
  std::vector<NodeId> wave{5, 15, 25};
  auto plan = fg.plan_delete_batch(wave);
  ASSERT_EQ(plan.regions.size(), 3u);
  // Deterministic commit order: regions sorted by smallest victim id.
  EXPECT_EQ(plan.regions[0].victims, std::vector<NodeId>{5});
  EXPECT_EQ(plan.regions[1].victims, std::vector<NodeId>{15});
  EXPECT_EQ(plan.regions[2].victims, std::vector<NodeId>{25});
  EXPECT_EQ(plan.victim_region, (std::vector<int>{0, 1, 2}));

  fg.delete_batch(wave);
  fg.validate();
  EXPECT_TRUE(is_connected(fg.healed()));
  EXPECT_EQ(fg.last_repair().regions, 3);
  EXPECT_EQ(fg.last_region_assignment(), (std::vector<int>{0, 1, 2}));
  // Each region healed into its own 2-leaf RT (the victim's two anchors).
  EXPECT_EQ(fg.last_repair().final_rt_leaves, 6);
}

TEST(RegionPartition, TransitiveChainingThroughSharedRt) {
  // 1 shares a G' edge with 2; 2 shares RT_3 with 4; 1 and 4 are unrelated
  // — still one region, by transitivity of the conflict relation.
  ForgivingGraph fg(make_path(10));
  fg.remove(3);  // RT_3 with leaves owned by 2 and 4
  std::vector<NodeId> wave{1, 2, 4};
  auto plan = fg.plan_delete_batch(wave);
  EXPECT_EQ(plan.regions.size(), 1u);
  // Dropping the middle victim decouples them: {1} vs {4} are disjoint.
  std::vector<NodeId> sparse{1, 4};
  EXPECT_EQ(fg.plan_delete_batch(sparse).regions.size(), 2u);
}

TEST(RegionPartition, GlobalSplitForcesOneRegion) {
  ForgivingGraph fg(make_path(30));
  fg.set_region_split(core::RegionSplit::kGlobal);
  std::vector<NodeId> wave{5, 15, 25};
  auto plan = fg.plan_delete_batch(wave);
  ASSERT_EQ(plan.regions.size(), 1u);
  fg.delete_batch(wave);
  fg.validate();
  EXPECT_TRUE(is_connected(fg.healed()));
  // One wave-wide RT over all six anchors.
  EXPECT_EQ(fg.last_repair().regions, 1);
  EXPECT_EQ(fg.last_repair().final_rt_leaves, 6);
}

TEST(RegionPartition, PerRegionAndGlobalBothSatisfyInvariants) {
  Rng rng(71);
  Graph g0 = make_erdos_renyi(80, 6.0 / 80, rng);
  ForgivingGraph split(g0);
  ForgivingGraph global(g0);
  global.set_region_split(core::RegionSplit::kGlobal);
  for (int wave = 0; wave < 5; ++wave) {
    auto alive = split.healed().alive_nodes();
    if (alive.size() <= 10) break;
    rng.shuffle(alive);
    alive.resize(6);
    split.delete_batch(alive);
    global.delete_batch(alive);
    ASSERT_NO_FATAL_FAILURE(split.validate());
    ASSERT_NO_FATAL_FAILURE(global.validate());
    ASSERT_TRUE(is_connected(split.healed()));
    ASSERT_TRUE(is_connected(global.healed()));
    ASSERT_EQ(split.healed().alive_count(), global.healed().alive_count());
  }
}

// ---------------------------------------------------------------------------
// Concurrent planning purity (contract C4, plan side).

TEST(ShardedPlanning, WorkerCountNeverChangesThePlan) {
  Rng rng(101);
  Graph g0 = make_erdos_renyi(200, 8.0 / 200, rng);
  ForgivingGraph fg(g0);
  churn(fg, rng, 40);

  auto alive = fg.healed().alive_nodes();
  rng.shuffle(alive);
  alive.resize(16);

  core::RepairPlan sequential = fg.plan_delete_batch(alive);
  for (int workers : {2, 4, 8}) {
    fg.set_shard_workers(workers);
    core::RepairPlan concurrent = fg.plan_delete_batch(alive);
    EXPECT_TRUE(same_plans(sequential, concurrent)) << "workers=" << workers;
  }
}

TEST(ShardedRepair, WorkersProduceBitIdenticalEngines) {
  // The headline C4 property at engine level: a sharded-concurrent engine
  // replays a schedule bit-identically to a single-threaded one (identical
  // checkpoints, not merely identical topologies).
  Rng rng(103);
  Graph g0 = make_erdos_renyi(150, 7.0 / 150, rng);
  ForgivingGraph single(g0);
  ForgivingGraph sharded(g0);
  sharded.set_shard_workers(4);

  for (int wave = 0; wave < 6; ++wave) {
    auto alive = single.healed().alive_nodes();
    if (alive.size() <= 12) break;
    rng.shuffle(alive);
    alive.resize(8);
    single.delete_batch(alive);
    sharded.delete_batch(alive);
    ASSERT_EQ(checkpoint(single), checkpoint(sharded)) << "diverged at wave " << wave;
    ASSERT_EQ(single.last_region_assignment(), sharded.last_region_assignment());
  }
  single.validate();
  sharded.validate();
}

TEST(ShardedRepair, ShardBookkeepingTracksFinalRts) {
  ForgivingGraph fg(make_path(30));
  std::vector<NodeId> wave{5, 15, 25};
  auto plan = fg.plan_delete_batch(wave);
  fg.commit_delete_batch(plan);
  ASSERT_EQ(plan.regions.size(), 3u);
  const std::vector<VNodeId>& roots = fg.shards().last_region_roots();
  ASSERT_EQ(roots.size(), plan.regions.size());
  for (VNodeId h : roots) {
    ASSERT_NE(h, kNoVNode);
    EXPECT_TRUE(fg.forest().exists(h));
    EXPECT_TRUE(fg.forest().is_root(h));
  }
  // One distinct final RT per region.
  EXPECT_NE(roots[0], roots[1]);
  EXPECT_NE(roots[0], roots[2]);
  EXPECT_NE(roots[1], roots[2]);
  for (int region : fg.shards().last_assignment()) {
    EXPECT_GE(region, 0);
    EXPECT_LT(region, 3);
  }
}

// ---------------------------------------------------------------------------
// The acceptance scenario: a 32-victim disjoint-region wave on ER(1024).

TEST(ShardedRepair, Er1024DisjointWave32BitIdentical) {
  Rng rng(1024);
  Graph g0 = make_erdos_renyi(1024, 8.0 / 1024, rng);
  ForgivingGraph single(g0);
  ForgivingGraph sharded(g0);
  ForgivingGraphHealer probe(g0);
  sharded.set_shard_workers(4);
  sharded.set_commit_workers(4);
  std::vector<NodeId> churned = churn(single, rng, 96);
  for (NodeId v : churned) {  // identical churn on the twins
    sharded.remove(v);
    probe.engine().remove(v);
  }
  ASSERT_EQ(checkpoint(single), checkpoint(sharded));

  // A disjoint wave of 32 victims, found the way the adversary finds them.
  DisjointRegionsAdversary adversary(32);
  Rng wave_rng(7);
  auto action = adversary.next(probe, wave_rng);
  ASSERT_TRUE(action.has_value());
  ASSERT_EQ(action->kind, Action::Kind::kBatchDelete);
  ASSERT_EQ(action->targets.size(), 32u);

  auto plan = single.plan_delete_batch(action->targets);
  EXPECT_EQ(plan.regions.size(), 32u) << "adversarial wave was not disjoint";

  single.delete_batch(action->targets);
  sharded.delete_batch(action->targets);
  EXPECT_EQ(checkpoint(single), checkpoint(sharded));
  EXPECT_EQ(single.last_repair().regions, 32);
  EXPECT_TRUE(is_connected(single.healed()));
  single.validate();
}

// ---------------------------------------------------------------------------
// The disjoint-regions adversary (factory + the disjointness property).

TEST(DisjointRegionsAdversary, WavesAreReallyDisjoint) {
  Rng rng(31);
  Graph g0 = make_erdos_renyi(300, 8.0 / 300, rng);
  ForgivingGraphHealer healer(g0);
  churn(healer.engine(), rng, 60);

  auto adversary = make_adversary("regions:4");
  for (int step = 0; step < 8; ++step) {
    auto action = adversary->next(healer, rng);
    ASSERT_TRUE(action.has_value());
    ASSERT_EQ(action->kind, Action::Kind::kBatchDelete);
    const auto& wave = action->targets;
    ASSERT_GE(wave.size(), 1u);

    // Property 1: pairwise disjoint — no G' edge, no shared affected RT.
    for (size_t i = 0; i < wave.size(); ++i) {
      for (size_t j = i + 1; j < wave.size(); ++j) {
        EXPECT_FALSE(healer.gprime().has_edge(wave[i], wave[j]));
        auto ri = healer.engine().affected_roots(wave[i]);
        auto rj = healer.engine().affected_roots(wave[j]);
        std::vector<VNodeId> shared;
        std::set_intersection(ri.begin(), ri.end(), rj.begin(), rj.end(),
                              std::back_inserter(shared));
        EXPECT_TRUE(shared.empty());
      }
    }
    // Property 2: the planner agrees — one region per victim.
    auto plan = healer.engine().plan_delete_batch(wave);
    EXPECT_EQ(plan.regions.size(), wave.size());

    healer.remove_batch(wave);
    ASSERT_NO_FATAL_FAILURE(healer.engine().validate());
    ASSERT_TRUE(is_connected(healer.healed()));
  }
}

TEST(DisjointRegionsAdversary, BaselineFallbackUsesHealedDistance) {
  Rng rng(37);
  Graph g0 = make_erdos_renyi(200, 6.0 / 200, rng);
  auto healer = make_healer("binary-tree", g0);
  auto adversary = make_adversary("regions:3");
  auto action = adversary->next(*healer, rng);
  ASSERT_TRUE(action.has_value());
  const auto& wave = action->targets;
  for (size_t i = 0; i < wave.size(); ++i)
    for (size_t j = i + 1; j < wave.size(); ++j) {
      EXPECT_FALSE(healer->healed().has_edge(wave[i], wave[j]));
      for (NodeId y : healer->healed().neighbors(wave[i]))
        EXPECT_FALSE(healer->healed().has_edge(y, wave[j]));
    }
}

TEST(DisjointRegionsAdversary, TraceRecordsRegionLines) {
  Rng rng(41);
  Graph g0 = make_erdos_renyi(120, 7.0 / 120, rng);
  ForgivingGraphHealer recorded(g0);
  auto adversary = make_adversary("regions:3");
  Trace t = record_run(recorded, *adversary, 5, rng);
  ASSERT_GE(t.size(), 1u);
  for (const Action& a : t.actions()) {
    ASSERT_EQ(a.kind, Action::Kind::kBatchDelete);
    ASSERT_EQ(a.regions.size(), a.targets.size());
    // Disjoint wave: every victim its own region — the assignment is a
    // permutation of 0..k-1 (region ids follow ascending victim id, the
    // wave follows the adversary's shuffle).
    std::vector<int> sorted = a.regions;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
      EXPECT_EQ(sorted[i], static_cast<int>(i));
  }

  // Round-trips through the text format, and replays with verification.
  std::stringstream ss;
  t.save(ss);
  EXPECT_NE(ss.str().find("\nr "), std::string::npos);
  Trace loaded = Trace::load(ss);
  ASSERT_EQ(loaded.size(), t.size());
  ForgivingGraphHealer replayed(g0);
  loaded.replay(replayed);
  EXPECT_TRUE(recorded.healed().same_topology(replayed.healed()));
}

// ---------------------------------------------------------------------------
// Dist engine: independent DAG branches per region.

TEST(ShardedRepair, DistPerRegionBitIdenticalToCentral) {
  Rng rng(53);
  Graph g0 = make_erdos_renyi(150, 7.0 / 150, rng);
  ForgivingGraph central(g0);
  dist::DistForgivingGraph distributed(g0);
  for (int wave = 0; wave < 6; ++wave) {
    auto alive = central.healed().alive_nodes();
    if (alive.size() <= 12) break;
    rng.shuffle(alive);
    alive.resize(6);
    central.delete_batch(alive);
    distributed.delete_batch(alive);
    ASSERT_TRUE(central.healed().same_topology(distributed.image()))
        << "diverged at wave " << wave;
    ASSERT_EQ(distributed.last_repair_cost().regions, central.last_repair().regions);
  }
  central.validate();
  distributed.validate();
}

TEST(ShardedRepair, DisjointWaveRepairsInParallelRounds) {
  // The Lemma-4 payoff: disjoint regions repair through independent DAG
  // branches, so the wave's rounds are the max over regions — strictly
  // below the single wave-wide merge the kGlobal split runs.
  std::vector<NodeId> wave;
  for (NodeId v = 10; v < 200; v += 24) wave.push_back(v);

  dist::DistForgivingGraph split(make_path(200));
  dist::DistForgivingGraph global(make_path(200));
  global.set_region_split(core::RegionSplit::kGlobal);
  split.delete_batch(wave);
  global.delete_batch(wave);

  EXPECT_EQ(split.last_repair_cost().regions, static_cast<int>(wave.size()));
  EXPECT_EQ(global.last_repair_cost().regions, 1);
  EXPECT_LT(split.last_repair_cost().rounds, global.last_repair_cost().rounds);
  EXPECT_LT(split.last_repair_cost().words, global.last_repair_cost().words);
  split.validate();
  global.validate();
  EXPECT_TRUE(is_connected(split.image()));
  EXPECT_TRUE(is_connected(global.image()));
}

TEST(ShardedRepair, StageWisePerRegionKeepsInvariants) {
  Rng rng(59);
  Graph g0 = make_erdos_renyi(100, 7.0 / 100, rng);
  dist::DistForgivingGraph staged(g0, dist::MergeMode::kStageWise);
  for (int wave = 0; wave < 5; ++wave) {
    auto alive = staged.image().alive_nodes();
    if (alive.size() <= 10) break;
    rng.shuffle(alive);
    alive.resize(5);
    staged.delete_batch(alive);
    ASSERT_NO_FATAL_FAILURE(staged.validate());
    ASSERT_TRUE(is_connected(staged.image()));
  }
}

}  // namespace
}  // namespace fg
