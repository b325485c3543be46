// M1: microbenchmarks (google-benchmark) for the core data structures:
// haft build/strip/merge throughput, Forgiving Graph operation latency, and
// the BFS used by the metrics pipeline.
#include <benchmark/benchmark.h>

#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "haft/haft.h"
#include "util/rng.h"

namespace fg {
namespace {

void BM_HaftBuild(benchmark::State& state) {
  const auto l = static_cast<int64_t>(state.range(0));
  for (auto _ : state) {
    haft::HaftForest f;
    benchmark::DoNotOptimize(f.build(l));
  }
  state.SetItemsProcessed(state.iterations() * l);
}
BENCHMARK(BM_HaftBuild)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HaftStripMerge(benchmark::State& state) {
  const auto l = static_cast<int64_t>(state.range(0));
  for (auto _ : state) {
    haft::HaftForest f;
    int a = f.build(l, 0);
    int b = f.build(l + 1, static_cast<uint64_t>(l));
    benchmark::DoNotOptimize(f.merge({a, b}));
  }
}
BENCHMARK(BM_HaftStripMerge)->Arg(63)->Arg(1023)->Arg(8191);

void BM_MergePlan(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<haft::PieceInfo> pieces;
  for (int i = 0; i < k; ++i)
    pieces.push_back({int64_t{1} << (i % 8), static_cast<uint64_t>(i)});
  for (auto _ : state) benchmark::DoNotOptimize(haft::merge_plan(pieces));
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_MergePlan)->Arg(16)->Arg(256)->Arg(4096);

void BM_ForgivingGraphDeletion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    Graph g0 = make_erdos_renyi(n, 8.0 / n, rng);
    ForgivingGraph fg(g0);
    auto order = g0.alive_nodes();
    rng.shuffle(order);
    order.resize(static_cast<size_t>(n / 2));
    state.ResumeTiming();
    for (NodeId v : order) fg.remove(v);
    benchmark::DoNotOptimize(fg.healed().edge_count());
  }
  state.SetItemsProcessed(state.iterations() * (n / 2));
}
BENCHMARK(BM_ForgivingGraphDeletion)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_ForgivingGraphStarHub(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ForgivingGraph fg(make_star(n));
    state.ResumeTiming();
    fg.remove(0);
    benchmark::DoNotOptimize(fg.last_repair().helpers_created);
  }
}
BENCHMARK(BM_ForgivingGraphStarHub)->Arg(256)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_BreakPhase(benchmark::State& state) {
  // The break phase alone: build a star, heal the hub (one big RT over n-1
  // pieces), plan a spoke wave, then time the break primitives only —
  // begin_break, break_region and its stitch per region, finish_break —
  // the phase that runs region-parallel on flat slot tables. Setup and the
  // plan (ShardedForest::plan) are untimed (PauseTiming); the engine is
  // rebuilt per iteration because a break consumes its plan.
  const int n = static_cast<int>(state.range(0));
  constexpr int kWave = 16;
  ShardedForest shards;
  core::StructuralCore::BreakEffects effects;
  for (auto _ : state) {
    state.PauseTiming();
    ForgivingGraph fg(make_star(n));
    fg.remove(0);
    core::StructuralCore core = fg.core();
    std::vector<NodeId> wave;
    for (NodeId v = 1; v <= kWave; ++v) wave.push_back(v);
    core::RepairPlan plan = shards.plan(core, wave);
    state.ResumeTiming();
    core.begin_break(plan);
    for (const core::RegionPlan& region : plan.regions) {
      benchmark::DoNotOptimize(core.break_region(region, &effects));
      core.apply_break_effects(region, effects);
    }
    core.finish_break(plan);
  }
  state.SetItemsProcessed(state.iterations() * kWave);
}
BENCHMARK(BM_BreakPhase)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_DistributedRepair(benchmark::State& state) {
  // Full message-passing repair of a star hub; compare with
  // BM_ForgivingGraphStarHub for the simulator's costing overhead.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    dist::DistForgivingGraph net(make_star(n));
    state.ResumeTiming();
    net.remove(0);
    benchmark::DoNotOptimize(net.last_repair_cost().messages);
  }
}
BENCHMARK(BM_DistributedRepair)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_RtBreakup(benchmark::State& state) {
  // The repair hot path under sustained attack: delete the star hub (one big
  // merge building an RT with n-1 leaves), then time deletions of spoke
  // owners, each of which breaks the big RT into pieces and re-merges them.
  // Dominated by piece collection over the large RT.
  const int n = static_cast<int>(state.range(0));
  constexpr int kBreakups = 16;
  for (auto _ : state) {
    state.PauseTiming();
    ForgivingGraph fg(make_star(n));
    fg.remove(0);
    state.ResumeTiming();
    for (NodeId v = 1; v <= kBreakups; ++v) fg.remove(v);
    benchmark::DoNotOptimize(fg.healed().edge_count());
  }
  state.SetItemsProcessed(state.iterations() * kBreakups);
}
BENCHMARK(BM_RtBreakup)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_WaveSequential(benchmark::State& state) {
  // A wave of k adversarial deletions healed one repair round at a time
  // (compare with BM_WaveBatched: same victims, one merged repair).
  const int n = static_cast<int>(state.range(0));
  constexpr int kWave = 64;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(11);
    Graph g0 = make_erdos_renyi(n, 8.0 / n, rng);
    ForgivingGraph fg(g0);
    auto order = g0.alive_nodes();
    rng.shuffle(order);
    order.resize(kWave);
    state.ResumeTiming();
    for (NodeId v : order) fg.remove(v);
    benchmark::DoNotOptimize(fg.healed().edge_count());
  }
  state.SetItemsProcessed(state.iterations() * kWave);
}
BENCHMARK(BM_WaveSequential)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_WaveBatched(benchmark::State& state) {
  // The same wave of victims as BM_WaveSequential, healed by one
  // delete_batch call: one piece collection, one merged plan, one RT.
  const int n = static_cast<int>(state.range(0));
  constexpr int kWave = 64;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(11);
    Graph g0 = make_erdos_renyi(n, 8.0 / n, rng);
    ForgivingGraph fg(g0);
    auto order = g0.alive_nodes();
    rng.shuffle(order);
    order.resize(kWave);
    state.ResumeTiming();
    fg.delete_batch(order);
    benchmark::DoNotOptimize(fg.healed().edge_count());
  }
  state.SetItemsProcessed(state.iterations() * kWave);
}
BENCHMARK(BM_WaveBatched)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_DistWaveBatched(benchmark::State& state) {
  // Batched wave through the full message-passing protocol: one detection
  // round and one DAG for all victims (compare against kWave sequential
  // repairs through BM_DistributedRepair-style runs).
  const int n = static_cast<int>(state.range(0));
  constexpr int kWave = 32;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(13);
    Graph g0 = make_erdos_renyi(n, 8.0 / n, rng);
    dist::DistForgivingGraph net(g0);
    auto order = g0.alive_nodes();
    rng.shuffle(order);
    order.resize(kWave);
    state.ResumeTiming();
    net.delete_batch(order);
    benchmark::DoNotOptimize(net.last_repair_cost().messages);
  }
  state.SetItemsProcessed(state.iterations() * kWave);
}
BENCHMARK(BM_DistWaveBatched)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_Insertion(benchmark::State& state) {
  Rng rng(3);
  Graph g0 = make_erdos_renyi(1024, 8.0 / 1024, rng);
  ForgivingGraph fg(g0);
  std::vector<NodeId> nbrs{1, 2, 3};
  for (auto _ : state) benchmark::DoNotOptimize(fg.insert(nbrs));
}
BENCHMARK(BM_Insertion);

void BM_EdgeFlip(benchmark::State& state) {
  // The adjacency hot loop of a commit: remove + re-add existing edges.
  // Tracks the flat sorted-adjacency claim that an edge flip is a binary
  // search plus a short memmove, with no allocator traffic once the spill
  // pool is warm (bench/repair_path.cpp emits the tracked JSON row).
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  Graph g = make_erdos_renyi(n, 8.0 / n, rng);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < g.node_capacity(); ++v)
    for (NodeId w : g.neighbors(v))
      if (v < w) edges.push_back({v, w});
  size_t i = 0;
  for (auto _ : state) {
    auto [u, v] = edges[i];
    i = (i + 1) % edges.size();
    g.remove_edge(u, v);
    g.add_edge(u, v);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EdgeFlip)->Arg(1024)->Arg(16384);

void BM_AdjacencyScan(benchmark::State& state) {
  // Full neighbor sweep — the read side every BFS / metrics / planner pass
  // does. Views are contiguous and sorted, so this should run at memory
  // bandwidth (items processed = directed edge visits).
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  Graph g = make_erdos_renyi(n, 8.0 / n, rng);
  for (auto _ : state) {
    int64_t sum = 0;
    for (NodeId v = 0; v < g.node_capacity(); ++v)
      for (NodeId w : g.neighbors(v)) sum += w;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.edge_count());
}
BENCHMARK(BM_AdjacencyScan)->Arg(1024)->Arg(16384);

void BM_BfsMetrics(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  Graph g = make_erdos_renyi(n, 8.0 / n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(bfs_distances(g, 0));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BfsMetrics)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace fg

BENCHMARK_MAIN();
