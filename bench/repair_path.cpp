// Experiment R1: the repair hot path, timed. Three claims to pin down:
//
//   1. Piece collection walks the *dirty region* of a broken RT with an
//      explicit iterative worklist, so breaking a giant RT costs
//      O(d log^2 n), not O(RT size) — deleting leaves of a 2^16-leaf hub RT
//      must not get slower as the RT grows.
//   2. delete_batch heals a wave of k victims with one piece collection and
//      one merged plan per dirty region, beating k sequential repair rounds
//      on wall clock (centralized) and on messages/rounds (distributed
//      protocol).
//   3. Sharding (R2): a disjoint 32-victim wave on ER(1024) splits into 32
//      regions that plan concurrently and repair in parallel protocol
//      rounds; the sharded engine's topology is bit-identical to the
//      single-threaded engine's (contract C4, FG_CHECKed here), and the
//      per-phase split (partition / plan_region / commit) is recorded so
//      regressions bisect to a phase.
//
// Prints the measured tables and writes the same rows as a
// BENCH_repair_path.json artifact (cwd) for docs/EXPERIMENTS.md.
// Wall-clock numbers vary by machine; ratios are the reproducible part.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/adversary.h"
#include "bench_common.h"
#include "cert/certificate.h"
#include "churn_common.h"
#include "fg/core/slot_table.h"
#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "fg/sharded_forest.h"
#include "fg/snapshot_writer.h"
#include "snap/snapshot.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "heal/healer.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/table.h"

namespace fg {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

struct JsonRow {
  std::string scenario;
  int n = 0;
  int work = 0;
  double ms = 0.0;
  double per_op_us = 0.0;
};

std::vector<JsonRow> g_rows;

/// The complete structure as base-image bytes: the state C4 pins.
std::vector<uint8_t> checkpoint(const core::StructuralCore& core) {
  snap::BaseImage image;
  core.to_base_image(&image);
  return snap::encode_base(image);
}

void record(Table& t, const std::string& scenario, int n, int work, double ms) {
  double per_op_us = work > 0 ? 1000.0 * ms / work : 0.0;
  char msbuf[32], opbuf[32];
  std::snprintf(msbuf, sizeof msbuf, "%.2f", ms);
  std::snprintf(opbuf, sizeof opbuf, "%.1f", per_op_us);
  t.add(scenario, n, work, msbuf, opbuf);
  g_rows.push_back({scenario, n, work, ms, per_op_us});
}

// Scenario A: break up a giant hub RT, one spoke deletion at a time. The
// per-deletion cost must stay flat in n (dirty-region collection), where a
// full-RT sweep would grow linearly.
void rt_breakup(Table& t) {
  for (int n : {1 << 12, 1 << 14, 1 << 16}) {
    ForgivingGraph fg(make_star(n + 1));
    fg.remove(0);
    constexpr int kDeletions = 64;
    for (NodeId v = 1; v <= 8; ++v) fg.remove(v);  // untimed warm-up
    auto t0 = std::chrono::steady_clock::now();
    for (NodeId v = 9; v <= 8 + kDeletions; ++v) fg.remove(v);
    record(t, "rt_breakup", n, kDeletions, ms_since(t0));
  }
}

// Scenario B: a wave of 64 random deletions on ER(n), sequential repairs vs
// one batched repair round over the identical victim set.
void wave(Table& t) {
  constexpr int kWave = 64;
  for (int n : {1024, 4096}) {
    for (bool batched : {false, true}) {
      Rng rng(11);
      Graph g0 = make_erdos_renyi(n, 8.0 / n, rng);
      ForgivingGraph fg(g0);
      auto order = g0.alive_nodes();
      rng.shuffle(order);
      order.resize(kWave);
      {
        // Untimed warm-up on a throwaway engine: absorbs the one-time
        // allocator cost of the giant RTs rt_breakup just freed, which
        // otherwise lands entirely on whichever arm runs first.
        ForgivingGraph warm(g0);
        warm.delete_batch(order);
      }
      auto t0 = std::chrono::steady_clock::now();
      if (batched) {
        fg.delete_batch(order);
      } else {
        for (NodeId v : order) fg.remove(v);
      }
      record(t, batched ? "wave_batched" : "wave_sequential", n, kWave, ms_since(t0));
    }
  }
}

// Scenario C: the same wave through the distributed protocol — the saving
// is messages and rounds, the quantities Lemma 4 is about.
void dist_wave(Table& t, Table& cost) {
  constexpr int kWave = 32;
  for (int n : {1024}) {
    for (bool batched : {false, true}) {
      Rng rng(13);
      Graph g0 = make_erdos_renyi(n, 8.0 / n, rng);
      dist::DistForgivingGraph net(g0);
      auto order = g0.alive_nodes();
      rng.shuffle(order);
      order.resize(kWave);
      int64_t messages = 0;
      int64_t rounds = 0;
      auto t0 = std::chrono::steady_clock::now();
      if (batched) {
        net.delete_batch(order);
        messages = net.last_repair_cost().messages;
        rounds = net.last_repair_cost().rounds;
      } else {
        for (NodeId v : order) {
          net.remove(v);
          messages += net.last_repair_cost().messages;
          rounds += net.last_repair_cost().rounds;
        }
      }
      const char* name = batched ? "dist_wave_batched" : "dist_wave_sequential";
      record(t, name, n, kWave, ms_since(t0));
      cost.add(name, n, kWave, std::to_string(messages), std::to_string(rounds));
      g_rows.push_back({std::string(name) + "_messages", n, kWave,
                        static_cast<double>(messages), 0.0});
      g_rows.push_back({std::string(name) + "_rounds", n, kWave,
                        static_cast<double>(rounds), 0.0});
    }
  }
}

// Scenario F (R4): the adjacency substrate itself, isolated from repair
// logic. edge_flip is the commit's hot loop (remove + re-add existing
// edges, one at a time); edge_flip_batched drives the same flips through
// apply_edge_deltas (what the break stitch's batched image-edge drops call,
// one grouped sweep per touched node); adjacency_scan is the read side
// (full neighbor sweep over sorted flat views). Tracked across PRs so
// adjacency regressions bisect here instead of into the repair scenarios.
void adjacency_micro(Table& t) {
  constexpr int kN = 4096;
  Rng rng(9);
  Graph g = make_erdos_renyi(kN, 8.0 / kN, rng);
  std::vector<EdgeDelta> edges;
  for (NodeId v = 0; v < g.node_capacity(); ++v)
    for (NodeId w : g.neighbors(v))
      if (v < w) edges.push_back({v, w, EdgeDelta::Op::kRemove});
  const int kFlips = static_cast<int>(edges.size());

  for (const EdgeDelta& e : edges) {  // untimed warm-up (pool + page touch)
    g.remove_edge(e.u, e.v);
    g.add_edge(e.u, e.v);
  }
  auto t0 = std::chrono::steady_clock::now();
  for (const EdgeDelta& e : edges) {
    g.remove_edge(e.u, e.v);
    g.add_edge(e.u, e.v);
  }
  record(t, "edge_flip", kN, 2 * kFlips, ms_since(t0));

  std::vector<EdgeDelta> re_add = edges;
  for (EdgeDelta& e : re_add) e.op = EdgeDelta::Op::kAdd;
  t0 = std::chrono::steady_clock::now();
  FG_CHECK(g.apply_edge_deltas(edges) == kFlips);
  FG_CHECK(g.apply_edge_deltas(re_add) == kFlips);
  record(t, "edge_flip_batched", kN, 2 * kFlips, ms_since(t0));

  int64_t sum = 0;
  t0 = std::chrono::steady_clock::now();
  constexpr int kSweeps = 32;
  for (int s = 0; s < kSweeps; ++s)
    for (NodeId v = 0; v < g.node_capacity(); ++v)
      for (NodeId w : g.neighbors(v)) sum += w;
  double scan_ms = ms_since(t0);
  FG_CHECK(sum != 0);
  record(t, "adjacency_scan", kN, static_cast<int>(kSweeps * 2 * g.edge_count()),
         scan_ms);

  // The asymmetric case batching exists for: k flips against ONE sorted
  // list (a hub teardown) cost O(degree * k) element moves per-edge but
  // O(degree + k log k) through the grouped sweep — the same shape the
  // commit's per-region image-edge drop hits when a high-degree processor
  // dies.
  constexpr int kHub = 16384;
  std::vector<EdgeDelta> spokes;
  for (NodeId v = 1; v <= kHub; ++v) spokes.push_back({0, v, EdgeDelta::Op::kRemove});
  {
    Graph star = make_star(kHub + 1);
    t0 = std::chrono::steady_clock::now();
    for (const EdgeDelta& e : spokes) star.remove_edge(e.u, e.v);
    record(t, "hub_teardown", kHub, kHub, ms_since(t0));
  }
  {
    Graph star = make_star(kHub + 1);
    t0 = std::chrono::steady_clock::now();
    FG_CHECK(star.apply_edge_deltas(spokes) == kHub);
    record(t, "hub_teardown_batched", kHub, kHub, ms_since(t0));
  }
}

// Scenario F2 (R7): the slot-table substrate isolated from repair logic —
// sorted flat small-vector lookups (core::SlotTable, the PR that shed the
// per-processor hash maps). Tracked so slot-table regressions bisect here
// instead of into the wave scenarios.
void slot_lookup(Table& t) {
  constexpr int kProcs = 4096;
  constexpr int kSlotsPer = 8;
  constexpr int kSweeps = 64;
  Rng rng(33);
  core::SlotTable slots;
  slots.resize(kProcs);
  std::vector<std::pair<NodeId, NodeId>> keys;
  for (NodeId v = 0; v < kProcs; ++v)
    for (int i = 0; i < kSlotsPer; ++i) {
      NodeId other = static_cast<NodeId>(rng.next_below(kProcs));
      slots.ensure(v, other).leaf = VNodeId{1};
      keys.push_back({v, other});
    }
  int64_t hits = 0;
  for (const auto& [v, o] : keys) hits += slots.find(v, o) != nullptr;  // warm
  auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < kSweeps; ++s)
    for (const auto& [v, o] : keys) hits += slots.find(v, o) != nullptr;
  double ms = ms_since(t0);
  FG_CHECK(hits == static_cast<int64_t>((kSweeps + 1) * keys.size()));
  record(t, "slot_lookup", kProcs, kSweeps * static_cast<int>(keys.size()), ms);
}

// Scenario E: the star-hub merge — one deletion creating an RT over n-1
// equal-sized pieces, the workload where the k-way bottom-up planner
// replaces the O(k^2) sorted-list erase/insert churn (the BM_ForgivingGraph-
// StarHub hotspot; bench/micro_core.cpp has the google-benchmark twin).
void star_hub_merge(Table& t) {
  for (int n : {4096, 16384}) {
    ForgivingGraph warm(make_star(n + 1));
    warm.remove(0);
    ForgivingGraph fg(make_star(n + 1));
    auto t0 = std::chrono::steady_clock::now();
    fg.remove(0);
    record(t, "star_hub_merge", n, n, ms_since(t0));
  }
}

// Scenario D (R2 + R3): the sharded plan/commit pipeline on the acceptance
// workload — a 32-victim disjoint-region wave against a churned ER(1024).
// Reports sequential vs sharded planning wall-clock, the per-phase split,
// the reserved commit at 1/2/4 commit workers (R3: the arena-id
// reservation makes the merge schedule-independent, so worker counts are
// an A/B on wall clock only), the break phase per break-worker count, and
// the dist protocol's per-region rounds; FG_CHECKs that every variant lands
// on the bit-identical checkpoint.
void sharded_wave(Table& t, Table& cost) {
  constexpr int kN = 1024;
  constexpr int kChurn = 96;
  constexpr int kWave = 32;

  Rng rng(1024);
  Graph g0 = make_erdos_renyi(kN, 8.0 / kN, rng);

  // Churn to grow RTs, then pick the disjoint wave the adversary would.
  ForgivingGraphHealer probe(g0);
  std::vector<NodeId> churned;
  for (int i = 0; i < kChurn; ++i) {
    auto alive = probe.healed().alive_nodes();
    NodeId v = rng.pick(alive);
    probe.engine().remove(v);
    churned.push_back(v);
  }
  DisjointRegionsAdversary adversary(kWave);
  auto action = adversary.next(probe, rng);
  FG_CHECK(action.has_value() && action->targets.size() == kWave);
  const std::vector<NodeId>& wave = action->targets;

  // Snapshot the pre-wave state once; every variant replays from a copy.
  const core::StructuralCore snapshot = probe.engine().core();
  auto fresh_engine = [&]() { return ForgivingGraph(core::StructuralCore(snapshot)); };

  std::vector<uint8_t> reference;  // checkpoint after the wave, workers=1
  double plan_w1_ms = 0.0;
  for (int workers : {1, 4}) {
    ForgivingGraph fg = fresh_engine();
    fg.set_shard_workers(workers);
    auto t0 = std::chrono::steady_clock::now();
    core::RepairPlan plan = fg.plan_delete_batch(wave);
    double plan_ms = ms_since(t0);
    auto t1 = std::chrono::steady_clock::now();
    fg.commit_delete_batch(plan);
    double commit_ms = ms_since(t1);

    FG_CHECK(plan.regions.size() == kWave);  // the wave really is disjoint
    if (workers == 1)
      reference = checkpoint(fg.core());
    else
      FG_CHECK_MSG(checkpoint(fg.core()) == reference,
                   "sharded repair diverged from sequential (C4)");

    std::string name = workers == 1 ? "sharded_wave_plan_w1" : "sharded_wave_plan_w4";
    record(t, name, kN, kWave, plan_ms);
    if (workers == 1) plan_w1_ms = plan_ms;
    if (workers == 4 && plan_ms > 0.0) {
      // > 1 when the worker fan-out wins (multi-core); < 1 where thread
      // spawn dominates (single-core boxes). Recorded either way.
      g_rows.push_back({"sharded_plan_speedup_w4", kN, kWave, plan_w1_ms / plan_ms, 0.0});
    }
    if (workers == 1) {
      // The per-phase split of the wave, each phase timed around the public
      // call ShardedForest::plan makes: the partition (analyze_deletion)
      // and every region's recipe (plan_region), both read-only and run
      // against the pre-wave state; the commit is the one measured above.
      auto t2 = std::chrono::steady_clock::now();
      core::DeletionAnalysis analysis = snapshot.analyze_deletion(wave);
      record(t, "sharded_phase_partition", kN, kWave, ms_since(t2));
      std::vector<core::RegionPlan> regions(analysis.seeds.size());
      auto t3 = std::chrono::steady_clock::now();
      for (size_t r = 0; r < regions.size(); ++r)
        snapshot.plan_region(analysis, static_cast<int>(r), &regions[r]);
      record(t, "sharded_phase_plan_region", kN, kWave, ms_since(t3));
      record(t, "sharded_phase_commit", kN, kWave, commit_ms);
    }
  }

  // R3: the reserved commit per commit-worker count, isolated from the
  // plan-side fan-out (shard workers stay 1, the plan is untimed). Byte-
  // identical structure at every count — the arena-id reservation fixes
  // every handle at plan time — so worker counts are an A/B on wall clock
  // only (FG_CHECKed against the reference above). On a box with a single
  // hardware thread the engine never fans out (see ShardedForest::execute),
  // so w > 1 measures the gate, not a pool; the JSON's hw_threads field
  // records the machine.
  double commit_w1_ms = 0.0;
  for (int workers : {1, 2, 4}) {
    ForgivingGraph fg = fresh_engine();
    fg.set_commit_workers(workers);  // persistent pool: spawned here, untimed
    core::RepairPlan plan = fg.plan_delete_batch(wave);
    auto t0 = std::chrono::steady_clock::now();
    fg.commit_delete_batch(plan);
    double commit_ms = ms_since(t0);

    FG_CHECK_MSG(checkpoint(fg.core()) == reference,
                 "parallel commit diverged from sequential (C4)");

    record(t, "sharded_commit_w" + std::to_string(workers), kN, kWave, commit_ms);
    if (workers == 1) commit_w1_ms = commit_ms;
    if (workers == 4 && commit_ms > 0.0) {
      g_rows.push_back(
          {"sharded_commit_speedup_w4", kN, kWave, commit_w1_ms / commit_ms, 0.0});
    }
  }
  // R7: the break phase alone per break-worker count, timed around the
  // break only. Every arm runs what ShardedForest::execute runs: begin_break,
  // break_region per region, the stitch in region id order, finish_break.
  // The w = 1 arm breaks every region on the calling thread; the pooled
  // arms drain the regions off a CommitPool. The merge then completes
  // untimed and the checkpoint is FG_CHECKed against the w = 1 reference
  // (C4 covers the break fan-out too).
  double break_w1_ms = 0.0;
  for (int workers : {1, 2, 4}) {
    core::StructuralCore core = snapshot;
    ShardedForest shards;
    core::RepairPlan plan = shards.plan(core, wave);
    const int regions = static_cast<int>(plan.regions.size());
    // Persistent-pool discipline: spawn before the timer, like the engine.
    std::unique_ptr<CommitPool> pool =
        workers > 1 ? std::make_unique<CommitPool>(workers - 1) : nullptr;
    std::vector<core::StructuralCore::BreakEffects> effects(
        static_cast<size_t>(regions));
    auto t0 = std::chrono::steady_clock::now();
    core.begin_break(plan);
    std::vector<std::vector<VNodeId>> pieces(static_cast<size_t>(regions));
    struct Ctx {
      std::atomic<int> next{0};
      std::atomic<int> broken{0};
    };
    auto ctx = std::make_shared<Ctx>();
    auto work = [&core, &plan, &pieces, &effects, ctx, regions] {
      for (;;) {
        int r = ctx->next.fetch_add(1, std::memory_order_relaxed);
        if (r >= regions) return;
        pieces[static_cast<size_t>(r)] = core.break_region(
            plan.regions[static_cast<size_t>(r)],
            &effects[static_cast<size_t>(r)]);
        ctx->broken.fetch_add(1, std::memory_order_release);
      }
    };
    if (pool != nullptr) pool->dispatch(work);
    work();
    while (ctx->broken.load(std::memory_order_acquire) < regions)
      std::this_thread::yield();
    for (int r = 0; r < regions; ++r)
      core.apply_break_effects(plan.regions[static_cast<size_t>(r)],
                               effects[static_cast<size_t>(r)]);
    core.finish_break(plan);
    double break_ms = ms_since(t0);

    // Untimed merge: the rest of what execute runs.
    std::vector<core::StructuralCore::MergeEffects> merged(
        static_cast<size_t>(regions));
    for (int r = 0; r < regions; ++r)
      core.merge_region(plan.regions[static_cast<size_t>(r)],
                        std::move(pieces[static_cast<size_t>(r)]),
                        &merged[static_cast<size_t>(r)]);
    for (int r = 0; r < regions; ++r)
      core.apply_merge_effects(merged[static_cast<size_t>(r)]);
    core.check_reservation_settled(plan);
    FG_CHECK_MSG(checkpoint(core) == reference,
                 "parallel break diverged from sequential (C4)");

    record(t, "break_w" + std::to_string(workers), kN, kWave, break_ms);
    if (workers == 1) break_w1_ms = break_ms;
    if (workers == 4 && break_ms > 0.0) {
      g_rows.push_back(
          {"break_speedup_w4", kN, kWave, break_w1_ms / break_ms, 0.0});
    }
  }

  // The dist protocol: independent DAG branches per region repair in
  // max-over-regions rounds.
  {
    dist::DistForgivingGraph net(g0);
    for (NodeId v : churned) net.remove(v);
    net.delete_batch(wave);
    const auto& c = net.last_repair_cost();
    const std::string name = "dist_sharded_wave_regions";
    cost.add(name, kN, kWave, std::to_string(c.messages), std::to_string(c.rounds));
    g_rows.push_back({name + "_rounds", kN, kWave, static_cast<double>(c.rounds), 0.0});
    g_rows.push_back({name + "_messages", kN, kWave, static_cast<double>(c.messages), 0.0});
  }
}

// Scenario G (R5): certificate emission overhead. The same 64-deletion
// schedule on ER(1024) with and without a CertificateWriter attached —
// emission re-derives each wave's image edges and runs the stretch-witness
// BFS passes, so the ratio row is what docs/CERTIFICATES.md quotes as the
// price of --certify (with no sink attached the engines skip all of it).
void certify_overhead(Table& t) {
  constexpr int kN = 1024;
  constexpr int kWave = 64;
  Rng rng(21);
  Graph g0 = make_erdos_renyi(kN, 8.0 / kN, rng);
  auto order = g0.alive_nodes();
  rng.shuffle(order);
  order.resize(kWave);

  auto run = [&](bool certify) {
    ForgivingGraph fg(g0);
    std::ostringstream certs;
    harness::CertificateWriter writer(certs);
    if (certify) fg.set_certificate_sink(&writer);
    auto t0 = std::chrono::steady_clock::now();
    for (NodeId v : order) fg.remove(v);
    double ms = ms_since(t0);
    if (certify) {  // untimed: the stream must actually validate
      std::istringstream is(certs.str());
      cert::StreamResult res = cert::check_stream(is);
      FG_CHECK_MSG(res.ok, res.diagnostic.c_str());
      FG_CHECK(res.waves_checked == kWave);
    }
    return ms;
  };

  run(false);  // untimed warm-up
  double off_ms = run(false);
  double on_ms = run(true);
  record(t, "certify_off_1024", kN, kWave, off_ms);
  record(t, "certify_on_1024", kN, kWave, on_ms);
  if (off_ms > 0.0)
    g_rows.push_back({"certify_overhead_1024", kN, kWave, on_ms / off_ms, 0.0});
}

// Scenario G2 (R19): what one sampled certificate costs at service scale.
// The bench/churn_common.h stream at n = 2^16 with 64-victim waves, healed
// through the plan/execute pipeline the service drives, certifying every
// 64th wave as HealerConfig::certify_every = 64 does:
//
//   cert_emit_ms  — CertificateBuilder::begin_wave + end_wave, median over
//                   the certificates
//   cert_check_ms — cert::check, median over the same certificates
void certify_service_scale(Table& t) {
  ChurnDriverConfig cfg;
  cfg.nodes = 1 << 16;
  cfg.ops = 130'000;
  constexpr int kCertifyEvery = 64;
  Rng rng(cfg.seed);
  Graph g0 = make_sparse_random(cfg.nodes, cfg.avg_degree, rng);
  ForgivingGraph fg(g0);
  ShardedForest shards;
  std::vector<NodeId> forming;
  int64_t waves = 0;
  std::vector<double> emit_ms, check_ms;
  auto heal = [&] {
    const core::RepairPlan plan = shards.plan(fg.core(), forming);
    forming.clear();
    if (waves++ % kCertifyEvery != 0) {
      shards.execute(fg.core(), plan);
      return;
    }
    harness::CertificateBuilder builder;
    auto t0 = std::chrono::steady_clock::now();
    builder.begin_wave(fg.core(), plan);
    double ms = ms_since(t0);
    const std::vector<VNodeId> roots = shards.execute(fg.core(), plan);
    t0 = std::chrono::steady_clock::now();
    const cert::WaveCertificate c =
        builder.end_wave(fg.core(), plan, static_cast<long>(emit_ms.size()), roots, nullptr);
    emit_ms.push_back(ms + ms_since(t0));
    t0 = std::chrono::steady_clock::now();
    const cert::CheckResult res = cert::check(c);
    check_ms.push_back(ms_since(t0));
    FG_CHECK_MSG(res.ok, res.diagnostic.c_str());
  };
  for_each_churn_op(cfg, rng, [&](const ChurnOp& op) {
    if (op.kind == ChurnOp::Kind::kInsert) {
      fg.insert(op.neighbors);
      return;
    }
    forming.push_back(op.victim);
    if (static_cast<int>(forming.size()) >= cfg.service.wave_size) heal();
  });
  if (!forming.empty()) heal();

  const int certs = static_cast<int>(emit_ms.size());
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  for (const auto& [name, ms] : {std::pair{"cert_emit_ms", median(emit_ms)},
                                 std::pair{"cert_check_ms", median(check_ms)}}) {
    char msbuf[32];
    std::snprintf(msbuf, sizeof msbuf, "%.2f", ms);
    t.add(name, cfg.nodes, certs, msbuf, "-");
    g_rows.push_back({name, cfg.nodes, certs, ms, 0.0});
  }
}

// Scenario H (R6): the sustained-churn healer service — the bench driver of
// bench/churn_common.h (shared with the standalone bench/churn_service.cpp)
// run at a tracked scale: steady-state throughput of the service loop with
// the sampled certificate guardrail on. FG_CHURN_FULL=1 switches to the
// full acceptance scale (n = 2^20 >= 10^6 nodes, 2M ops — minutes of wall
// clock; what docs/EXPERIMENTS.md § R6 quotes); the default keeps the
// tracked row reproducible in seconds.
void churn_service(Table& t) {
  ChurnDriverConfig cfg;
  const bool full = std::getenv("FG_CHURN_FULL") != nullptr;
  if (!full) {
    cfg.nodes = 1 << 16;
    cfg.ops = 200'000;
  }
  cfg.service.certify_every = 256;
  ChurnDriverResult r = run_churn_driver(cfg);
  FG_CHECK_MSG(r.stats.cert_rejections == 0,
               "the sampled certificate guardrail rejected a wave");

  const int ops = static_cast<int>(cfg.ops);
  record(t, "churn_service_build", cfg.nodes, cfg.nodes, r.build_ms);
  record(t, "churn_service_stream", cfg.nodes, ops, r.elapsed_ms);
  g_rows.push_back({"churn_ops_per_sec", cfg.nodes, ops, r.ops_per_sec, 0.0});
  g_rows.push_back({"churn_repair_p50_ms", cfg.nodes, ops, r.p50_ms, 0.0});
  g_rows.push_back({"churn_repair_p99_ms", cfg.nodes, ops, r.p99_ms, 0.0});
  g_rows.push_back({"churn_waves", cfg.nodes, ops,
                    static_cast<double>(r.stats.waves), 0.0});
  g_rows.push_back({"churn_certified_waves", cfg.nodes, ops,
                    static_cast<double>(r.stats.certified_waves), 0.0});
}

/// Times SnapshotRecorder::on_wave_committed, the wave's record build plus
/// its frame (a sink that appends it to a reused buffer), and forwards the
/// other hooks untimed.
class TimedRecorder final : public core::DeltaRecorder {
 public:
  TimedRecorder() {
    rec_.set_sink([this](const snap::WaveDelta& d) {
      frame_.clear();
      snap::append_delta(&frame_, d);
    });
  }

  SnapshotRecorder& recorder() { return rec_; }
  int waves() const { return waves_; }
  double mean_ms() const { return waves_ > 0 ? total_ms_ / waves_ : 0.0; }

  void on_insert(NodeId id, std::span<const NodeId> neighbors) override {
    rec_.on_insert(id, neighbors);
  }
  void on_image_touch(NodeId u, NodeId v) override { rec_.on_image_touch(u, v); }
  void on_wave_committed(const core::StructuralCore& core,
                         const core::RepairPlan& plan) override {
    auto t0 = std::chrono::steady_clock::now();
    rec_.on_wave_committed(core, plan);
    total_ms_ += ms_since(t0);
    ++waves_;
  }

 private:
  SnapshotRecorder rec_;
  std::vector<uint8_t> frame_;
  double total_ms_ = 0.0;
  int waves_ = 0;
};

// Scenario I (R8): the durable-snapshot subsystem (src/snap). Three costs
// and one size at the acceptance scale, n = 2^20:
//
//   snapshot_base   — to_base_image + encode_base of the full engine
//   snapshot_delta  — framing one 64-victim wave delta of a fresh engine
//   restore_delta   — decode base + replay ONE delta
//   bytes_per_node  — base-image size over n
//
// and the steady-state per-wave durability cost the healer service pays:
//
//   snapshot_record — the whole record per wave (build plus frame, mean
//                     over the waves) on the bench/churn_common.h stream at
//                     n = 2^16 with 64-victim waves, where the dead
//                     clusters grow into one giant RT
//
// The restored core is FG_CHECKed to land on the live engine's checkpoint.
void snapshot_cost(Table& t) {
  constexpr int kN = 1 << 20;
  constexpr int kWave = 64;
  Rng rng(55);
  Graph g0 = make_sparse_random(kN, 4.0, rng);
  ForgivingGraph fg(g0);

  // Base image of the pre-wave state: this is what a rotation writes.
  auto t0 = std::chrono::steady_clock::now();
  snap::BaseImage base;
  fg.core().to_base_image(&base);
  std::vector<uint8_t> base_bytes = snap::encode_base(base);
  record(t, "snapshot_base", kN, kN, ms_since(t0));
  g_rows.push_back({"bytes_per_node", kN, kN,
                    static_cast<double>(base_bytes.size()) / kN, 0.0});

  // One wave of deletions with the recorder attached — the delta is the
  // whole durable cost of that wave.
  SnapshotRecorder rec;
  rec.begin(fg.core(), 0, 0);
  snap::WaveDelta delta;
  rec.set_sink([&delta](const snap::WaveDelta& d) { delta = d; });
  fg.core().set_delta_recorder(&rec);
  auto wave = g0.alive_nodes();
  rng.shuffle(wave);
  wave.resize(kWave);
  fg.delete_batch(wave);
  fg.core().set_delta_recorder(nullptr);
  FG_CHECK(delta.wave == 1 && !rec.needs_rebase());

  t0 = std::chrono::steady_clock::now();
  std::vector<uint8_t> log_bytes;
  snap::append_delta(&log_bytes, delta);
  record(t, "snapshot_delta", kN, kWave, ms_since(t0));

  t0 = std::chrono::steady_clock::now();
  snap::BaseImage decoded;
  std::string err;
  FG_CHECK(snap::decode_base(base_bytes, &decoded, &err));
  core::StructuralCore from_snap;
  FG_CHECK(core::StructuralCore::from_base_image(decoded, &from_snap, &err));
  FG_CHECK(from_snap.apply_wave_delta(delta, &err));
  record(t, "restore_delta", kN, kWave, ms_since(t0));
  FG_CHECK_MSG(checkpoint(from_snap) == checkpoint(fg.core()),
               "snapshot restore diverged from the live engine");

  ChurnDriverConfig cfg;
  cfg.nodes = 1 << 16;
  cfg.ops = 130'000;
  TimedRecorder timed;
  ChurnDriverResult r = run_churn_driver(cfg, nullptr, nullptr, [&timed](HealerService& s) {
    timed.recorder().begin(s.engine().core(), 0, 0);
    s.engine().core().set_delta_recorder(&timed);
  });
  FG_CHECK(timed.waves() == r.stats.waves && !timed.recorder().needs_rebase());
  record(t, "snapshot_record", cfg.nodes, cfg.service.wave_size, timed.mean_ms());
}

void write_json(const std::string& path) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"repair_path\",\n  \"hw_threads\": "
     << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n";
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const JsonRow& r = g_rows[i];
    os << "    {\"scenario\": \"" << r.scenario << "\", \"n\": " << r.n
       << ", \"work\": " << r.work << ", \"value\": " << r.ms
       << ", \"per_op_us\": " << r.per_op_us << "}"
       << (i + 1 < g_rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace
}  // namespace fg

int main() {
  using namespace fg;
  std::cout << "--- R1/R2: repair-path hot loop (dirty-region collection,"
               " batched deletions, sharded plan/commit) ---\n\n";
  Table t{"scenario", "n", "ops", "total ms", "us/op"};
  Table cost{"scenario", "n", "victims", "messages", "rounds"};
  rt_breakup(t);
  wave(t);
  dist_wave(t, cost);
  adjacency_micro(t);
  slot_lookup(t);
  star_hub_merge(t);
  sharded_wave(t, cost);
  certify_overhead(t);
  certify_service_scale(t);
  churn_service(t);
  snapshot_cost(t);
  t.print(std::cout);
  std::cout << "\nprotocol cost (wave DAGs; regions repair in parallel rounds):\n";
  cost.print(std::cout);
  write_json("BENCH_repair_path.json");
  std::cout << "\nwrote BENCH_repair_path.json\n";
  return 0;
}
