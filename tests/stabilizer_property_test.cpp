// Property suite for the self-stabilization audit (fg::Stabilizer).
//
// Three contracts:
//   1. Soundness — on every legally-reached state (fresh generators and
//      post-churn engines, up to 2^16 processors), the audit reports zero
//      violations and stabilize() declines to touch the engine.
//   2. Fixed point — after a recovery, a second audit is clean and a second
//      stabilize() is a no-op (also exercised per-seed by the fuzz oracle;
//      pinned here on a named case).
//   3. Contract C4 extended to recovery — the same corrupted checkpoint
//      stabilized at worker counts {1, 2, 4} replays byte-identical
//      checkpoints and certificate bytes (the recovery wave commits through
//      the ordinary schedule-independent pipeline, so worker counts must
//      not be observable).
//   4. One planner — a recovery wave planned through ShardedForest::plan is
//      the plan the retired hand-built recovery planner produced (kept
//      below as a reference), and a recovery with nothing to re-anchor
//      still commits its empty wave and certifies it.
#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cert/certificate.h"
#include "fg/forgiving_graph.h"
#include "fg/sharded_forest.h"
#include "fg/stabilizer.h"
#include "fuzz/corruptor.h"
#include "graph/generators.h"
#include "haft/haft.h"
#include "harness/certificate.h"
#include "support/checkpoint.h"
#include "util/check.h"
#include "util/rng.h"

namespace fg {
namespace {

using support::checkpoint;

void expect_clean(ForgivingGraph& fg, const std::string& what) {
  SCOPED_TRACE(what);
  Stabilizer stabilizer(fg);
  AuditReport report = stabilizer.audit();
  EXPECT_TRUE(report.clean()) << report.summary();
  const std::vector<uint8_t> before = checkpoint(fg);
  const uint64_t epoch = fg.core().mutation_epoch();
  RecoveryStats recovery = stabilizer.stabilize();
  EXPECT_FALSE(recovery.recovered);
  EXPECT_EQ(fg.core().mutation_epoch(), epoch);
  EXPECT_EQ(checkpoint(fg), before);
}

/// Seeded churn: a few deletion waves with occasional inserts, so the
/// audited state carries real RTs, helpers, and representatives.
void churn(ForgivingGraph& fg, Rng& rng, int waves, int wave_size) {
  for (int w = 0; w < waves; ++w) {
    std::vector<NodeId> alive;
    for (NodeId v = 0; v < fg.gprime().node_capacity(); ++v)
      if (fg.is_alive(v)) alive.push_back(v);
    const int max_kill = static_cast<int>(alive.size()) - 2;
    if (max_kill <= 0) return;
    const int kill = std::min(wave_size, max_kill);
    rng.shuffle(alive);
    fg.delete_batch(std::span<const NodeId>(alive.data(),
                                            static_cast<size_t>(kill)));
    if (rng.next_bool(0.5)) {
      std::vector<NodeId> nbrs(alive.begin() + kill,
                               alive.begin() + kill +
                                   std::min<size_t>(3, alive.size() - kill));
      fg.insert(nbrs);
    }
  }
}

TEST(StabilizerProperty, CleanAuditAcrossGeneratorMatrix) {
  Rng rng(7);
  for (int n : {16, 256, 4096, 1 << 16}) {
    {
      ForgivingGraph fg(make_star(n));
      expect_clean(fg, "star fresh n=" + std::to_string(n));
      churn(fg, rng, 3, n >= 4096 ? 64 : 4);
      expect_clean(fg, "star churned n=" + std::to_string(n));
    }
    {
      Rng gen(static_cast<uint64_t>(n) * 31 + 1);
      ForgivingGraph fg(make_sparse_random(n, 3.0, gen));
      expect_clean(fg, "sparse fresh n=" + std::to_string(n));
      churn(fg, rng, 3, n >= 4096 ? 64 : 4);
      expect_clean(fg, "sparse churned n=" + std::to_string(n));
    }
    {
      ForgivingGraph fg(make_binary_tree(n));
      expect_clean(fg, "btree fresh n=" + std::to_string(n));
      churn(fg, rng, 3, n >= 4096 ? 64 : 4);
      expect_clean(fg, "btree churned n=" + std::to_string(n));
    }
  }
}

// The star hub deletion is the paper's worst case (Theorem 2): one RT over
// every leaf. The audit must walk that RT — reps, helpers, haft shape —
// and come back clean.
TEST(StabilizerProperty, CleanAuditAfterStarHubDeletion) {
  ForgivingGraph fg(make_star(1 << 12));
  fg.remove(0);
  expect_clean(fg, "star minus hub");
}

TEST(StabilizerProperty, StabilizeIsAFixedPoint) {
  ForgivingGraph fg = fuzz::make_substrate(17);
  fuzz::CorruptionLog log = fuzz::corrupt(fg, 17, 5);
  ASSERT_GT(log.applied, 0);
  Stabilizer stabilizer(fg);
  RecoveryStats first = stabilizer.stabilize();
  ASSERT_TRUE(first.recovered);
  // Second pass: clean audit, no recovery, engine untouched.
  expect_clean(fg, "post-recovery engine");
}

// Contract C4, extended to recovery: stabilizing the identical corrupted
// state must be byte-identical — checkpoints AND certificate bytes — at
// every worker count. The recovery plan's regions and arena reservation
// are a pure function of the audited state, never of scheduling.
TEST(StabilizerProperty, RecoveryIsScheduleIndependent) {
  std::vector<uint8_t> ref_ckpt;
  std::string ref_cert;
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ForgivingGraph fg = fuzz::make_substrate(99);
    fuzz::CorruptionLog log = fuzz::corrupt(fg, 99, 6);
    ASSERT_GT(log.applied, 0);
    fg.set_shard_workers(workers);
    fg.set_commit_workers(workers);
    fg.set_break_workers(workers);
    harness::CertificateCollector sink;
    fg.set_certificate_sink(&sink);
    Stabilizer stabilizer(fg);
    RecoveryStats recovery = stabilizer.stabilize();
    fg.set_certificate_sink(nullptr);
    ASSERT_TRUE(recovery.recovered);
    ASSERT_EQ(sink.certs.size(), 1u);
    std::ostringstream cert_os;
    sink.certs.front().save(cert_os);
    const std::vector<uint8_t> ckpt = checkpoint(fg);
    if (workers == 1) {
      ref_ckpt = ckpt;
      ref_cert = cert_os.str();
      EXPECT_FALSE(ref_cert.empty());
    } else {
      EXPECT_EQ(ckpt, ref_ckpt);
      EXPECT_EQ(cert_os.str(), ref_cert);
    }
  }
}

// ---------------------------------------------------------------------------
// One planner. The reference below is the hand-built recovery planner
// fg::Stabilizer used before recovery waves planned through
// ShardedForest::plan, kept verbatim so the ordinary planner's recovery
// kind stays pinned to it.

/// One recovery wave over the rebuilt core: per G'-connected component of
/// the affected dead processors, one region spawning exactly the anchors
/// the quarantine removed, merged into one fresh RT by the ordinary
/// deterministic pipeline. The plan is stamped against the post-rebuild
/// epoch and arena, so ShardedForest::execute treats it like any wave.
core::RepairPlan build_recovery_plan(const core::StructuralCore& core,
                                     const std::vector<NodeId>& affected) {
  const Graph& gp = core.gprime();
  core::RepairPlan plan;
  plan.recovery = true;
  plan.arena_start = core.forest().arena_size();
  plan.arena_total = 0;
  plan.epoch = core.mutation_epoch();

  std::vector<uint8_t> in_affected(
      static_cast<size_t>(gp.node_capacity()), 0);
  for (NodeId w : affected) in_affected[static_cast<size_t>(w)] = 1;
  std::vector<uint8_t> seen(in_affected.size(), 0);
  for (NodeId w0 : affected) {
    if (seen[static_cast<size_t>(w0)]) continue;
    // Region = the affected slice of one dead cluster, collected in
    // ascending id order (deterministic BFS from the smallest member).
    std::vector<NodeId> region_victims{w0};
    seen[static_cast<size_t>(w0)] = 1;
    for (size_t i = 0; i < region_victims.size(); ++i)
      for (NodeId x : gp.neighbors(region_victims[i]))
        if (in_affected[static_cast<size_t>(x)] && !seen[static_cast<size_t>(x)]) {
          seen[static_cast<size_t>(x)] = 1;
          region_victims.push_back(x);
        }
    std::sort(region_victims.begin(), region_victims.end());

    core::RegionPlan region;
    region.id = static_cast<int>(plan.regions.size());
    region.victims = region_victims;
    for (NodeId w : region_victims) {
      for (NodeId u : gp.neighbors(w)) {
        if (!core.is_alive(u)) continue;
        FG_CHECK_MSG(core.slot_table().find(u, w) == nullptr,
                     "recovery planning a victim that still has anchors");
        region.fresh.push_back({u, w});
        region.pieces.push_back(haft::PieceInfo{1, slot_key(u, w)});
      }
    }
    region.steps = haft::merge_plan(region.pieces);
    region.arena_base = plan.arena_start + plan.arena_total;
    plan.arena_total += static_cast<int>(region.fresh.size()) +
                        static_cast<int>(region.steps.size());
    for (NodeId w : region_victims) {
      plan.victims.push_back(w);
      plan.victim_region.push_back(region.id);
    }
    plan.regions.push_back(std::move(region));
  }
  return plan;
}

/// `f` applied to every element of `v`: compares vectors of plan structs
/// that define no operator==.
template <class T, class F>
auto project(const std::vector<T>& v, F f) {
  std::vector<decltype(f(v.front()))> out;
  for (const T& x : v) out.push_back(f(x));
  return out;
}

/// (victim, region id) pairs, ascending: the wave's victim -> region map,
/// whatever order the plan lists its victims in.
std::vector<std::pair<NodeId, int>> victim_regions(const core::RepairPlan& plan) {
  std::vector<std::pair<NodeId, int>> out;
  for (size_t i = 0; i < plan.victims.size(); ++i)
    out.push_back({plan.victims[i], plan.victim_region[i]});
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same_recovery_plan(const core::RepairPlan& ref, const core::RepairPlan& plan) {
  ASSERT_EQ(plan.regions.size(), ref.regions.size());
  for (size_t r = 0; r < ref.regions.size(); ++r) {
    SCOPED_TRACE("region " + std::to_string(r));
    const core::RegionPlan& a = ref.regions[r];
    const core::RegionPlan& b = plan.regions[r];
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.victims, a.victims);
    auto fresh = [](const core::RegionPlan::FreshLeaf& f) { return std::pair(f.owner, f.dead); };
    EXPECT_EQ(project(b.fresh, fresh), project(a.fresh, fresh));
    auto piece = [](const haft::PieceInfo& p) { return std::pair(p.leaf_count, p.key); };
    EXPECT_EQ(project(b.pieces, piece), project(a.pieces, piece));
    auto step = [](const haft::MergeStep& s) { return std::tuple(s.left, s.right, s.result); };
    EXPECT_EQ(project(b.steps, step), project(a.steps, step));
    EXPECT_EQ(b.arena_base, a.arena_base);
    // Nothing to break: dead victims hold no slot and no image edge.
    EXPECT_TRUE(b.roots.empty() && b.events.empty() && b.victim_edges.empty());
  }
  EXPECT_EQ(plan.arena_start, ref.arena_start);
  EXPECT_EQ(plan.arena_total, ref.arena_total);
  EXPECT_EQ(plan.epoch, ref.epoch);
  EXPECT_EQ(plan.recovery, ref.recovery);
  // The reference listed the victims region by region; the planner lists
  // them in the order given (ascending). The sets and regions agree.
  EXPECT_EQ(victim_regions(plan), victim_regions(ref));
}

// Every row condemned after a churned run: every dead processor loses its
// anchors, so the recovery wave re-anchors every dead cluster at once.
TEST(StabilizerProperty, RecoveryPlanMatchesReferencePlanner) {
  Rng rng(29);
  size_t most_regions = 0;  // the matrix must exercise multi-region,
  size_t most_victims = 0;  // multi-victim recovery waves
  for (int n : {16, 256, 4096, 1 << 16}) {
    Rng gen(static_cast<uint64_t>(n) * 37 + 5);
    const std::pair<const char*, Graph> substrates[] = {
        {"star", make_star(n)},
        {"sparse", make_sparse_random(n, 3.0, gen)},
        {"btree", make_binary_tree(n)},
    };
    for (const auto& [name, g0] : substrates) {
      SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n));
      ForgivingGraph fg(g0);
      churn(fg, rng, 3, n >= 4096 ? 64 : 4);
      fg.core().rebuild_for_recovery(
          std::vector<uint8_t>(static_cast<size_t>(fg.forest().arena_size()), 0));
      std::vector<NodeId> dead;
      for (NodeId v = 0; v < fg.gprime().node_capacity(); ++v)
        if (!fg.is_alive(v)) dead.push_back(v);
      ASSERT_FALSE(dead.empty());

      const core::RepairPlan ref = build_recovery_plan(fg.core(), dead);
      const core::RepairPlan plan = ShardedForest().plan(fg.core(), dead, /*recovery=*/true);
      expect_same_recovery_plan(ref, plan);
      most_regions = std::max(most_regions, plan.regions.size());
      for (const core::RegionPlan& r : plan.regions)
        most_victims = std::max(most_victims, r.victims.size());

      fg.commit_delete_batch(plan);
      fg.validate();
      AuditReport report = audit(fg.core());
      EXPECT_TRUE(report.clean()) << report.summary();
    }
  }
  EXPECT_GE(most_regions, 2u);
  EXPECT_GE(most_victims, 2u);
}

// Drift in the healed image alone condemns nothing and leaves no anchor
// missing: the recovery re-derives the image and commits an empty wave,
// which still emits (and passes) its certificate.
TEST(StabilizerProperty, ImageDriftRecoversThroughAnEmptyWave) {
  Rng gen(31);
  ForgivingGraph fg(make_sparse_random(128, 4.0, gen));
  const NodeId victims[] = {5, 40, 77};
  fg.delete_batch(victims);
  const NodeId u = 10;
  ASSERT_FALSE(fg.healed().neighbors(u).empty());
  fg.core().inject_image_edge_flip(u, fg.healed().neighbors(u).front());

  harness::CertificateCollector sink;
  fg.set_certificate_sink(&sink);
  RecoveryStats recovery = Stabilizer(fg).stabilize();
  fg.set_certificate_sink(nullptr);
  ASSERT_TRUE(recovery.recovered);
  EXPECT_GT(recovery.report.count(ViolationKind::kImageDrift), 0) << recovery.report.summary();
  EXPECT_EQ(recovery.condemned_components, 0);
  EXPECT_EQ(recovery.regions, 0);
  EXPECT_EQ(recovery.victims, 0);
  EXPECT_EQ(recovery.anchors, 0);
  EXPECT_TRUE(fg.last_region_assignment().empty());
  ASSERT_EQ(sink.certs.size(), 1u);
  cert::CheckResult res = cert::check(sink.certs.front());
  EXPECT_TRUE(res.ok) << res.diagnostic;
  fg.validate();
  expect_clean(fg, "after the empty recovery wave");
}

// ---------------------------------------------------------------------------
// I3 pinned by name: hand-placed rep corruptions on a multi-wave core. A
// helper's rep is read by no other rule, so each corruption must surface as
// exactly one rep-invariant report, located at the first failing helper of
// its RT in handle order.

Graph rep_substrate() {
  Rng gen(404);
  return make_sparse_random(512, 3.0, gen);
}

/// A multi-wave engine and its largest RT: the root and its subtree in
/// preorder.
struct RepFixture {
  ForgivingGraph fg;
  VNodeId root = kNoVNode;
  std::vector<VNodeId> subtree;

  RepFixture() : fg(rep_substrate()) {
    Rng rng(405);
    churn(fg, rng, 6, 24);
    expect_clean(fg, "rep fixture");
    const std::vector<VirtualForest::VNode>& rows = fg.core().forest().dump();
    for (VNodeId h = 0; h < static_cast<VNodeId>(rows.size()); ++h) {
      const VirtualForest::VNode& r = rows[static_cast<size_t>(h)];
      if (r.alive && r.parent == kNoVNode &&
          (root == kNoVNode ||
           r.leaf_count > rows[static_cast<size_t>(root)].leaf_count))
        root = h;
    }
    subtree = fg.core().forest().subtree_of(root);
  }

  const VirtualForest::VNode& row(VNodeId h) const {
    return fg.core().forest().node(h);
  }
  std::vector<VNodeId> helpers() const {
    std::vector<VNodeId> out;
    for (VNodeId h : subtree)
      if (!row(h).is_leaf) out.push_back(h);
    return out;
  }
  /// A leaf of subtree(x) other than `not_this`.
  VNodeId other_leaf(VNodeId x, VNodeId not_this) const {
    for (VNodeId y : fg.core().forest().subtree_of(x))
      if (row(y).is_leaf && y != not_this) return y;
    return kNoVNode;
  }
  void set_rep(VNodeId h, VNodeId rep) {
    VirtualForest::VNode r = row(h);
    r.rep = rep;
    fg.core().inject_vnode_row(h, r);
  }
};

void expect_single_rep_report(const AuditReport& report, VNodeId at) {
  EXPECT_EQ(report.total, 1) << report.summary();
  EXPECT_EQ(report.count(ViolationKind::kRepInvariant), 1) << report.summary();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kRepInvariant);
  EXPECT_EQ(report.violations[0].h, at);
}

TEST(StabilizerProperty, RepMovedWithinSubtreeIsReportedAtThatHelper) {
  RepFixture f;
  ASSERT_GE(f.row(f.root).leaf_count, 16);
  // A helper below the root, so the report cannot default to the root.
  std::vector<VNodeId> helpers = f.helpers();
  ASSERT_GE(helpers.size(), 3u);
  const VNodeId x = helpers[helpers.size() / 2];
  ASSERT_NE(x, f.root);
  const VNodeId moved = f.other_leaf(x, f.row(x).rep);
  ASSERT_NE(moved, kNoVNode);
  f.set_rep(x, moved);

  expect_single_rep_report(audit(f.fg.core()), x);
  Stabilizer stabilizer(f.fg);
  RecoveryStats recovery = stabilizer.stabilize();
  EXPECT_TRUE(recovery.recovered);
  EXPECT_EQ(recovery.condemned_components, 1);
  expect_clean(f.fg, "after stabilizing a moved rep");
}

TEST(StabilizerProperty, SwappedRepsAreReportedAtTheSmallerHandle) {
  RepFixture f;
  std::vector<VNodeId> helpers = f.helpers();
  // Two helpers of the same RT whose reps differ.
  VNodeId a = kNoVNode;
  VNodeId b = kNoVNode;
  for (size_t i = 1; i < helpers.size() && b == kNoVNode; ++i)
    if (f.row(helpers[i]).rep != f.row(helpers.back()).rep) {
      a = helpers[i];
      b = helpers.back();
    }
  ASSERT_NE(b, kNoVNode);
  const VNodeId rep_a = f.row(a).rep;
  const VNodeId rep_b = f.row(b).rep;
  f.set_rep(a, rep_b);
  f.set_rep(b, rep_a);

  expect_single_rep_report(audit(f.fg.core()), std::min(a, b));
  Stabilizer stabilizer(f.fg);
  EXPECT_TRUE(stabilizer.stabilize().recovered);
  expect_clean(f.fg, "after stabilizing swapped reps");
}

TEST(StabilizerProperty, CorruptRootRepIsReportedAtTheRoot) {
  RepFixture f;
  const VNodeId wrong = f.other_leaf(f.root, f.row(f.root).rep);
  ASSERT_NE(wrong, kNoVNode);
  f.set_rep(f.root, wrong);

  expect_single_rep_report(audit(f.fg.core()), f.root);
  Stabilizer stabilizer(f.fg);
  EXPECT_TRUE(stabilizer.stabilize().recovered);
  expect_clean(f.fg, "after stabilizing a corrupt root rep");
}

}  // namespace
}  // namespace fg
