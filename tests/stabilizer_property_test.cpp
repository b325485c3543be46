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
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fg/forgiving_graph.h"
#include "fg/stabilizer.h"
#include "fuzz/corruptor.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "support/checkpoint.h"
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
