// The image-multiplicity bookkeeping of core::StructuralCore.
//
// The healed image G is the homomorphic image of G' plus the virtual forest,
// so one G edge can stand for several virtual edges. G's edge set records
// "multiplicity >= 1"; the excess table holds count - 1 for exactly the
// edges of multiplicity >= 2. Pinned here:
//   * after every wave of a seeded churn stream, at 1 worker and at 4
//     (regions broken and merged on the pool), every G edge's multiplicity
//     equals its ground-truth recount and the excess table holds exactly
//     the edges recounted >= 2, each at recount - 1 — both worker counts
//     fold their image edges through the recorded break/merge stitches;
//   * a recorded merge naming one new edge k times lands as one G edge of
//     multiplicity k, and a recorded break dropping it k times removes it;
//   * one drop too many dies on every path, in every build type;
//   * an excess bump on an edge or a non-edge is audit-visible drift that
//     stabilize() clears.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/stabilizer.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace fg {
namespace {

uint64_t edge_key(NodeId u, NodeId v) { return slot_key(std::min(u, v), std::max(u, v)); }

/// Ground truth: one unit per alive-alive G' edge plus one per cross-owner
/// forest parent link, as (edge key, count) in ascending key order.
std::vector<std::pair<uint64_t, int32_t>> recount(const core::StructuralCore& core) {
  std::vector<uint64_t> keys;
  const Graph& gp = core.gprime();
  for (NodeId u = 0; u < gp.node_capacity(); ++u) {
    if (!core.is_alive(u)) continue;
    for (NodeId w : gp.neighbors(u))
      if (u < w && core.is_alive(w)) keys.push_back(edge_key(u, w));
  }
  const auto& rows = core.forest().dump();
  for (const auto& n : rows) {
    if (!n.alive || n.parent == kNoVNode) continue;
    const NodeId a = n.owner;
    const NodeId b = rows[static_cast<size_t>(n.parent)].owner;
    if (a != b) keys.push_back(edge_key(a, b));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<uint64_t, int32_t>> out;
  for (uint64_t k : keys) {
    if (!out.empty() && out.back().first == k)
      ++out.back().second;
    else
      out.emplace_back(k, 1);
  }
  return out;
}

/// G's edges are exactly the recounted keys, each at its recount, and the
/// excess table holds exactly the keys recounted >= 2, at recount - 1.
void expect_bookkeeping_exact(const core::StructuralCore& core) {
  const auto truth = recount(core);
  const Graph& g = core.image();
  const util::FlatCountMap& excess = core.image_excess();
  ASSERT_EQ(g.edge_count(), static_cast<int64_t>(truth.size()));
  size_t multi = 0;
  for (const auto& [key, count] : truth) {
    const auto u = static_cast<NodeId>(key >> 32);
    const auto v = static_cast<NodeId>(key & 0xffffffffu);
    ASSERT_TRUE(g.has_edge(u, v)) << u << "-" << v;
    ASSERT_EQ(core.image_multiplicity(u, v), count) << u << "-" << v;
    ASSERT_EQ(excess.count(key), count - 1) << u << "-" << v;
    if (count >= 2) ++multi;
  }
  ASSERT_EQ(excess.size(), multi);
}

class ImageMultiplicityStream : public ::testing::TestWithParam<int> {};

TEST_P(ImageMultiplicityStream, ExcessMatchesTheRecountAfterEveryWave) {
  const int workers = GetParam();
  constexpr int kNodes = 400;
  constexpr int kOps = 4000;
  constexpr size_t kWave = 16;
  Rng rng(31);
  ForgivingGraph fg(make_sparse_random(kNodes, 4.0, rng));
  fg.set_shard_workers(workers);
  fg.set_break_workers(workers);
  fg.set_commit_workers(workers);

  std::vector<NodeId> pool(static_cast<size_t>(kNodes));
  for (NodeId v = 0; v < kNodes; ++v) pool[static_cast<size_t>(v)] = v;
  std::vector<NodeId> wave;
  int waves = 0;
  int multi_region_waves = 0;
  size_t max_excess = 0;
  for (int i = 0; i < kOps; ++i) {
    if (pool.size() > 32 && rng.next_bool(0.5)) {
      const size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      wave.push_back(pool[j]);
      pool[j] = pool.back();
      pool.pop_back();
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      const NodeId ends[] = {a, b};
      pool.push_back(fg.insert(ends));
    }
    if (wave.size() < kWave) continue;
    fg.delete_batch(wave);
    wave.clear();
    ++waves;
    if (fg.last_repair().regions > 1) ++multi_region_waves;
    max_excess = std::max(max_excess, fg.core().image_excess().size());
    SCOPED_TRACE("wave " + std::to_string(waves));
    expect_bookkeeping_exact(fg.core());
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(waves, 50);
  EXPECT_GT(multi_region_waves, 0);  // regions fan out on the pool at 4 workers
  EXPECT_GT(max_excess, 0u);         // the stream reaches multiplicity >= 2
  fg.validate();
}

INSTANTIATE_TEST_SUITE_P(Workers, ImageMultiplicityStream, ::testing::Values(1, 4));

/// A 4-path 0-1-2-3: every image edge starts at multiplicity 1.
core::StructuralCore path_core() { return core::StructuralCore(make_path(4)); }

TEST(ImageMultiplicity, RecordedMergeAndBreakFoldARepeatedKey) {
  core::StructuralCore core = path_core();
  core::StructuralCore::MergeEffects merge;
  // One new edge named three times (either orientation), plus a
  // same-processor pair the homomorphism collapses.
  merge.image_edges = {{0, 3}, {3, 0}, {2, 2}, {0, 3}};
  EXPECT_EQ(core.apply_merge_effects(merge), kNoVNode);
  EXPECT_TRUE(core.image().has_edge(0, 3));
  EXPECT_EQ(core.image().edge_count(), 4);
  EXPECT_EQ(core.image_multiplicity(0, 3), 3);
  EXPECT_EQ(core.image_excess().count(edge_key(0, 3)), 2);
  EXPECT_EQ(core.image_excess().size(), 1u);

  core::StructuralCore::BreakEffects drops;
  drops.edge_drops = {{3, 0}, {1, 1}, {0, 3}, {0, 3}};
  core.apply_break_effects(core::RegionPlan{}, drops);
  EXPECT_FALSE(core.image().has_edge(0, 3));
  EXPECT_EQ(core.image().edge_count(), 3);
  EXPECT_EQ(core.image_multiplicity(0, 3), 0);
  EXPECT_EQ(core.image_excess().size(), 0u);
}

// A duplicate removal in one batch also trips apply_edge_deltas's own
// FG_DCHECK first in a Debug build; in Release only the flush's count
// check stands between it and a silent skip.
#ifdef NDEBUG
constexpr const char* kDropTooMany = "below multiplicity zero";
#else
constexpr const char* kDropTooMany = "FG_CHECK failed";
#endif

/// Recorded break: a multiplicity-3 edge dropped four times in one batch.
void drop_four_of_three() {
  core::StructuralCore core = path_core();
  core::StructuralCore::MergeEffects merge;
  merge.image_edges = {{0, 3}, {0, 3}, {0, 3}};
  core.apply_merge_effects(merge);
  core::StructuralCore::BreakEffects drops;
  drops.edge_drops = {{0, 3}, {0, 3}, {0, 3}, {0, 3}};
  core.apply_break_effects(core::RegionPlan{}, drops);
}

/// Recorded break: a drop of a non-edge.
void recorded_drop_of_a_non_edge() {
  core::StructuralCore core = path_core();
  core::StructuralCore::BreakEffects drops;
  drops.edge_drops = {{0, 2}};
  core.apply_break_effects(core::RegionPlan{}, drops);
}

/// One region's break and its stitch: a victim-victim drop of a non-edge.
void region_break_drop_of_a_non_edge() {
  core::StructuralCore core = path_core();
  core::RegionPlan region;
  region.victim_edges = {{1, 3}};
  core::StructuralCore::BreakEffects effects;
  core.break_region(region, &effects);
  core.apply_break_effects(region, effects);
}

/// G loses the image edge of a G' edge behind the bookkeeping's back;
/// deleting one endpoint then drops it below zero in the break stitch. A
/// victim in another region makes the wave two regions, so 4 workers break
/// them on the pool; 1 worker breaks them in turn.
void engine_drop_of_a_vanished_edge(int workers) {
  Rng rng(37);
  ForgivingGraph fg(make_sparse_random(64, 4.0, rng));
  fg.set_break_workers(workers);
  fg.set_commit_workers(workers);
  const NodeId u = 5;
  fg.core().inject_image_edge_flip(u, fg.healed().neighbors(u).front());
  const NodeId wave[] = {u, NodeId{40}};
  fg.delete_batch(wave);
}

TEST(ImageMultiplicityDeathTest, OneDropTooManyDiesOnEveryPath) {
  EXPECT_DEATH(drop_four_of_three(), kDropTooMany);
  EXPECT_DEATH(recorded_drop_of_a_non_edge(), "below multiplicity zero");
  EXPECT_DEATH(region_break_drop_of_a_non_edge(), "below multiplicity zero");
  EXPECT_DEATH(engine_drop_of_a_vanished_edge(1), "below multiplicity zero");
  EXPECT_DEATH(engine_drop_of_a_vanished_edge(4), "below multiplicity zero");
}

TEST(ImageMultiplicity, ExcessBumpIsAuditedAsDriftAndStabilized) {
  for (bool on_edge : {true, false}) {
    SCOPED_TRACE(on_edge ? "bump on an image edge" : "bump on a non-edge");
    Rng rng(41);
    ForgivingGraph fg(make_sparse_random(96, 4.0, rng));
    const NodeId victims[] = {3, 17, 29, 60};
    fg.delete_batch(victims);
    ASSERT_TRUE(audit(fg.core()).clean());

    const NodeId u = 10;
    NodeId v = kInvalidNode;
    for (NodeId w = 0; w < fg.healed().node_capacity() && v == kInvalidNode; ++w)
      if (w != u && fg.is_alive(w) && fg.healed().has_edge(u, w) == on_edge) v = w;
    ASSERT_NE(v, kInvalidNode);
    const int32_t before = fg.core().image_multiplicity(u, v);
    fg.core().inject_multiplicity_bump(u, v);
    EXPECT_EQ(fg.core().image_excess().count(edge_key(u, v)), on_edge ? before : 1);
    EXPECT_EQ(fg.healed().has_edge(u, v), on_edge);  // G is untouched

    AuditReport report = audit(fg.core());
    EXPECT_GT(report.count(ViolationKind::kMultiplicityDrift), 0) << report.summary();
    EXPECT_EQ(report.count(ViolationKind::kImageDrift), 0) << report.summary();

    Stabilizer stabilizer(fg);
    RecoveryStats recovery = stabilizer.stabilize();
    EXPECT_TRUE(recovery.recovered);
    EXPECT_TRUE(stabilizer.audit().clean());
    expect_bookkeeping_exact(fg.core());
    fg.validate();
  }
}

}  // namespace
}  // namespace fg
