// Arena compaction: once tombstones outnumber the live rows, the next
// insertion renumbers the live virtual-forest rows densely (V4 in
// src/fg/virtual_forest.h, core::StructuralCore::insert_node). These tests
// pin the memory bound after every insertion, that a snapshot restore
// compacts at the same replayed insertion as the live run, that the
// renumbering leaves every certificate byte unchanged, that the loaders
// range-check the aggregates the 32-byte rows narrow, and what the shard
// bookkeeping holds across an insertion.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <streambuf>
#include <string>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/healer_service.h"
#include "fg/snapshot_writer.h"
#include "graph/generators.h"
#include "snap/snapshot.h"
#include "util/rng.h"

namespace fg {
namespace {

/// Seeded mixed churn stream over a pool mirror (the healer-service test's
/// scheme): every victim leaves the pool when generated and every insert's
/// future id joins it, so the stream is valid by construction.
std::vector<ChurnOp> make_stream(int n, int ops, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> pool(static_cast<size_t>(n));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = static_cast<NodeId>(n);

  std::vector<ChurnOp> stream;
  stream.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    if (pool.size() > 16 && rng.next_bool(0.5)) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      stream.push_back(ChurnOp::Delete(victim));
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      stream.push_back(ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
  }
  return stream;
}

std::vector<uint8_t> base_bytes(const core::StructuralCore& core) {
  snap::BaseImage image;
  core.to_base_image(&image);
  return snap::encode_base(image);
}

bool sparse(const VirtualForest& f) { return 2 * f.live_count() < f.arena_size(); }

TEST(ArenaCompaction, ArenaStaysWithinTwiceTheLiveRowsAfterEveryInsertion) {
  Rng rng(5);
  Graph g0 = make_sparse_random(256, 4.0, rng);
  ForgivingGraph fg(g0);
  std::vector<NodeId> forming;
  int compactions = 0;
  for (const ChurnOp& op : make_stream(256, 3000, 0xA11)) {
    if (op.kind == ChurnOp::Kind::kDelete) {
      forming.push_back(op.victim);
      if (forming.size() == 8) {
        fg.delete_batch(forming);
        forming.clear();
      }
      continue;
    }
    const int before = fg.forest().arena_size();
    fg.insert(op.neighbors);
    const VirtualForest& f = fg.forest();
    ASSERT_LE(f.arena_size(), 2 * f.live_count());
    if (f.arena_size() < before) {
      ++compactions;
      EXPECT_EQ(f.arena_size(), f.live_count());  // no tombstone survives
    }
    fg.validate();
  }
  EXPECT_GE(compactions, 3);
}

// Kill the service at three points around the first compacting insertion:
// just before it (the files hold a sparse arena), just after it (the same
// files; the resumed service re-pushes it), and after the next wave (the
// log's last delta carries the insertion, so the restore compacts while
// replaying it). With bases rotated every wave, the base itself holds the
// sparse arena; with no rotation, the log replays every compaction since
// the start. Either way the resumed run ends on the uninterrupted run's
// base-image bytes.
TEST(ArenaCompaction, RestoreOnEitherSideOfACompactingInsertionMatchesUninterrupted) {
  Rng rng(9);
  Graph g0 = make_sparse_random(200, 4.0, rng);
  const std::vector<ChurnOp> ops = make_stream(200, 1600, 0xC0C0);

  for (int snapshot_every : {1, 1000}) {
    HealerConfig config;
    config.wave_size = 8;
    config.snapshot_every = snapshot_every;
    config.snapshot_path =
        testing::TempDir() + "/arena_compaction_" + std::to_string(snapshot_every);

    // The uninterrupted run, noting where the first compaction fires and
    // where the wave after it commits.
    std::vector<uint8_t> reference;
    size_t compacting = 0;
    size_t next_wave = 0;
    {
      HealerService service(g0, config);
      for (size_t i = 0; i < ops.size(); ++i) {
        const int arena = service.engine().forest().arena_size();
        const int64_t waves = service.stats().waves;
        service.push(ops[i]);
        if (compacting == 0 && service.engine().forest().arena_size() < arena) compacting = i;
        if (compacting != 0 && next_wave == 0 && service.stats().waves > waves) next_wave = i;
      }
      service.flush();
      reference = base_bytes(service.engine().core());
    }
    ASSERT_GT(compacting, 0u);
    ASSERT_GT(next_wave, compacting);
    ASSERT_EQ(ops[compacting].kind, ChurnOp::Kind::kInsert);

    for (size_t cut : {compacting, compacting + 1, next_wave + 1}) {
      SCOPED_TRACE("snapshot_every " + std::to_string(snapshot_every) + ", cut " +
                   std::to_string(cut));
      {
        HealerService service(g0, config);
        for (size_t i = 0; i < cut; ++i) service.push(ops[i]);
      }
      core::StructuralCore restored;
      SnapshotRestore res = restore_snapshot(config.snapshot_path + ".base",
                                             config.snapshot_path + ".log", &restored);
      ASSERT_TRUE(res.ok) << res.error;
      ASSERT_LE(res.cursor, cut);
      // Before the compacting insertion the restored arena is still sparse;
      // after the next wave the restore has compacted already.
      EXPECT_EQ(sparse(restored.forest()), cut <= compacting + 1);
      restored.validate();

      HealerService resumed(std::move(restored), res.waves, res.cursor, config);
      for (size_t i = res.cursor; i < ops.size(); ++i) resumed.push(ops[i]);
      resumed.flush();
      EXPECT_EQ(base_bytes(resumed.engine().core()), reference);
    }
  }
}

/// An output stream buffer that folds every byte into FNV-1a (64-bit), so a
/// certificate stream too large to hold can still be pinned.
class Fnv1aBuf : public std::streambuf {
 public:
  uint64_t digest() const { return h_; }
  uint64_t bytes() const { return n_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) fold(static_cast<char>(ch));
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize count) override {
    for (std::streamsize i = 0; i < count; ++i) fold(s[i]);
    return count;
  }

 private:
  void fold(char ch) {
    h_ ^= static_cast<unsigned char>(ch);
    h_ *= 1099511628211ULL;
    ++n_;
  }
  uint64_t h_ = 14695981039346656037ULL;
  uint64_t n_ = 0;
};

// The CertificateGolden.ServiceStreamDigestIsPinned stream (same generator,
// every wave certified), long enough that the arena compacts five times.
// The digest was recorded from the engine before compaction existed: a
// monotone renumbering must not move a single certificate byte.
TEST(ArenaCompaction, CertifiedStreamMatchesThePreCompactionDigest) {
  constexpr int kNodes = 2048;
  constexpr int kOps = 10000;
  Rng rng(17);
  Graph g0 = make_sparse_random(kNodes, 8.0, rng);
  HealerConfig config;
  config.certify_every = 1;
  HealerService service(g0, config);
  Fnv1aBuf digest;
  std::ostream tee(&digest);
  service.set_certificate_stream(&tee);

  std::vector<NodeId> pool(static_cast<size_t>(kNodes));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = kNodes;
  int compactions = 0;
  for (int i = 0; i < kOps; ++i) {
    const int arena = service.engine().forest().arena_size();
    if (pool.size() > 64 && rng.next_bool(0.5)) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      service.push(ChurnOp::Delete(victim));
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      service.push(ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
    if (service.engine().forest().arena_size() < arena) ++compactions;
  }
  service.flush();

  EXPECT_GE(compactions, 2);
  EXPECT_EQ(service.stats().cert_rejections, 0);
  EXPECT_EQ(service.stats().certified_waves, 78);
  EXPECT_EQ(digest.bytes(), 26688556u);
  EXPECT_EQ(digest.digest(), 3207134674177992659ULL);
}

// A row whose aggregates fall outside Lemma 1's range (leaf_count 2^31,
// 2^32 + 1 — which would truncate to 1 — or height 40000) is refused with
// the loader's typed error by both paths that read rows from outside: the
// base image and the wave delta.
TEST(ArenaCompaction, OversizedAggregatesAreRejectedByEveryLoader) {
  struct Bad {
    int64_t leaf_count;
    int32_t height;
  };
  const Bad kBad[] = {{int64_t{1} << 31, 0}, {(int64_t{1} << 32) + 1, 0}, {1, 40000}};

  Rng rng(3);
  Graph g0 = make_sparse_random(120, 4.0, rng);
  ForgivingGraph fg(g0);
  snap::BaseImage before;
  fg.core().to_base_image(&before);
  std::vector<snap::WaveDelta> deltas;
  SnapshotRecorder rec;
  rec.begin(fg.core(), 0, 0);
  rec.set_sink([&](const snap::WaveDelta& d) { deltas.push_back(d); });
  fg.core().set_delta_recorder(&rec);
  std::vector<NodeId> wave{NodeId{1}, NodeId{2}, NodeId{3}};
  fg.delete_batch(wave);
  fg.core().set_delta_recorder(nullptr);
  ASSERT_EQ(deltas.size(), 1u);
  snap::BaseImage after;
  fg.core().to_base_image(&after);

  for (const Bad& bad : kBad) {
    SCOPED_TRACE("leaf_count " + std::to_string(bad.leaf_count) + ", height " +
                 std::to_string(bad.height));
    std::string error;

    // Base image, through its wire bytes.
    {
      snap::BaseImage image = after;
      size_t alive = 0;
      while (!image.rows[alive].alive) ++alive;
      image.rows[alive].leaf_count = bad.leaf_count;
      image.rows[alive].height = bad.height;
      snap::BaseImage decoded;
      ASSERT_TRUE(snap::decode_base(snap::encode_base(image), &decoded, &error)) << error;
      core::StructuralCore out;
      EXPECT_FALSE(core::StructuralCore::from_base_image(decoded, &out, &error));
      EXPECT_NE(error.find("aggregates out of range"), std::string::npos) << error;
    }

    // Wave delta, through its log frame.
    {
      snap::WaveDelta delta = deltas.front();
      ASSERT_FALSE(delta.rows.empty());
      delta.rows.back().row.leaf_count = bad.leaf_count;
      delta.rows.back().row.height = bad.height;
      std::vector<uint8_t> log = snap::encode_log_header();
      snap::append_delta(&log, delta);
      snap::LogScan scan;
      ASSERT_TRUE(snap::scan_log(log, &scan, &error)) << error;
      ASSERT_EQ(scan.deltas.size(), 1u);
      core::StructuralCore shadow;
      ASSERT_TRUE(core::StructuralCore::from_base_image(before, &shadow, &error)) << error;
      EXPECT_FALSE(shadow.apply_wave_delta(scan.deltas.front(), &error));
      EXPECT_NE(error.find("aggregates out of range"), std::string::npos) << error;
    }
  }
}

// The victim -> region assignment of the last wave names no vnode handles,
// so an insertion (which may renumber the arena) leaves it intact.
TEST(ArenaCompaction, InsertionClearsTheLastRegionRoots) {
  Rng rng(4);
  Graph g0 = make_sparse_random(200, 4.0, rng);
  ForgivingGraph fg(g0);
  std::vector<NodeId> wave{NodeId{10}, NodeId{70}, NodeId{130}};
  fg.delete_batch(wave);
  const std::vector<int> assignment = fg.last_region_assignment();
  ASSERT_EQ(assignment.size(), wave.size());

  std::vector<NodeId> neighbors{NodeId{11}, NodeId{12}};
  fg.insert(neighbors);
  EXPECT_EQ(fg.last_region_assignment(), assignment);
}

}  // namespace
}  // namespace fg
