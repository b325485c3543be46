// The durable-snapshot battery (src/snap + fg::SnapshotWriter +
// core::StructuralCore binary restore; docs/SNAPSHOTS.md).
//
// Four contracts are pinned here:
//   1. Round-trip: a base image plus the per-wave delta tail restores a core
//      whose checkpoint (base-image bytes) is byte-identical to the live
//      engine's — after EVERY wave, not just the last (the O(changes)
//      replay path is exact).
//   2. C4 extended to snapshot bytes: base bytes and every delta frame are
//      a pure function of the op stream — identical at any break x commit
//      worker count.
//   3. Crash consistency: any truncation or byte flip in the delta tail is
//      detected (CRC framing), restore recovers to the last consistent
//      wave, and the restored core passes the full I1-I5 audit; a resumed
//      service replaying the op stream from the restore cursor lands on the
//      uninterrupted run's checkpoint byte for byte.
//   4. Typed loader errors: decode_base / from_base_image / apply_wave_delta
//      reject malformed input with an error message, never an abort — one
//      tampered image per from_base_image rule, each pinned by its message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/healer_service.h"
#include "fg/snapshot_writer.h"
#include "fg/stabilizer.h"
#include "graph/generators.h"
#include "snap/snapshot.h"
#include "support/checkpoint.h"
#include "util/rng.h"

namespace fg {
namespace {

using support::checkpoint;

/// Seeded mixed churn stream over a pool mirror (the healer-service test's
/// scheme): valid by construction, fully determined by (n, ops, seed).
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

/// One engine-level capture: drive a ForgivingGraph through the op stream
/// in serial-service fashion (inserts in order, deletes batched into waves
/// of `wave_size`) with a SnapshotRecorder attached, keeping the initial
/// base image, every delta (record + encoded frame), and the live
/// checkpoint at each wave commit.
struct Capture {
  snap::BaseImage base;                                // state before any op
  std::vector<uint8_t> base_bytes;
  std::vector<snap::WaveDelta> deltas;
  std::vector<uint8_t> frame_bytes;                    // concatenated delta frames
  std::vector<std::vector<uint8_t>> wave_checkpoints;  // live state at each commit
  snap::BaseImage final_image;                         // live state after the stream
  std::vector<uint8_t> final_checkpoint;
  uint64_t final_epoch = 0;
};

Capture run_engine(const Graph& g0, const std::vector<ChurnOp>& ops,
                   int wave_size, int workers) {
  ForgivingGraph fg(g0);
  fg.set_shard_workers(workers);
  fg.set_commit_workers(workers);
  fg.set_break_workers(workers);

  Capture cap;
  fg.core().to_base_image(&cap.base);
  cap.base.wave = 0;
  cap.base.cursor = 0;
  cap.base_bytes = snap::encode_base(cap.base);

  SnapshotRecorder rec;
  rec.begin(fg.core(), 0, 0);
  rec.set_sink([&](const snap::WaveDelta& d) {
    cap.deltas.push_back(d);
    snap::append_delta(&cap.frame_bytes, d);
  });
  fg.core().set_delta_recorder(&rec);

  std::vector<NodeId> forming;
  uint64_t cursor = 0;
  for (const ChurnOp& op : ops) {
    ++cursor;
    if (op.kind == ChurnOp::Kind::kInsert) {
      fg.insert(op.neighbors);
      continue;
    }
    if (!fg.is_alive(op.victim) ||
        std::find(forming.begin(), forming.end(), op.victim) != forming.end())
      continue;
    forming.push_back(op.victim);
    if (static_cast<int>(forming.size()) >= wave_size) {
      rec.set_cursor(cursor);
      fg.delete_batch(forming);
      forming.clear();
      cap.wave_checkpoints.push_back(checkpoint(fg));
    }
  }
  EXPECT_FALSE(rec.needs_rebase());
  fg.core().set_delta_recorder(nullptr);
  fg.core().to_base_image(&cap.final_image);
  cap.final_checkpoint = checkpoint(fg);
  cap.final_epoch = fg.core().mutation_epoch();
  return cap;
}

// ---------------------------------------------------------------------------
// Format + file helpers.

TEST(SnapshotFormat, FileHelpersRoundTrip) {
  const std::string path = testing::TempDir() + "/snap_file_helpers.bin";
  std::vector<uint8_t> bytes = {1, 2, 3, 250};
  std::string error;
  ASSERT_TRUE(snap::write_file_atomic(path, bytes, &error)) << error;

  std::vector<uint8_t> back;
  ASSERT_TRUE(snap::read_file(path, &back, &error)) << error;
  EXPECT_EQ(back, bytes);

  std::vector<uint8_t> tail = {9, 8};
  ASSERT_TRUE(snap::append_file(path, tail, &error)) << error;
  ASSERT_TRUE(snap::read_file(path, &back, &error)) << error;
  EXPECT_EQ(back.size(), 6u);
  EXPECT_EQ(back[4], 9);

  // Atomic replace: the old content is gone wholesale, never blended.
  ASSERT_TRUE(snap::write_file_atomic(path, tail, &error)) << error;
  ASSERT_TRUE(snap::read_file(path, &back, &error)) << error;
  EXPECT_EQ(back, tail);

  EXPECT_FALSE(snap::read_file(path + ".does-not-exist", &back, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(SnapshotFormat, BaseImageRoundTripsThroughBytes) {
  Rng rng(11);
  Graph g0 = make_sparse_random(300, 4.0, rng);
  Capture cap = run_engine(g0, make_stream(300, 800, 0xABC), 8, 1);

  // The live engine's final base image, pushed through bytes.
  snap::BaseImage image = cap.final_image;
  image.wave = 7;
  image.cursor = 800;

  snap::BaseImage back;
  std::string error;
  ASSERT_TRUE(snap::decode_base(snap::encode_base(image), &back, &error)) << error;
  EXPECT_EQ(back.rows, image.rows);
  EXPECT_EQ(back.slots, image.slots);
  EXPECT_EQ(back.mult, image.mult);

  core::StructuralCore restored;
  ASSERT_TRUE(core::StructuralCore::from_base_image(back, &restored, &error)) << error;
  EXPECT_EQ(checkpoint(restored), cap.final_checkpoint);
  ASSERT_GT(cap.final_epoch, 0u);
  EXPECT_EQ(restored.mutation_epoch(), cap.final_epoch);
  restored.validate();
}

TEST(SnapshotFormat, FromBaseImageRejectsTamperedDerivedState) {
  Rng rng(12);
  Graph g0 = make_sparse_random(120, 4.0, rng);
  ForgivingGraph fg(g0);
  std::vector<ChurnOp> ops = make_stream(120, 300, 0xD1CE);
  std::vector<NodeId> wave;
  for (const ChurnOp& op : ops) {
    if (op.kind == ChurnOp::Kind::kInsert) {
      fg.insert(op.neighbors);
    } else if (fg.is_alive(op.victim) &&
               std::find(wave.begin(), wave.end(), op.victim) == wave.end()) {
      wave.push_back(op.victim);
      if (wave.size() == 8) {
        fg.delete_batch(wave);
        wave.clear();
      }
    }
  }
  snap::BaseImage good;
  fg.core().to_base_image(&good);
  ASSERT_FALSE(good.dead.empty());
  ASSERT_FALSE(good.mult.empty());
  ASSERT_FALSE(good.slots.empty());
  std::vector<size_t> leaves, helpers;  // alive rows, ascending handles
  for (size_t h = 0; h < good.rows.size(); ++h)
    if (good.rows[h].alive) (good.rows[h].is_leaf ? leaves : helpers).push_back(h);
  ASSERT_GE(leaves.size(), 2u);
  ASSERT_GE(helpers.size(), 2u);
  // Every row below the first alive one is a tombstone, so the row rules
  // report a tamper here before any other row.
  const size_t first = std::min(leaves[0], helpers[0]);
  const auto arena = static_cast<int32_t>(good.rows.size());
  auto same_slot = [](snap::BaseImage& b, size_t from, size_t to) {
    b.rows[to].owner = b.rows[from].owner;
    b.rows[to].other = b.rows[from].other;
  };

  // One tampered image per from_base_image rule. Each goes through the full
  // binary loader (encode, decode_base, from_base_image), which must refuse
  // it with that rule's message and never abort.
  struct Case {
    const char* diag;  ///< Substring the error must contain.
    std::function<void(snap::BaseImage&)> tamper;
  };
  const Case cases[] = {
      {"capacity overflows NodeId", [](snap::BaseImage& b) { b.capacity = 1u << 31; }},
      {"dead id out of range", [](snap::BaseImage& b) { b.dead.push_back(b.capacity); }},
      {"duplicate dead id", [](snap::BaseImage& b) { b.dead.push_back(b.dead.back()); }},
      {"G' edge endpoint out of range",
       [](snap::BaseImage& b) { b.gprime_edges.back().second = b.capacity; }},
      {"duplicate or out-of-order G' edge",
       [](snap::BaseImage& b) { b.gprime_edges.push_back(b.gprime_edges.back()); }},
      {"malformed MULT entry", [](snap::BaseImage& b) { b.mult[0].count = 0; }},
      {"duplicate or out-of-order MULT entry",
       [](snap::BaseImage& b) { b.mult.push_back(b.mult.back()); }},
      {"MULT section disagrees with the rebuild",
       [](snap::BaseImage& b) { b.mult[0].count += 1; }},
      {"aggregates out of range", [&](snap::BaseImage& b) { b.rows[first].leaf_count = -3; }},
      {"owner is not an alive processor",
       [&](snap::BaseImage& b) { b.rows[first].owner = static_cast<int32_t>(b.dead[0]); }},
      {"far endpoint out of range",
       [&](snap::BaseImage& b) { b.rows[first].other = static_cast<int32_t>(b.capacity); }},
      {"link outside the live arena", [&](snap::BaseImage& b) { b.rows[first].left = arena; }},
      {"representative out of range", [&](snap::BaseImage& b) { b.rows[first].rep = arena; }},
      {"forest live count disagrees with the rows",
       [](snap::BaseImage& b) { b.forest_live += 1; }},
      {"slot leaf double-booked",
       [&](snap::BaseImage& b) { same_slot(b, leaves[0], leaves[1]); }},
      {"slot helper double-booked",
       [&](snap::BaseImage& b) { same_slot(b, helpers[0], helpers[1]); }},
      {"SLOT section too short", [](snap::BaseImage& b) { b.slots.pop_back(); }},
      {"SLOT section disagrees with the forest",
       [](snap::BaseImage& b) { b.slots[0].other += 1; }},
      {"SLOT section too long",
       [](snap::BaseImage& b) { b.slots.push_back(b.slots.back()); }},
  };
  std::string error;
  for (const Case& c : cases) {
    snap::BaseImage bad = good;
    c.tamper(bad);
    error.clear();
    EXPECT_FALSE(support::restore(snap::encode_base(bad), &error)) << c.diag;
    EXPECT_NE(error.find(c.diag), std::string::npos)
        << c.diag << " misdiagnosed as: " << error;
  }

  // And decode_base's first rule: the magic carries the format version.
  std::vector<uint8_t> bytes = snap::encode_base(good);
  ASSERT_TRUE(support::restore(bytes, &error)) << error;
  bytes[0] ^= 1;
  EXPECT_FALSE(support::restore(bytes, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Round-trip: base + delta replay is exact after every wave.

class SnapshotRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotRoundTrip, DeltaReplayMatchesLiveEngineAtEveryWave) {
  const int generator = GetParam();
  Rng rng(100 + static_cast<uint64_t>(generator));
  Graph g0 = generator == 0   ? make_sparse_random(250, 4.0, rng)
             : generator == 1 ? make_barabasi_albert(250, 3, rng)
                              : make_grid(16, 16);
  const int n = g0.node_capacity();
  Capture cap = run_engine(g0, make_stream(n, 900, 0xBEEF), 8, 2);
  ASSERT_GE(cap.deltas.size(), 5u);
  ASSERT_EQ(cap.deltas.size(), cap.wave_checkpoints.size());

  snap::BaseImage base;
  std::string error;
  ASSERT_TRUE(snap::decode_base(cap.base_bytes, &base, &error)) << error;
  core::StructuralCore shadow;
  ASSERT_TRUE(core::StructuralCore::from_base_image(base, &shadow, &error)) << error;

  for (size_t w = 0; w < cap.deltas.size(); ++w) {
    ASSERT_TRUE(shadow.apply_wave_delta(cap.deltas[w], &error))
        << "wave " << w + 1 << ": " << error;
    ASSERT_EQ(checkpoint(shadow), cap.wave_checkpoints[w])
        << "replay diverged at wave " << w + 1;
  }
  // The live engine keeps mutating past the last wave commit (trailing
  // inserts); the shadow is exact through that commit.
  EXPECT_EQ(shadow.mutation_epoch(), cap.deltas.back().epoch_after);
  shadow.validate();
  EXPECT_TRUE(audit(shadow).clean());
}

INSTANTIATE_TEST_SUITE_P(Generators, SnapshotRoundTrip, ::testing::Values(0, 1, 2));

TEST(SnapshotRoundTrip, ApplyWaveDeltaRejectsCorruptRecords) {
  Rng rng(31);
  Graph g0 = make_sparse_random(200, 4.0, rng);
  Capture cap = run_engine(g0, make_stream(200, 600, 0xACE), 8, 1);
  ASSERT_GE(cap.deltas.size(), 2u);

  auto fresh_shadow = [&] {
    snap::BaseImage base;
    std::string error;
    EXPECT_TRUE(snap::decode_base(cap.base_bytes, &base, &error)) << error;
    core::StructuralCore shadow;
    EXPECT_TRUE(core::StructuralCore::from_base_image(base, &shadow, &error)) << error;
    return shadow;
  };

  std::string error;
  {
    core::StructuralCore shadow = fresh_shadow();
    snap::WaveDelta bad = cap.deltas[0];
    ASSERT_FALSE(bad.victims.empty());
    bad.victims[0] = 1u << 20;  // victim out of range
    EXPECT_FALSE(shadow.apply_wave_delta(bad, &error));
  }
  {
    core::StructuralCore shadow = fresh_shadow();
    snap::WaveDelta bad = cap.deltas[0];
    ASSERT_FALSE(bad.rows.empty());
    bad.rows[0].row.left = 1 << 20;  // link outside the arena
    EXPECT_FALSE(shadow.apply_wave_delta(bad, &error));
  }
  {
    // A delta applied against the wrong state (skipped predecessor) must
    // fail loudly, not corrupt silently: wave 2's victims were alive only
    // after wave 1's state settled — or its handles don't even exist yet.
    core::StructuralCore shadow = fresh_shadow();
    EXPECT_FALSE(shadow.apply_wave_delta(cap.deltas[1], &error));
  }
}

// ---------------------------------------------------------------------------
// C4 extended to snapshot bytes.

TEST(SnapshotC4, BytesAreScheduleIndependent) {
  Rng rng(42);
  Graph g0 = make_sparse_random(300, 5.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 1200, 0xC4C4);

  Capture reference = run_engine(g0, ops, 12, 1);
  ASSERT_GE(reference.deltas.size(), 5u);
  for (int workers : {2, 4}) {
    Capture other = run_engine(g0, ops, 12, workers);
    EXPECT_EQ(reference.base_bytes, other.base_bytes);
    EXPECT_EQ(reference.frame_bytes, other.frame_bytes)
        << "delta bytes diverged at " << workers << " workers";
    EXPECT_EQ(reference.final_checkpoint, other.final_checkpoint);
  }
}

// ---------------------------------------------------------------------------
// Service integration: durable files, restore, resume.

/// push() every op of `ops`, then flush() the trailing wave.
void push_all(HealerService& service, const std::vector<ChurnOp>& ops) {
  for (const ChurnOp& op : ops) service.push(op);
  service.flush();
}

struct ServiceFiles {
  std::string base;
  std::string log;
};

ServiceFiles service_paths(const std::string& tag) {
  const std::string prefix = testing::TempDir() + "/snapshot_" + tag;
  return {prefix + ".base", prefix + ".log"};
}

HealerConfig snapshot_config(const std::string& tag, int snapshot_every) {
  HealerConfig config;
  config.wave_size = 8;
  config.certify_every = 4;
  config.plan_workers = 2;
  config.commit_workers = 2;
  config.break_workers = 2;
  config.audit_every = 8;
  config.snapshot_every = snapshot_every;
  config.snapshot_path = testing::TempDir() + "/snapshot_" + tag;
  return config;
}

TEST(SnapshotService, ResumeMatchesUninterruptedByteForByte) {
  Rng rng(77);
  Graph g0 = make_sparse_random(300, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 2000, 0x5EED);

  // The uninterrupted reference never snapshots: recording must be a pure
  // observer, invisible in everything the service does.
  HealerConfig plain = snapshot_config("unused", 0);
  plain.snapshot_path.clear();
  std::vector<uint8_t> reference;
  int64_t reference_waves = 0;
  {
    HealerService service(g0, plain);
    push_all(service, ops);
    reference = checkpoint(service.engine());
    reference_waves = service.stats().waves;
  }

  for (size_t cut : {ops.size() / 3, (2 * ops.size()) / 3, ops.size()}) {
    const std::string tag = "resume_" + std::to_string(cut);
    HealerConfig config = snapshot_config(tag, 4);
    ServiceFiles files = service_paths(tag);
    {
      HealerService service(g0, config);
      int64_t alerts = 0;
      service.set_alert([&alerts](int64_t, const std::string&) { ++alerts; });
      for (size_t i = 0; i < cut; ++i) service.push(ops[i]);
      if (cut == ops.size()) service.flush();
      EXPECT_EQ(alerts, 0);
      // Destroyed mid-stream: whatever the files hold now is the crash
      // image the restore path must stand on.
    }
    core::StructuralCore restored;
    SnapshotRestore res = restore_snapshot(files.base, files.log, &restored);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.truncated);
    ASSERT_LE(res.cursor, cut);
    restored.validate();
    EXPECT_TRUE(audit(restored).clean());

    HealerService resumed(std::move(restored), res.waves, res.cursor, config);
    for (size_t i = res.cursor; i < ops.size(); ++i) resumed.push(ops[i]);
    resumed.flush();
    EXPECT_EQ(checkpoint(resumed.engine()), reference)
        << "resume from op " << res.cursor << " (cut " << cut << ") diverged";
    EXPECT_EQ(resumed.stats().waves, reference_waves);
  }
}

/// One push of the drift scenario below, into a service running `config`.
/// Before the delete that fills an audited wave past the first, bump the
/// multiplicity of a live image edge behind the service's back, so that
/// wave commits over drifted state and its own audit repairs it. Every
/// delete of a make_stream stream is queued, so *queued counts the forming
/// wave. Returns whether the push healed an audited wave.
bool push_with_drift(HealerService& service, const HealerConfig& config, const ChurnOp& op,
                     int* queued) {
  const int64_t wave = service.stats().waves;
  const bool deletes = op.kind == ChurnOp::Kind::kDelete;
  const bool audited = wave % config.audit_every == 0;
  if (deletes && *queued + 1 == config.wave_size && wave > 0 && audited) {
    const Graph& g = service.engine().healed();
    for (NodeId u : g.alive_nodes()) {
      if (g.degree(u) == 0) continue;
      service.engine().core().inject_multiplicity_bump(u, *g.neighbors(u).begin());
      break;
    }
  }
  service.push(op);
  if (deletes) ++*queued;
  if (service.stats().waves == wave) return false;
  *queued = 0;
  return audited;
}

TEST(SnapshotService, RebasedWaveCountsInTheRestoredWaveTotal) {
  // A wave that commits over state mutated behind the service cannot be
  // logged as a delta: the recorder discards its delta and the next
  // maintain() writes a fresh base. That base reflects the wave, so it must count it;
  // stamped one wave low, a service resumed from it would sample
  // certify_every and audit_every one wave behind the uninterrupted run.
  Rng rng(81);
  Graph g0 = make_sparse_random(300, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 2000, 0x4EBA5E);
  const std::string tag = "rebase";
  HealerConfig config = snapshot_config(tag, 4);
  ServiceFiles files = service_paths(tag);

  // Killed right after the first audited wave at or past op 1333, so every
  // drift injected so far has been audited and repaired.
  size_t cut = 0;
  int64_t killed_waves = 0;
  std::vector<uint8_t> live;
  {
    HealerService service(g0, config);
    int queued = 0;
    bool audited = false;
    while (cut < 1333 || !audited)
      audited = push_with_drift(service, config, ops[cut++], &queued);
    ASSERT_GE(service.stats().recoveries, 10);
    killed_waves = service.stats().waves;
    live = checkpoint(service.engine());
  }
  core::StructuralCore restored;
  SnapshotRestore res = restore_snapshot(files.base, files.log, &restored);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(checkpoint(restored), live);
  EXPECT_TRUE(audit(restored).clean());
  EXPECT_EQ(res.waves, static_cast<uint64_t>(killed_waves));
  ASSERT_EQ(res.cursor, cut);

  HealerService resumed(std::move(restored), res.waves, res.cursor, config);
  int queued = 0;
  for (size_t i = res.cursor; i < ops.size(); ++i)
    push_with_drift(resumed, config, ops[i], &queued);
  resumed.flush();

  HealerConfig plain = config;
  plain.snapshot_every = 0;
  plain.snapshot_path.clear();
  HealerService reference(g0, plain);
  queued = 0;
  for (const ChurnOp& op : ops) push_with_drift(reference, plain, op, &queued);
  reference.flush();
  EXPECT_EQ(resumed.stats().waves, reference.stats().waves);
  EXPECT_EQ(checkpoint(resumed.engine()), checkpoint(reference.engine()));
}

TEST(SnapshotService, DeltaLogShrinksRestoreCost) {
  // The point of the subsystem: between base rotations, restore replays
  // only the delta tail. With rotation every 64 waves and churn past one
  // rotation, the log holds strictly fewer waves than the run committed.
  Rng rng(78);
  Graph g0 = make_sparse_random(300, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 1500, 0x1066);
  const std::string tag = "rotate";
  HealerConfig config = snapshot_config(tag, 64);
  ServiceFiles files = service_paths(tag);
  int64_t waves = 0;
  std::vector<uint8_t> final_checkpoint;
  {
    HealerService service(g0, config);
    push_all(service, ops);
    waves = service.stats().waves;
    final_checkpoint = checkpoint(service.engine());
  }
  ASSERT_GT(waves, 64);

  std::vector<uint8_t> log_bytes;
  std::string error;
  ASSERT_TRUE(snap::read_file(files.log, &log_bytes, &error)) << error;
  snap::LogScan scan;
  ASSERT_TRUE(snap::scan_log(log_bytes, &scan, &error)) << error;
  EXPECT_LT(static_cast<int64_t>(scan.deltas.size()), waves);

  core::StructuralCore restored;
  SnapshotRestore res = restore_snapshot(files.base, files.log, &restored);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.waves, static_cast<uint64_t>(waves));
  EXPECT_EQ(checkpoint(restored), final_checkpoint);
}

// ---------------------------------------------------------------------------
// Torn-write fuzz: every tail corruption recovers to a consistent wave.

TEST(SnapshotTornWrite, TruncationsAndFlipsRecoverToAuditCleanState) {
  Rng rng(79);
  Graph g0 = make_sparse_random(250, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(250, 1200, 0x70A0);
  const std::string tag = "torn";
  // A rotation interval the run can't reach: the whole history stays in
  // the delta log, giving the fuzz the longest possible tail to damage.
  HealerConfig config = snapshot_config(tag, 1 << 20);
  config.audit_every = 0;
  ServiceFiles files = service_paths(tag);
  {
    HealerService service(g0, config);
    push_all(service, ops);
  }
  std::vector<uint8_t> base_bytes, log_bytes;
  std::string error;
  ASSERT_TRUE(snap::read_file(files.base, &base_bytes, &error)) << error;
  ASSERT_TRUE(snap::read_file(files.log, &log_bytes, &error)) << error;
  ASSERT_GT(log_bytes.size(), snap::kMagicLen + 64);

  core::StructuralCore full;
  SnapshotRestore full_res = restore_snapshot(files.base, files.log, &full);
  ASSERT_TRUE(full_res.ok) << full_res.error;
  const uint64_t full_waves = full_res.waves;
  ASSERT_GT(full_waves, 10u);

  Rng fuzz(0xF0A7);
  int recovered_short = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<uint8_t> bad = log_bytes;
    if (trial % 2 == 0) {
      // Torn append: cut anywhere after the header.
      size_t cut = snap::kMagicLen +
                   fuzz.next_below(log_bytes.size() - snap::kMagicLen);
      bad.resize(cut);
    } else {
      // Bit flip anywhere after the header.
      size_t at = snap::kMagicLen +
                  fuzz.next_below(log_bytes.size() - snap::kMagicLen);
      bad[at] ^= static_cast<uint8_t>(1u << fuzz.next_below(8));
    }
    const std::string bad_log = files.log + ".fuzz";
    ASSERT_TRUE(snap::write_file_atomic(bad_log, bad, &error)) << error;

    core::StructuralCore restored;
    SnapshotRestore res = restore_snapshot(files.base, bad_log, &restored);
    ASSERT_TRUE(res.ok) << "trial " << trial << ": " << res.error;
    ASSERT_LE(res.waves, full_waves);
    if (res.waves < full_waves) ++recovered_short;
    restored.validate();
    EXPECT_TRUE(audit(restored).clean()) << "trial " << trial;
    // And the recovered core keeps healing: one more wave commits clean.
    ForgivingGraph fg(std::move(restored));
    std::vector<NodeId> wave;
    for (NodeId v = 0; static_cast<int>(wave.size()) < 2; ++v)
      if (fg.is_alive(v)) wave.push_back(v);
    fg.delete_batch(wave);
    fg.validate();
  }
  // The fuzz must actually have damaged committed records, not only the
  // final frame's slack.
  EXPECT_GT(recovered_short, 12);

  // The base file is guarded by per-section CRCs: damage there is a hard
  // restore failure, never a silent half-restore.
  std::vector<uint8_t> bad_base = base_bytes;
  bad_base[bad_base.size() / 2] ^= 0x10;
  const std::string bad_base_path = files.base + ".fuzz";
  ASSERT_TRUE(snap::write_file_atomic(bad_base_path, bad_base, &error)) << error;
  core::StructuralCore restored;
  SnapshotRestore res = restore_snapshot(bad_base_path, files.log, &restored);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

// ---------------------------------------------------------------------------
// Snapshot bytes pinned across commits.

uint64_t fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

// A seeded churn stream through a snapshotting service whose base rotates
// once, so the final .base carries image edges of multiplicity >= 2 and
// the .log the waves after the rotation. The digests were recorded from
// the engine that kept every image-edge multiplicity in one hash table;
// MULT, now derived from G's sorted adjacency plus the excess table, must
// not move a byte.
TEST(SnapshotGolden, ServiceBaseAndLogArePinned) {
  constexpr int kNodes = 2048;
  Rng rng(29);
  Graph g0 = make_sparse_random(kNodes, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(kNodes, 20000, 0x60D5);
  const std::string tag = "golden";
  HealerConfig config;
  config.wave_size = 64;
  config.snapshot_every = 100;
  config.snapshot_path = testing::TempDir() + "/snapshot_" + tag;
  ServiceFiles files = service_paths(tag);
  int64_t waves = 0;
  {
    HealerService service(g0, config);
    int64_t alerts = 0;
    service.set_alert([&alerts](int64_t, const std::string&) { ++alerts; });
    push_all(service, ops);
    waves = service.stats().waves;
    EXPECT_EQ(alerts, 0);
  }
  ASSERT_GT(waves, 100);
  ASSERT_LT(waves, 200);  // exactly one rotation

  std::vector<uint8_t> base;
  std::vector<uint8_t> log;
  std::string error;
  ASSERT_TRUE(snap::read_file(files.base, &base, &error)) << error;
  ASSERT_TRUE(snap::read_file(files.log, &log, &error)) << error;
  snap::BaseImage image;
  ASSERT_TRUE(snap::decode_base(base, &image, &error)) << error;
  EXPECT_TRUE(std::any_of(image.mult.begin(), image.mult.end(),
                          [](const snap::BaseImage::MultEntry& m) { return m.count >= 2; }));

  EXPECT_EQ(base.size(), 787239u);
  EXPECT_EQ(fnv1a(base), 15430390303210209519ULL);
  EXPECT_EQ(log.size(), 5906833u);
  EXPECT_EQ(fnv1a(log), 14053711628645251479ULL);
}

// ---------------------------------------------------------------------------
// The standalone verifier's process-level exit contract.

TEST(SnapshotTool, FgsnapExitCodesPinned) {
  Rng rng(80);
  Graph g0 = make_sparse_random(200, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(200, 800, 0xF65A);
  const std::string tag = "tool";
  HealerConfig config = snapshot_config(tag, 1 << 20);
  ServiceFiles files = service_paths(tag);
  {
    HealerService service(g0, config);
    push_all(service, ops);
  }

  auto fgsnap = [](const std::string& args) {
    const std::string cmd =
        std::string(FG_FGSNAP_BIN) + " " + args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    EXPECT_NE(status, -1);
    return WEXITSTATUS(status);
  };

  EXPECT_EQ(fgsnap("--selftest"), 0);
  EXPECT_EQ(fgsnap("verify " + files.base), 0);
  EXPECT_EQ(fgsnap("verify " + files.base + " " + files.log), 0);
  EXPECT_EQ(fgsnap("info " + files.base + " " + files.log), 0);

  // Torn tail: detected, exit 1.
  std::vector<uint8_t> log_bytes;
  std::string error;
  ASSERT_TRUE(snap::read_file(files.log, &log_bytes, &error)) << error;
  std::vector<uint8_t> torn = log_bytes;
  torn.resize(torn.size() - 3);
  const std::string torn_log = files.log + ".torn";
  ASSERT_TRUE(snap::write_file_atomic(torn_log, torn, &error)) << error;
  EXPECT_EQ(fgsnap("verify " + files.base + " " + torn_log), 1);

  // Corrupt base: exit 1. Unreadable file: exit 2. Usage: exit 2.
  std::vector<uint8_t> base_bytes;
  ASSERT_TRUE(snap::read_file(files.base, &base_bytes, &error)) << error;
  base_bytes[base_bytes.size() / 3] ^= 0x20;
  const std::string bad_base = files.base + ".bad";
  ASSERT_TRUE(snap::write_file_atomic(bad_base, base_bytes, &error)) << error;
  EXPECT_EQ(fgsnap("verify " + bad_base), 1);
  EXPECT_EQ(fgsnap("verify " + files.base + ".does-not-exist"), 2);
  EXPECT_EQ(fgsnap("frobnicate " + files.base), 2);
}

}  // namespace
}  // namespace fg
