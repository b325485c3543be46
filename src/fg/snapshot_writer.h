// Engine-side producer and consumer of the durable snapshot subsystem
// (src/snap; docs/SNAPSHOTS.md).
//
// The format library (snap/snapshot.h) knows bytes; this layer knows the
// structure. It has three pieces:
//
//   * SnapshotRecorder — a core::DeltaRecorder that accumulates, per
//     committed wave, exactly the touched state: insertions in stream
//     order, image-multiplicity keys as they are touched, and — when
//     fg::ShardedForest fires on_wave_committed — the touched forest rows
//     and slot keys derived from the plan (break-script handles plus the
//     wave's whole arena reservation). Every list is emitted sorted with
//     *final* post-commit values, so the delta bytes are a pure function
//     of the op stream — snapshot bytes join contract C4.
//   * SnapshotWriter — a SnapshotRecorder bound to a base file and a delta
//     log on disk, with the crash-consistency discipline: bases go through
//     write-then-rename (never observed half-written), deltas are CRC-framed
//     appends (a torn append is detected and dropped by restore). An
//     *epoch rebase* guardrail makes out-of-band mutations safe: the
//     recorder tracks the mutation epoch it expects (+1 per insert, +1 per
//     commit); any divergence — a Stabilizer recovery rebuild, a fault
//     injection, an external engine() mutation — means the delta stream no
//     longer describes the core, so the writer discards the wave's delta
//     and writes a fresh base instead of appending garbage.
//   * restore_snapshot — load base + replay the delta tail, O(changes)
//     rather than O(n), recovering across a torn tail to the last
//     consistent wave. The caller then re-pushes the op stream from the
//     returned cursor to catch up — byte-identical to the uninterrupted
//     run (tests/snapshot_test.cpp pins this end to end).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fg/core/structural_core.h"
#include "snap/snapshot.h"

namespace fg {

/// Accumulates one wave's structural changes and emits a canonical
/// snap::WaveDelta through a sink callback. Disk-free — benches and the
/// round-trip tests capture deltas in memory; SnapshotWriter adds the file
/// discipline on top.
class SnapshotRecorder : public core::DeltaRecorder {
 public:
  using DeltaSink = std::function<void(const snap::WaveDelta&)>;

  /// Sync to `core` as the recording baseline: wave count and cursor seed
  /// the next delta's header; the expected mutation epoch resets. Call
  /// once before installing via StructuralCore::set_delta_recorder.
  void begin(const core::StructuralCore& core, uint64_t waves, uint64_t cursor);

  /// The sink receiving each wave's finished delta record.
  void set_sink(DeltaSink sink) { sink_ = std::move(sink); }

  /// Stream ops fully reflected once the *next* wave commits (the service
  /// stamps this at dispatch time — docs/SNAPSHOTS.md, "resume cursor").
  void set_cursor(uint64_t ops) { cursor_ = ops; }
  uint64_t cursor() const { return cursor_; }

  /// Deletion waves committed since begin()'s baseline, a wave whose delta
  /// a rebase discarded included (the base written next reflects it);
  /// recovery commits are not waves.
  uint64_t waves() const { return waves_; }

  /// True when the mutation epoch diverged from the op stream (recovery
  /// rebuild, fault injection, out-of-band mutation): the pending delta
  /// was discarded and the owner must write a fresh base. Cleared by
  /// rebased().
  bool needs_rebase() const { return needs_rebase_; }

  /// Acknowledge a rebase: re-sync the expected epoch to `core` and clear
  /// the flag (the owner just captured a fresh base image of it).
  void rebased(const core::StructuralCore& core);

  // core::DeltaRecorder:
  void on_insert(NodeId id, std::span<const NodeId> neighbors) override;
  void on_image_touch(NodeId u, NodeId v) override;
  void on_wave_committed(const core::StructuralCore& core,
                         const core::RepairPlan& plan) override;

 private:
  DeltaSink sink_;
  uint64_t waves_ = 0;
  uint64_t cursor_ = 0;
  uint64_t expected_epoch_ = 0;
  bool needs_rebase_ = false;
  std::vector<snap::WaveDelta::Insert> pending_inserts_;
  std::vector<uint64_t> touched_mult_;  ///< slot_key(u, v) with u < v.
};

/// A SnapshotRecorder bound to on-disk files: `base_path` (the latest base
/// image, replaced atomically) and `log_path` (the append-only delta log).
class SnapshotWriter : public core::DeltaRecorder {
 public:
  /// `base_every` > 0 rotates: after that many recorded waves, the next
  /// maintain() writes a fresh base and resets the log. 0 never rotates
  /// (the log grows until an epoch rebase forces a base).
  SnapshotWriter(std::string base_path, std::string log_path, int base_every);

  /// Capture `core` as a fresh base (wave/cursor stamped from the
  /// arguments), reset the log, and make this recorder track the core.
  /// Returns false + *error on I/O failure.
  bool begin(const core::StructuralCore& core, uint64_t waves, uint64_t cursor,
             std::string* error);

  void set_cursor(uint64_t ops) { recorder_.set_cursor(ops); }
  uint64_t waves() const { return recorder_.waves(); }

  /// Post-wave upkeep (call with no plan in flight): writes a fresh base
  /// if the recorder flagged an epoch rebase or the rotation period is
  /// due. Returns false when a disk write failed (take_error explains).
  bool maintain(const core::StructuralCore& core);

  /// The sticky I/O error, cleared by taking it (empty string when clean).
  std::string take_error();

  // core::DeltaRecorder (forwarded to the inner recorder):
  void on_insert(NodeId id, std::span<const NodeId> neighbors) override {
    recorder_.on_insert(id, neighbors);
  }
  void on_image_touch(NodeId u, NodeId v) override { recorder_.on_image_touch(u, v); }
  void on_wave_committed(const core::StructuralCore& core,
                         const core::RepairPlan& plan) override {
    recorder_.on_wave_committed(core, plan);
  }

 private:
  /// Base first, then the log reset: a crash between the two leaves old
  /// records whose wave ids the base already covers — restore_snapshot
  /// skips them. The reverse order could lose committed waves.
  bool write_base(const core::StructuralCore& core);

  SnapshotRecorder recorder_;
  std::string base_path_;
  std::string log_path_;
  int base_every_ = 0;
  int waves_since_base_ = 0;
  std::string error_;
};

/// Outcome of restore_snapshot.
struct SnapshotRestore {
  bool ok = false;         ///< Core restored to a consistent wave.
  bool truncated = false;  ///< A torn/corrupt delta tail was dropped.
  uint64_t waves = 0;      ///< Waves reflected in the restored core.
  uint64_t cursor = 0;     ///< Stream ops reflected (resume point).
  std::string error;       ///< Failure reason, or the dropped tail's detail.
};

/// Restore a core from `base_path` + the consistent prefix of `log_path`:
/// decode the base, then apply_wave_delta over every log record after the
/// base's wave — O(changes), not O(n). A missing log means "no deltas yet";
/// a torn tail is dropped (truncated = true) and the core recovers to the
/// last consistent wave. The caller should audit the result (fg::Stabilizer)
/// and re-push its op stream from `cursor`.
SnapshotRestore restore_snapshot(const std::string& base_path,
                                 const std::string& log_path,
                                 core::StructuralCore* out);

}  // namespace fg
