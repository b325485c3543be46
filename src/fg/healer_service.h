// Sustained-churn healer service: the long-lived serving loop over the
// sharded plan/commit pipeline (docs/DESIGN.md, "Healer service").
//
// Every layer below this one heals a single deletion wave at a time. The
// paper's model, though, is *continuous* churn: an adversary inserting and
// deleting processors indefinitely while the structure self-heals. The
// HealerService turns the single-wave machinery into that serving loop:
//
//   * It ingests a continuous insert/delete stream (push) and chops it
//     into repair waves of `wave_size` deletions. Inserts apply in stream
//     order the moment they are pushed; deletions accumulate into the
//     forming wave. Malformed inserts are rejected at ingest (counted and
//     alerted), never applied.
//   * A wave heals INSIDE THE PUSH THAT FILLS IT, on the calling thread:
//     the victims that died since they were queued are dropped, and the
//     rest heal through one ForgivingGraph::delete_batch (plan + commit),
//     followed by the sampled guardrails. A deleted node's neighbours are
//     reconnected before push() returns, so no deletion waits for later
//     ops to arrive. The only threads are the engine's shard pool
//     (workers > 1). Nothing can mutate the engine between a wave's plan
//     and its commit, and the core refuses a stale plan anyway
//     (StructuralCore::begin_break). Checkpoints and certificate bytes are
//     a pure function of the op stream, never of worker counts (contract
//     C4 extended to the service loop — tests/healer_service_test.cpp).
//   * Certificates are a SAMPLED PRODUCTION GUARDRAIL: every k-th wave
//     (certify_every) emits a per-wave certificate (src/cert,
//     docs/CERTIFICATES.md), which the service re-validates in-process
//     with the first-principles checker right after its commit, and
//     surfaces rejections through a service-level alert callback. The
//     sampled stream can also be teed to an ostream for an offline
//     tools/fgcheck audit; ordinals ascend in the teed stream.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/snapshot_writer.h"
#include "graph/graph.h"
#include "util/latency_histogram.h"

namespace fg {

/// One operation of a churn stream.
struct ChurnOp {
  enum class Kind { kInsert, kDelete };

  Kind kind = Kind::kDelete;
  NodeId victim = kInvalidNode;    ///< kDelete: the processor to delete.
  std::vector<NodeId> neighbors;   ///< kInsert: attachment points (alive, distinct).

  static ChurnOp Insert(std::vector<NodeId> neighbors) {
    ChurnOp op;
    op.kind = Kind::kInsert;
    op.neighbors = std::move(neighbors);
    return op;
  }
  static ChurnOp Delete(NodeId victim) {
    ChurnOp op;
    op.kind = Kind::kDelete;
    op.victim = victim;
    return op;
  }
};

/// Service policy knobs. Every combination of worker counts is
/// behaviour-identical (C4); the worker knobs trade wall clock only.
struct HealerConfig {
  /// Deletions per repair wave. The service heals a wave as soon as this
  /// many distinct, still-alive victims accumulated (flush() heals a
  /// partial trailing wave).
  int wave_size = 64;
  /// Certificate guardrail sampling period: every k-th wave (wave indices
  /// 0, k, 2k, ...) is certified and re-checked in-process. 0 disables the
  /// guardrail entirely (no emission cost).
  int certify_every = 0;
  /// Forwarded to ForgivingGraph::set_shard_workers / set_commit_workers /
  /// set_break_workers. The engine keeps one thread pool, sized for the
  /// largest; each knob says whether its phase (plan, merge, break) fans
  /// out over it.
  int plan_workers = 1;
  int commit_workers = 1;
  int break_workers = 1;
  /// Self-stabilization guardrail sampling period: every k-th wave (wave
  /// indices 0, k, 2k, ...) the service audits the engine against I1-I5
  /// after the commit (fg::Stabilizer). A dirty audit raises the alert
  /// callback with the report summary, then stabilizes in place — the
  /// recovery wave is certified and checked through the same guardrail
  /// path as a sampled deletion wave. 0 disables (no audit cost).
  int audit_every = 0;
  /// Durable snapshots (src/snap; docs/SNAPSHOTS.md): with snapshot_every
  /// > 0 and a non-empty snapshot_path, the service keeps
  /// `<snapshot_path>.base` (the latest base image, replaced atomically
  /// every snapshot_every waves) and `<snapshot_path>.log` (one CRC-framed
  /// delta record per committed wave) crash-consistent on disk.
  /// fg::restore_snapshot + the restoring constructor below resume from
  /// them in O(changes). 0 disables (no recording cost).
  int snapshot_every = 0;
  std::string snapshot_path;
};

/// Service counters and per-wave latency record.
struct HealerStats {
  int64_t ops = 0;              ///< Ops pushed (inserts + deletes, dropped and rejected included).
  int64_t inserts = 0;          ///< Insertions applied.
  int64_t deletes = 0;          ///< Deletions healed (committed in some wave).
  int64_t dropped_deletes = 0;  ///< Deletes of dead, already queued, or since-killed victims.
  int64_t rejected_inserts = 0; ///< Inserts with a dead, out-of-range or repeated neighbour.
  int64_t waves = 0;            ///< Repair waves committed.
  /// Always 0: no wave is ever re-planned. Kept only because the service
  /// benchmark (perfbench/fgperf.cpp) still reads it.
  int64_t stale_replans = 0;
  int64_t certified_waves = 0;  ///< Waves the guardrail sampled.
  int64_t cert_rejections = 0;  ///< Sampled certificates the checker rejected.
  int64_t audits = 0;           ///< Audit-guardrail passes run (audit_every).
  int64_t audit_violations = 0; ///< Total violations those audits reported.
  int64_t recoveries = 0;       ///< Stabilize passes that rebuilt state.

  /// Per-wave repair latency as the service loop saw it: plan + commit +
  /// the sampled certificate check and audit. Snapshot upkeep is not
  /// included. A fixed-size log-linear histogram: its memory does not grow
  /// with the number of waves.
  util::LatencyHistogram wave_latency;

  /// Percentile of the per-wave latency, in milliseconds (p in [0, 100];
  /// 0 for an empty record). Read off wave_latency's buckets: within 1/32
  /// (about 3%) of the exact interpolated percentile over every wave.
  double latency_percentile(double p) const { return wave_latency.percentile_ms(p); }
};

/// The long-running healer loop: continuous churn in, repaired waves out,
/// sampled certificates checked on the side.
class HealerService {
 public:
  /// Alert callback: fired on the calling thread when a sampled
  /// certificate fails the in-process check, an audit finds violations, a
  /// snapshot write fails, or an insert is rejected — with the wave index
  /// and a diagnostic.
  using AlertFn = std::function<void(int64_t wave, const std::string& diagnostic)>;

  explicit HealerService(const Graph& g0, HealerConfig config = {});

  /// Resume from a snapshot-restored core (fg::restore_snapshot):
  /// `waves_done` / `ops_done` are the restore's wave count and cursor, so
  /// wave indexing (certify/audit/snapshot sampling) and the resume cursor
  /// continue exactly where the interrupted service stopped — re-pushing
  /// the op stream from `ops_done` reproduces the uninterrupted run
  /// byte for byte (tests/snapshot_test.cpp). With snapshotting configured,
  /// a fresh base is written immediately (the restored log is consumed, not
  /// extended).
  HealerService(core::StructuralCore&& restored, uint64_t waves_done,
                uint64_t ops_done, HealerConfig config = {});

  ~HealerService();

  HealerService(const HealerService&) = delete;
  HealerService& operator=(const HealerService&) = delete;

  /// The engine the service drives. Mutate it only between calls into the
  /// service. A queued victim killed through it is dropped when its wave
  /// heals (stats().dropped_deletes). The service owns the engine's
  /// certificate sink; don't install your own.
  ForgivingGraph& engine() { return fg_; }
  const ForgivingGraph& engine() const { return fg_; }

  const HealerStats& stats() const { return stats_; }

  void set_alert(AlertFn alert) { alert_ = std::move(alert); }

  /// Tee every sampled certificate to `os` in the canonical text format —
  /// a stream tools/fgcheck re-validates offline (the CI service-loop
  /// audit). nullptr disables.
  void set_certificate_stream(std::ostream* os) { cert_stream_ = os; }

  /// Ingest one op. An insert applies at once, unless a neighbour is dead,
  /// out of range or repeated: then it is rejected (stats().rejected_inserts
  /// and the alert). A delete joins the forming wave (duplicates and dead
  /// victims are dropped, counted in stats().dropped_deletes); the push
  /// that fills the wave heals it before returning.
  void push(const ChurnOp& op);

  /// Heal the partial trailing wave, if any. The service may keep
  /// ingesting afterwards.
  void flush();

 private:
  void init();
  /// Drop the victims that died since they were queued, heal the rest with
  /// one delete_batch, check the sampled certificate, audit, and keep the
  /// snapshot up to date: one whole wave, on the calling thread.
  void heal_wave();
  /// Why an insert must be rejected (a dead, out-of-range or repeated
  /// neighbour), or empty when it may apply.
  std::string insert_error(const std::vector<NodeId>& neighbors) const;

  ForgivingGraph fg_;
  HealerConfig config_;
  HealerStats stats_;
  AlertFn alert_;
  std::ostream* cert_stream_ = nullptr;

  /// The wave being formed (victims validated against the live engine).
  std::vector<NodeId> forming_;
  /// queued_[v] != 0 iff v is in forming_: a flat mark per processor id,
  /// set at push and cleared for every victim of a wave when it heals
  /// (dropped ones included), so the wave's marks cost O(wave_size).
  std::vector<uint8_t> queued_;

  /// Durable-snapshot writer (HealerConfig::snapshot_every), installed as
  /// the core's delta recorder.
  std::unique_ptr<SnapshotWriter> snapshot_;
};

}  // namespace fg
