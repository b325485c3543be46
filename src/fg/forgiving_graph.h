// Centralized reference implementation of the Forgiving Graph (Section 3).
//
// This engine executes exactly the structural algorithm of the paper —
// insertion bookkeeping, and on each deletion the break / strip / merge of
// Reconstruction Trees with the representative mechanism of Algorithm A.9 —
// as one atomic step per adversarial event. All structural state and every
// container mutation live in the shared core::StructuralCore, which the
// distributed protocol (fg/dist) drives too: both engines execute the same
// code path and the same deterministic haft::merge_plan, so the healed
// topologies are bit-identical by construction (docs/DESIGN.md invariant 6;
// pinned by tests/dist_equivalence_test.cpp and exhaustive_small_test.cpp).
//
// Every deletion runs the two-phase plan/commit pipeline of
// fg::ShardedForest, the one driver both engines share: a read-only
// RepairPlan per wave — one RegionPlan per connected dirty region, carrying
// that region's arena-id reservation — then ShardedForest::execute, whose
// region breaks and region merges may fan out over the shard pool ahead of
// their region-ordered stitches. The plan side (set_shard_workers) and the
// commit side (set_break_workers, set_commit_workers) share that one pool
// and are schedule-independent: any worker count replays byte-identical
// checkpoints (contract C4, docs/CONCURRENCY.md).
//
// The invariants maintained after every insert/remove (I1-I5, checked by
// validate()) are documented on core::StructuralCore.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/sharded_forest.h"
#include "fg/virtual_forest.h"
#include "graph/graph.h"

namespace fg::harness {
class CertificateSink;
}

namespace fg {

/// Structural statistics of the most recent deletion repair (shared with
/// the distributed engine through the core).
using RepairStats = core::RepairStats;

/// The Forgiving Graph self-healing data structure (centralized engine).
class ForgivingGraph {
 public:
  /// Start from a connected network G0; ids 0..n-1 become live processors.
  explicit ForgivingGraph(const Graph& g0) : core_(g0) {}

  /// Adopt an already-populated core — the binary-snapshot restore path
  /// (fg::restore_snapshot rebuilds the core from a base image plus the
  /// delta tail, then hands it to an engine to resume healing).
  explicit ForgivingGraph(core::StructuralCore&& restored)
      : core_(std::move(restored)) {}

  /// Adversarial insertion: a new processor attached to `neighbors` (all
  /// alive, no duplicates). Returns the new processor id. The insertion may
  /// compact the forest arena, renumbering every vnode handle (V4 in
  /// virtual_forest.h).
  NodeId insert(std::span<const NodeId> neighbors) { return core_.insert_node(neighbors); }

  /// Adversarial deletion of `v` followed by the healing repair.
  void remove(NodeId v) { delete_batch({&v, 1}); }

  /// Batched adversarial deletion: all of `victims` (alive, distinct) die
  /// simultaneously and one repair round heals the network — one merged
  /// plan and one new RT per connected dirty region. Equivalent to
  /// sequential deletions with respect to invariants I1-I5 and the
  /// Theorem 1 degree/stretch bounds, at a fraction of the repair cost
  /// under heavy churn.
  void delete_batch(std::span<const NodeId> victims) {
    commit_delete_batch(plan_delete_batch(victims));
  }

  /// Plan phase only: the immutable per-region repair recipe for a wave
  /// (read-only; planned concurrently when shard_workers > 1).
  core::RepairPlan plan_delete_batch(std::span<const NodeId> victims) const {
    return shards_.plan(core_, victims);
  }

  /// Commit phase only: apply a plan produced by plan_delete_batch with no
  /// intervening mutation. Region break scripts fan out over the pool when
  /// break_workers > 1 (deterministic BreakEffects stitch in region id
  /// order), region merges when commit_workers > 1 — every vnode handle
  /// comes from the plan's arena-id reservation, so the result is
  /// schedule-independent (C4).
  void commit_delete_batch(const core::RepairPlan& plan);

  /// Worker threads for the plan phase (1 = plan inline; n > 1 fans the
  /// region plans out over the shard pool). Any value produces the
  /// identical repair (contract C4).
  void set_shard_workers(int n) { shards_.set_workers(n); }

  /// Worker threads for the commit's merge phase (1 = merge inline; n > 1
  /// fans region merges out over the shard pool, which keeps n - 1
  /// background threads for the largest of the three knobs). Any value
  /// replays byte-identical checkpoints (contract C4 — the arena-id
  /// reservation fixes every handle at plan time).
  void set_commit_workers(int n) { shards_.set_commit_workers(n); }

  /// Worker threads for the commit's break phase (1 = break the regions
  /// one after another on the calling thread; n > 1 fans region break
  /// scripts out over the same persistent pool). Either way every region
  /// records its BreakEffects and the stitch applies every shared-state
  /// write in region id order, so any value replays byte-identical
  /// checkpoints and certificate bytes (contract C4).
  void set_break_workers(int n) { shards_.set_break_workers(n); }

  /// The structural core, read-only — the audit surface fg::Stabilizer
  /// scans (slot tables, forest rows, image multiplicities).
  const core::StructuralCore& core() const { return core_; }

  /// Mutable core access for the recovery path (fg::Stabilizer's
  /// quarantine/rebuild) and for fault injection in tests (tests/fuzz).
  /// Engine code never goes through this — every normal mutation uses the
  /// insert/delete pipeline above.
  core::StructuralCore& core() { return core_; }

  /// Install a certificate sink: every subsequent committed deletion wave
  /// emits a per-wave cert::WaveCertificate through it (harness/
  /// certificate.h; docs/CERTIFICATES.md). nullptr disables emission. The
  /// certificate bytes are a pure function of (structure, wave) — identical
  /// at every shard/commit worker count (contract C4).
  void set_certificate_sink(harness::CertificateSink* sink) { cert_sink_ = sink; }

  /// Victim -> region ids of the most recent delete_batch, aligned with
  /// the victim order passed in (recorded by trace `r` lines).
  const std::vector<int>& last_region_assignment() const {
    return shards_.last_assignment();
  }

  /// Roots of the RTs a deletion of `v` would break (sorted, unique).
  /// Disjoint-region adversaries probe this to build disjoint waves.
  std::vector<VNodeId> affected_roots(NodeId v) const {
    return core_.slot_roots(v);
  }

  /// The actual healed network G.
  const Graph& healed() const { return core_.image(); }

  /// The insertions-only graph G' (deleted processors still present).
  const Graph& gprime() const { return core_.gprime(); }

  bool is_alive(NodeId v) const { return core_.is_alive(v); }

  const RepairStats& last_repair() const { return core_.last_repair(); }

  /// Number of helper nodes currently simulated by processor v.
  int helper_count(NodeId v) const { return core_.helper_count(v); }

  /// Degree of v in G divided by its degree in G' (Theorem 1.1 numerator /
  /// denominator). v must be alive and have G'-degree > 0.
  double degree_ratio(NodeId v) const;

  /// Max degree ratio over all alive processors (1.0 for an empty graph).
  double max_degree_ratio() const;

  const VirtualForest& forest() const { return core_.forest(); }

  /// Full invariant check I1-I5 (expensive; used by tests).
  void validate() const { core_.validate(); }

 private:
  core::StructuralCore core_;
  ShardedForest shards_;
  harness::CertificateSink* cert_sink_ = nullptr;
  long certified_waves_ = 0;  ///< Wave index of the next certificate.
};

}  // namespace fg
