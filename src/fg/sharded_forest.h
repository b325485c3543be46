// Sharding layer over the virtual forest (docs/DESIGN.md, "Plan/commit
// pipeline and the sharded forest"; docs/CONCURRENCY.md for the full
// concurrency model).
//
// A deletion wave decomposes into *connected dirty regions*: victims and
// the RTs their virtual nodes live in, united whenever two victims share an
// RT or a G' edge. The paper's repair is inherently local — every broken
// RT is rebuilt from its own neighborhood — so disjoint regions heal
// independently: their plans read disjoint parts of the structure and
// their commits build disjoint RTs.
//
// ShardedForest exploits that locality across the whole pipeline, with one
// persistent thread pool (CommitPool) and one fan-out helper
// (for_each_region) serving all three phases. Its plan and execute are the
// only drivers of the core's phase primitives: both engines run every wave
// through them (the dist engine at one worker).
//
//   * Plan: it partitions a wave (core::StructuralCore::analyze_deletion),
//     then fans the read-only per-region planning out over the pool
//     (set_workers).
//   * Break: it fans the per-region break scripts out over the same pool
//     (set_break_workers, execute). Each region's break mutates only
//     its own forest nodes and reserved arena handles; every shared-state
//     write — image-edge drops, slot-table entries, counters, the forest
//     live count — is recorded into a region-local
//     core::StructuralCore::BreakEffects buffer and applied by a
//     single-threaded stitch in region id order.
//   * Commit: it fans the per-region merges out over the same pool
//     (set_commit_workers). This is safe because the plan carries an
//     *arena-id reservation*: every vnode handle the commit allocates is
//     fixed at plan time by region order alone, so concurrent merges write
//     disjoint, pre-grown parts of the arena, and the shared-state side
//     effects (image edges, counters) are recorded per region and applied
//     by a final single-threaded stitch in deterministic region order.
//
// All three fan-outs preserve the Healer contract C4, strengthened from
// "single-threaded commit" to "schedule-independent commit": the healed
// structure — checkpoint bytes included — is a pure function of the input
// partition, never of scheduling; the workers only decide *who* computes a
// region's plan or applies its merge, never *what* it contains (pinned by
// tests/shard_determinism_test.cpp and tests/arena_reservation_test.cpp,
// in Release/Debug and under the TSan preset).
//
// The pool is sized for the largest of the three knobs; each knob only
// says whether its phase fans out. One caller at a time: the pool has one
// job slot, and the engine above it (ForgivingGraph, HealerService) drives
// every wave from a single thread.
//
// It also remembers, for the most recently committed wave, which region
// every victim belonged to — the assignment trace `r` lines record so a
// replay divergence can be localized to one region.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/virtual_forest.h"

namespace fg {

/// A persistent pool of `workers - 1` background threads for drain-style
/// jobs: every participant (the caller included) pulls work items off a
/// shared atomic counter inside the job closure, so participation is
/// symmetric and completion is a property of the *work*, not the threads.
/// Spawned once per knob change, not per wave — a phase pays one notify,
/// not thread creation. The only place the engine starts threads.
///
/// dispatch() is fire-and-forget: it hands the pool a copy of the job and
/// wakes the threads, but never blocks on them. The caller runs the job
/// itself and then waits only until the job's own completion condition
/// holds (a finished-regions counter with release/acquire ordering —
/// ShardedForest::for_each_region). A worker that wakes late finds the work
/// counter exhausted and returns without touching anything but the job's
/// shared_ptr-owned context, so a stale job is a no-op, never a dangling
/// reference — and the caller's critical path never waits for a thread to
/// park, which is what keeps w > 1 commits close to w = 1 even on a
/// single-core box.
class CommitPool {
 public:
  explicit CommitPool(int background);
  ~CommitPool();

  CommitPool(const CommitPool&) = delete;
  CommitPool& operator=(const CommitPool&) = delete;

  /// Hand `job` to every background thread and return immediately. The
  /// job must be drain-style: safe to run concurrently on all threads, a
  /// no-op once its work counter is exhausted, and owning (via shared_ptr
  /// capture) any state a late waker could still touch.
  void dispatch(std::function<void()> job);

 private:
  void worker();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable parked_cv_;
  std::function<void()> job_;
  uint64_t generation_ = 0;
  int parked_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Region partitioning + concurrent planning + parallel deterministic
/// commit + the last wave's shard bookkeeping.
class ShardedForest {
 public:
  explicit ShardedForest(int workers = 1) { set_workers(workers); }

  /// Plan disjoint regions concurrently: 1 plans inline on the calling
  /// thread; n > 1 fans plan_region out over the shared pool. Any value
  /// yields the identical plan.
  void set_workers(int n);

  /// Merge disjoint regions concurrently during commit: 1 merges inline;
  /// n > 1 fans merge_region out over the shared pool. Any value replays
  /// byte-identical checkpoints — the arena-id reservation makes the
  /// commit schedule-independent (contract C4, docs/CONCURRENCY.md).
  void set_commit_workers(int n);

  /// Break disjoint regions concurrently during commit (execute): 1
  /// breaks the regions inline on the calling thread; n > 1 fans
  /// break_region out over the shared pool. Either way each region records
  /// its BreakEffects and the stitch applies them in region id order, so
  /// any value replays byte-identical checkpoints and certificate bytes
  /// (contract C4).
  void set_break_workers(int n);

  /// Commit a reserved plan end to end against `core`: the break phase
  /// (break_region per region, fanned out over the pool when break
  /// workers > 1, then the region-ordered break stitch), then the merge
  /// phase (merge_region per region, fanned out when commit workers > 1,
  /// then the region-ordered merge stitch and the reservation check).
  /// Records the wave's victim -> region assignment and fires the core's
  /// delta recorder. Returns each region's final RT root, aligned with
  /// plan.regions (kNoVNode for a region that produced none) — what the
  /// certificate layer normalizes into per-region witnesses
  /// (harness/certificate.h), identical at every worker count (C4). The
  /// handles are valid until the next insertion, which may renumber the
  /// arena (V4 in virtual_forest.h).
  std::vector<VNodeId> execute(core::StructuralCore& core,
                               const core::RepairPlan& plan);

  /// Plan a wave against `core` (analyze_deletion, plan_region per region,
  /// finalize_plan): bit-identical at every worker count. `recovery`
  /// selects the wave kind: a deletion wave by default, or the
  /// fg::Stabilizer's re-anchoring of already-dead processors.
  core::RepairPlan plan(const core::StructuralCore& core,
                        std::span<const NodeId> victims, bool recovery = false) const;

  /// Victim -> region ids of the most recently committed wave, aligned
  /// with that wave's victim order (the payload of trace `r` lines).
  const std::vector<int>& last_assignment() const { return last_assignment_; }

 private:
  /// (Re)build the shared pool for the largest of the three knobs; every
  /// setter funnels through here so one pool serves every fan-out.
  void rebuild_pool();

  /// Whether a phase whose knob is `knob` fans a wave of `regions` regions
  /// out over the pool: only when a pool exists, the knob asks for more
  /// than one worker, and there is more than one region.
  bool fans_out(int knob, size_t regions) const {
    return commit_pool_ != nullptr && knob > 1 && regions > 1;
  }

  /// Run fn(r) once for every region r in [0, regions) and return when all
  /// have finished: inline in region order unless fans_out(knob, regions),
  /// else drained off a shared counter by the caller and the pool. `fn`
  /// must only write region r's own state.
  void for_each_region(size_t regions, int knob,
                       const std::function<void(size_t)>& fn) const;

  int workers_ = 1;
  int commit_workers_ = 1;
  int break_workers_ = 1;
  int pool_background_ = 0;
  std::unique_ptr<CommitPool> commit_pool_;
  /// Per-region side-effect buffers, reused across waves (scratch pooling).
  std::vector<core::StructuralCore::MergeEffects> effects_scratch_;
  std::vector<core::StructuralCore::BreakEffects> break_effects_scratch_;
  std::vector<int> last_assignment_;
};

}  // namespace fg
