// The shared structural core of the Forgiving Graph (Sections 3-4).
//
// Both execution engines — the centralized reference implementation
// (fg::ForgivingGraph) and the distributed protocol
// (fg::dist::DistForgivingGraph) — drive this single mutation path. The
// core owns all structural state and performs every container mutation:
//
//   * G'  — the graph of all insertions, with no deletions applied;
//   * G   — the healed network: the homomorphic image of G' minus deleted
//           processors plus the virtual forest, maintained incrementally.
//           One G edge can stand for several virtual edges: G's edge set
//           records multiplicity >= 1, and an excess table holds count - 1
//           for the edges of multiplicity >= 2;
//   * the virtual forest of Reconstruction Trees and the per-processor
//     slot table (Table 1 of the paper).
//
// Both engines plan and commit through fg::ShardedForest, the one driver of
// the phase primitives below; the distributed engine reads its
// message-dependency DAG off the plan. Because there is exactly one code
// path, the piece sequence — and therefore the deterministic
// haft::merge_plan, the healed topology and, in the distributed kGlobalPlan
// mode, the arena bytes — cannot drift between the engines (docs/DESIGN.md
// invariant 6).
//
// A deletion (or a batch of deletions) runs as a two-phase PLAN / COMMIT
// pipeline (docs/DESIGN.md, "Plan/commit pipeline"):
//
//   1. Plan (const, read-only): analyze_deletion partitions the wave into
//      its *connected dirty regions* — victims and the RTs their virtual
//      nodes live in, united whenever two victims share an RT or a G' edge —
//      and plan_region fills one immutable RegionPlan per region: the exact
//      break-phase event script (pieces and teardowns, the Strip of Section
//      4.1.1, walked over the dirty region only, so its cost is
//      O(d log^2 n), not O(RT size)), the anchor leaves to spawn, and the
//      deterministic k-way ComputeHaft merge steps. Planning never mutates
//      the core, so disjoint regions can be planned concurrently
//      (fg::ShardedForest); the resulting RepairPlan is a pure function of
//      (core, victims).
//   2. Commit: apply the plan in deterministic region order — break every
//      region, spawn its anchor leaves, tombstone the victims, then
//      reassemble each region's pieces into one RT per region. There is
//      one effect mode: break_region and merge_region change only the
//      region's own forest rows and *record* every write to state shared
//      across regions (image multiplicities, slot tables, counters, the
//      forest's live count); the single-threaded stitches
//      apply_break_effects and apply_merge_effects fold those records in,
//      in region id order. fg::ShardedForest::execute runs them and may
//      hand the per-region calls to its pool. There is one allocation mode
//      too: the plan carries a per-region *arena-id reservation*, so every
//      vnode handle the commit allocates is fixed at plan time by
//      region-order arithmetic alone. Disjoint regions may therefore break
//      and merge concurrently and any worker count replays byte-identical
//      checkpoints — contract C4, strengthened from "single-threaded
//      commit" to "schedule-independent commit" (docs/CONCURRENCY.md).
//
// Invariants maintained after every insert_node / committed repair
// (checked by validate(); numbering follows docs/DESIGN.md):
//   I1. Slot consistency: processor u has a slot keyed by w iff (u, w) is a
//       G' edge whose far endpoint w is dead; the slot always holds the real
//       (leaf) node of that edge and at most one helper.
//   I2. Every Reconstruction Tree in the virtual forest is a haft over the
//       real nodes of its dead edge slots (Lemma 1 bounds its depth by
//       ceil(log2 leaves)).
//   I3. Representative: every internal RT node's `rep` is the unique leaf of
//       its subtree whose slot simulates no helper inside that subtree.
//   I4. Each helper is an ancestor of its own slot's leaf (Lemma 3).
//   I5. G is exactly the homomorphic image: G' minus dead processors, plus
//       one edge per virtual tree edge whose endpoints have distinct owners.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fg/core/slot_table.h"
#include "fg/virtual_forest.h"
#include "graph/graph.h"
#include "haft/haft.h"
#include "util/flat_count_map.h"

namespace fg::snap {
struct BaseImage;
class BaseEncoder;
struct WaveDelta;
}  // namespace fg::snap

namespace fg::core {

class StructuralCore;

/// Structural statistics of the most recent committed repair (one deletion
/// or one batch). Reset by begin_break; apply_merge_effects updates the
/// merge-side counters. Counters sum over the wave's regions.
struct RepairStats {
  int regions = 0;          ///< Connected dirty regions healed (RTs built).
  int affected_rts = 0;     ///< RTs broken by the deletion(s).
  int pieces = 0;           ///< Perfect trees to merge (incl. new leaves).
  int new_leaves = 0;       ///< Fresh real nodes (alive direct neighbors).
  int helpers_created = 0;  ///< Helper nodes instantiated by the merge.
  int helpers_removed = 0;  ///< "Red" helpers discarded by stripping.
  int64_t final_rt_leaves = 0;  ///< Total leaves of the resulting RTs.
  int deleted_degree_gprime = 0;  ///< Total G' degree of the victims.
};

/// The immutable repair recipe for one connected dirty region. Produced by
/// the read-only planner, applied by the commit phase; a pure function of
/// (core state, victim wave), so concurrent planning cannot change it (the
/// Healer contract C4 determinism argument).
struct RegionPlan {
  /// One step of the break-phase script, in the deterministic left-to-right
  /// walk order of the dirty region. A piece event detaches the maximal
  /// clean perfect subtree rooted at `h`; a teardown removes the dead or
  /// red node `h` (children already processed).
  struct Event {
    bool is_piece = false;
    VNodeId h = kNoVNode;
  };
  /// A fresh real node to spawn on alive processor `owner` for its lost G'
  /// edge to the dead processor `dead`.
  struct FreshLeaf {
    NodeId owner = kInvalidNode;
    NodeId dead = kInvalidNode;
  };

  int id = 0;                      ///< Commit order (regions heal in id order).
  /// First arena handle of this region's reservation: the commit allocates
  /// exactly fresh.size() anchor leaves at [arena_base, arena_base +
  /// fresh.size()) and steps.size() helpers right after them, in step
  /// order. Computed from region order alone (finalize_plan), so the arena
  /// layout is identical at every commit worker count. -1 until finalized.
  int arena_base = -1;
  std::vector<NodeId> victims;     ///< Region's victims, in wave order.
  std::vector<VNodeId> roots;      ///< Affected RT roots, ascending.
  std::vector<Event> events;       ///< Break-phase script.
  std::vector<FreshLeaf> fresh;    ///< Anchor leaves, in (victim, neighbor) order.
  /// Merge-plan input, aligned with the region's piece order: the detached
  /// pieces in event order, then the fresh leaves.
  std::vector<haft::PieceInfo> pieces;
  /// Deterministic k-way ComputeHaft steps over `pieces` (piece numbering
  /// as in haft::merge_plan).
  std::vector<haft::MergeStep> steps;
  /// G' edges between two victims of this region, (smaller, larger), in
  /// victim wave order: the break drops their image multiplicity with no
  /// surviving endpoint to spawn an anchor for. Precomputed at plan time so
  /// the break never needs the wave-wide victim set — one region's break
  /// reads nothing but its own plan (the parallel-break locality argument,
  /// docs/CONCURRENCY.md).
  std::vector<std::pair<NodeId, NodeId>> victim_edges;
  int red_teardowns = 0;           ///< Red (helper) nodes the break removes.
};

/// The full plan for one deletion wave: the per-region recipes in
/// deterministic commit order, plus wave-level bookkeeping.
struct RepairPlan {
  std::vector<NodeId> victims;     ///< The wave, in the order given.
  std::vector<int> victim_region;  ///< Region id per victim, aligned above.
  std::vector<RegionPlan> regions;
  /// The wave's arena-id reservation: the commit reserves arena_total
  /// handles starting at arena_start (== the arena size the plan was
  /// computed against) and every region draws from its own [arena_base,
  /// arena_base + fresh + steps) sub-range. See docs/CONCURRENCY.md.
  int arena_start = -1;
  int arena_total = 0;
  /// The core's mutation epoch the plan was computed against; begin_break
  /// FG_CHECKs it, so *any* intervening mutation — even one that leaves
  /// the arena size unchanged, like a teardown-only repair — makes the
  /// plan refuse to commit instead of replaying a stale script.
  uint64_t epoch = 0;
  /// Recovery plans (fg::Stabilizer, planned with the recovery wave kind)
  /// rebuild structure for processors that are *already dead*: the planner
  /// records no victim-victim drops, begin_break inverts the per-victim
  /// liveness check, the break spawns anchors without dropping (long-gone)
  /// image edges, and finish_break skips the re-kill. Everything else —
  /// regions, arena reservation, merge steps, contract C4 — is the
  /// ordinary pipeline.
  bool recovery = false;
};

/// A wave's dirty vnodes: the victims' leaves and helpers (dead) and all
/// their ancestors, each mapped to its mark and the root of its RT. Flat
/// open addressing keyed by handle, linear probing, load <= 1/2, no
/// erase; the capacity follows the number of handles inserted, never the
/// arena size.
class DirtySet {
 public:
  struct Cell {
    VNodeId h = kNoVNode;     ///< Key; kNoVNode marks an empty cell.
    VNodeId root = kNoVNode;  ///< RT root of h (kNoVNode while h's walk is open).
    int32_t victim = -1;      ///< Wave position whose walk marked h first.
    bool dead = false;        ///< A victim's leaf or helper (else a strict ancestor).
  };

  /// Grow, if needed, so `more` inserts keep the load at or below 1/2.
  /// Cell pointers stay valid until the next call.
  void reserve_more(size_t more);

  /// The cell of h, or nullptr when h is clean.
  const Cell* find(VNodeId h) const {
    if (cells_.empty()) return nullptr;
    for (size_t i = home_of(h);; i = (i + 1) & mask_) {
      const Cell& c = cells_[i];
      if (c.h == kNoVNode) return nullptr;
      if (c.h == h) return &c;
    }
  }

  /// The cell of h; a new blank one (victim -1) when h was absent. Room
  /// must have been reserved.
  Cell* insert(VNodeId h);

  size_t size() const { return size_; }
  size_t capacity() const { return cells_.size(); }

 private:
  /// Fibonacci-hashed home cell (capacity is a power of two).
  size_t home_of(VNodeId h) const {
    return static_cast<size_t>((static_cast<uint64_t>(static_cast<uint32_t>(h)) *
                                0x9E3779B97F4A7C15ull) >> 32) & mask_;
  }
  void rehash(size_t capacity);

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// The region partition and shared lookup sets a plan is built from.
/// Produced once per wave by analyze_deletion; plan_region then fills each
/// RegionPlan independently (and, if the caller wishes, concurrently — it
/// only ever reads the core and this analysis).
/// Membership is flat, not hashed into nodes (the `is_*` helpers below,
/// plus DirtySet::find for a handle's root, are the lookup API): the small
/// victim set is a sorted vector probed by binary search, and the vnode
/// sets are one DirtySet, filled by a single walk per dead vnode that
/// stops at the first ancestor an earlier walk marked. The table is sized
/// to the wave, not to the arena: Lemma 1 keeps a wave's dirty set at
/// O(dead * log n) however long-lived the arena is, so one representation
/// gives O(1) probes and O(wave) setup both for a dense wave in a young
/// arena and for one victim deep in an old one.
struct DeletionAnalysis {
  bool recovery = false;                    ///< The wave kind (RepairPlan::recovery).
  std::vector<NodeId> victims;              ///< Wave order.
  std::vector<NodeId> victim_sorted;        ///< Victims, ascending.
  DirtySet dirty;                           ///< Dead vnodes + ancestors.
  /// Seed index per victim, aligned with `victims` (finalize_plan derives
  /// RepairPlan::victim_region from it without any lookup table).
  std::vector<int> victim_seed;
  /// Per region: victims in wave order, affected roots ascending. Regions
  /// are ordered by their smallest victim id — the deterministic commit
  /// order (docs/DESIGN.md, "shard ordering rule").
  struct Seed {
    std::vector<NodeId> victims;
    std::vector<VNodeId> roots;
  };
  std::vector<Seed> seeds;

  bool is_victim(NodeId v) const {
    return std::binary_search(victim_sorted.begin(), victim_sorted.end(), v);
  }
  bool is_dead_vnode(VNodeId h) const {
    const DirtySet::Cell* c = dirty.find(h);
    return c != nullptr && c->dead;
  }
  bool is_dirty(VNodeId h) const { return dirty.find(h) != nullptr; }
};

/// Hooks the snapshot layer installs to capture, per committed wave, the
/// exact set of structural changes (docs/SNAPSHOTS.md). The recorder only
/// *accumulates touched keys*; the final values are read from the core
/// when fg::ShardedForest fires on_wave_committed after the commit settles.
/// Every callback runs on the single-threaded parts of the pipeline
/// (insert_node, the region-id-ordered effect stitches), so a recorder
/// needs no synchronization, and the accumulated sets are a pure
/// function of the op stream — snapshot bytes join contract C4.
class DeltaRecorder {
 public:
  virtual ~DeltaRecorder() = default;

  /// insert_node applied: processor `id` attached to `neighbors`. The
  /// image-edge touches of the insertion arrive through on_image_touch.
  virtual void on_insert(NodeId id, std::span<const NodeId> neighbors) {
    (void)id, (void)neighbors;
  }

  /// The image multiplicity of edge (u, v) is about to change (u != v).
  /// Fired by both multiplicity funnels — add_image_edge (insertions, the
  /// merge stitch) and the break stitch's batched drops — so the
  /// accumulated key set covers every healed-image edge the wave (or an
  /// insertion) touched. The order follows the stitches, not the repair
  /// walk; a recorder keeps the set, not the sequence. A recovery
  /// re-derives the image wholesale and fires nothing here: its commit
  /// forces a rebase instead.
  virtual void on_image_touch(NodeId u, NodeId v) { (void)u, (void)v; }

  /// A wave's commit fully settled (fired by fg::ShardedForest::execute,
  /// after the merge stitch): read the touched rows'/slots'/multiplicities'
  /// final values and emit the wave's delta record. `plan` names the
  /// victims, the break-script handles, and the arena reservation — the
  /// complete touched-row set of the wave.
  virtual void on_wave_committed(const StructuralCore& core, const RepairPlan& plan) {
    (void)core, (void)plan;
  }
};

/// The single structural mutation path both engines execute.
class StructuralCore {
 public:
  /// Start from a connected network G0; ids 0..n-1 become live processors.
  explicit StructuralCore(const Graph& g0);
  StructuralCore() = default;  // empty core, populated by from_base_image()

  /// Adversarial insertion: a new processor attached to `neighbors` (all
  /// alive, no duplicates). Returns the new processor id.
  ///
  /// First, when 2 * live_count() < arena_size(), it compacts the forest
  /// arena (VirtualForest::compact) and rewrites the slot table's handles,
  /// so the arena stays within twice the live structure after every
  /// insertion. The renumbering is monotone, so plans, certificates and
  /// delta sizes are unchanged; only handle values move (V4). A run of
  /// deletions with no insertion keeps its tombstones until the next
  /// insertion.
  NodeId insert_node(std::span<const NodeId> neighbors);

  // --- Plan phase (read-only; safe to run concurrently per region). ------

  /// Partition a wave of victims (distinct) into its connected dirty
  /// regions and build the shared lookup sets. Each region heals into its
  /// own RT, which is what lets disjoint regions plan concurrently and
  /// repair in parallel rounds. A deletion wave's victims are alive and at
  /// least one; a recovery wave (`recovery`, fg::Stabilizer) names dead
  /// processors that hold no slot, and may be empty.
  DeletionAnalysis analyze_deletion(std::span<const NodeId> victims,
                                    bool recovery = false) const;

  /// Fill `out` with the complete immutable recipe for region
  /// `analysis.seeds[region]`. Pure read-only: callable from worker
  /// threads on disjoint regions of the same analysis.
  void plan_region(const DeletionAnalysis& analysis, int region, RegionPlan* out) const;

  /// Fill the wave-level fields of a plan whose regions are already
  /// populated (victims, victim_region, the wave kind), stamp this core's
  /// arena size and mutation epoch (what begin_break validates against),
  /// and assign the arena-id reservation: each region's arena_base
  /// follows by prefix sums over (fresh + steps) counts in region id
  /// order — a pure function of the plan, never of scheduling. The only
  /// writer of a plan's reservation fields.
  void finalize_plan(const DeletionAnalysis& analysis, RepairPlan* plan) const;

  // --- Commit phase (deterministic region order; see docs/CONCURRENCY.md).
  //
  // The break is begin_break, break_region per region, apply_break_effects
  // per region in id order, then finish_break; the merge is merge_region
  // per region, apply_merge_effects in id order, then
  // check_reservation_settled. fg::ShardedForest::execute runs them.

  /// The side effects of one region's break that touch state shared across
  /// regions, recorded by break_region and applied by apply_break_effects
  /// in region id order (the mirror of MergeEffects on the merge side).
  struct BreakEffects {
    /// One deferred slot-table write, in break-script order.
    struct SlotOp {
      NodeId owner = kInvalidNode;  ///< Slot's owning processor.
      NodeId other = kInvalidNode;  ///< Slot key (far endpoint).
      VNodeId h = kNoVNode;         ///< The vnode written into / out of it.
      bool is_leaf = false;         ///< Which field of the slot.
      bool attach = false;          ///< true: install h; false: clear h.
    };
    /// Image-multiplicity decrements in break order: each event teardown's
    /// (owner, parent owner) pair, then each fresh leaf's (dead, owner)
    /// G' edge, then the region's victim-victim edges.
    std::vector<std::pair<NodeId, NodeId>> edge_drops;
    std::vector<SlotOp> slot_ops;
    int teardowns = 0;   ///< Forest removals to credit (dead + red nodes).
    int new_leaves = 0;  ///< Anchor leaves spawned.
    int affected_rts = 0;

    void reset() {
      edge_drops.clear();
      slot_ops.clear();
      teardowns = 0;
      new_leaves = 0;
      affected_rts = 0;
    }
  };

  /// Validate and open the break: epoch + arena staleness checks (a plan
  /// computed before any intervening mutation refuses to commit), the one
  /// arena growth (reserve_range), last_repair() reset, per-victim alive
  /// checks. Must precede any break_region call of the same plan.
  void begin_break(const RepairPlan& plan);

  /// Replay one region's break script after begin_break. Mutates only
  /// region-local state — unlinks and tombstones the region's own vnodes
  /// (remove_uncounted) and constructs its anchor leaves — while every
  /// shared-state write (image multiplicities and edges, slot-table
  /// entries, counters, forest live count) is recorded into `effects`
  /// (required, reset first) for apply_break_effects. The anchor leaves
  /// land at their reserved handles, so disjoint regions may run this
  /// concurrently (fg::ShardedForest's commit pool does). Returns the
  /// region's materialized pieces, aligned with RegionPlan::pieces.
  std::vector<VNodeId> break_region(const RegionPlan& region, BreakEffects* effects);

  /// Fold one region's recorded break effects into the shared state:
  /// multiplicity drops (each consumes the edge's excess first; a drop that
  /// finds none queues the edge's removal, and the queue flips in one
  /// batched Graph::apply_edge_deltas pass), slot writes in script order
  /// (every teardown's slot entry must hold its handle — FG_CHECKed),
  /// counters, live-count credit. Single-threaded, called in region id
  /// order — the deterministic stitch.
  void apply_break_effects(const RegionPlan& region, const BreakEffects& effects);

  /// Close the break: tombstone the victims (their slot tables are wiped
  /// wholesale; every image edge must already be gone — FG_CHECKed).
  void finish_break(const RepairPlan& plan);

  /// The side effects of one region's merge that touch state shared across
  /// regions, recorded by merge_region and applied by apply_merge_effects
  /// in region id order. Buffers are reused wave to wave.
  struct MergeEffects {
    VNodeId root = kNoVNode;  ///< The region's final RT root (kNoVNode: no pieces).
    /// Image edges each join adds, in join order: (helper owner, left child
    /// owner), then (helper owner, right child owner).
    std::vector<std::pair<NodeId, NodeId>> image_edges;
    int helpers_created = 0;

    void reset() {
      root = kNoVNode;
      image_edges.clear();
      helpers_created = 0;
    }
  };

  /// Replay one region's merge steps over its materialized pieces (from
  /// the break), constructing every helper at its reserved arena handle.
  /// The steps are region.steps; the dist engine's kStageWise mode writes
  /// its own association there before the commit, which makes the same
  /// pieces.size() - 1 joins and so fits the same reservation.
  /// Mutates only region-local state — the region's subtree nodes and its
  /// own slot entries — and records the shared-state side effects (image
  /// edges, counters, the final root) into `effects` (required, reset
  /// first) for apply_merge_effects, so disjoint regions of one plan may
  /// run this concurrently (fg::ShardedForest's commit pool does). `pieces`
  /// is consumed as scratch and must come from the break. Returns the
  /// region's final RT root (kNoVNode for no pieces).
  VNodeId merge_region(const RegionPlan& region, std::vector<VNodeId>&& pieces,
                       MergeEffects* effects);

  /// Fold one region's recorded merge effects into the shared state:
  /// image edges in join order (each through add_image_edge), repair
  /// counters, the final RT's leaves. Single-threaded, called in region id
  /// order — the deterministic stitch. Returns the region's final RT root.
  VNodeId apply_merge_effects(const MergeEffects& effects);

  /// FG_CHECK that every handle of the plan's arena reservation was
  /// constructed — an undersized plan or a skipped region fails loudly
  /// instead of leaving silent holes in the arena. Call after the last
  /// region's merge.
  void check_reservation_settled(const RepairPlan& plan) const;

  const Graph& image() const { return g_; }
  const Graph& gprime() const { return gprime_; }

  // --- Audit surface (fg::Stabilizer; read-only). ------------------------

  /// The per-processor slot tables, read-only — the auditor cross-checks
  /// every slot entry against the forest rows and vice versa.
  const SlotTable& slot_table() const { return slots_; }

  /// The multiplicity of image edge (u, v): G's presence of the edge plus
  /// its excess (0 for a non-edge). The snapshot recorder emits it per
  /// touched key; the auditor holds the same sum against its recount.
  int32_t image_multiplicity(NodeId u, NodeId v) const {
    return (g_.has_edge(u, v) ? 1 : 0) + image_excess_.count(edge_key(u, v));
  }

  /// The excess table, read-only: slot_key(u, v) with u < v maps to
  /// multiplicity - 1, for exactly the image edges of multiplicity >= 2
  /// (never a 0 entry).
  const util::FlatCountMap& image_excess() const { return image_excess_; }

  // --- Recovery surface (fg::Stabilizer). --------------------------------

  /// Quarantine for self-stabilizing recovery: keep exactly the forest rows
  /// with keep[h] != 0 (each must be alive on an alive processor, and kept
  /// rows' links must stay within the kept set — FG_CHECKed), tombstone
  /// and unlink everything else, then derive the slot table, the healed
  /// image and its multiplicities from ground truth exactly as
  /// from_base_image does. Bumps the mutation epoch; the caller then plans
  /// and commits a recovery wave (RepairPlan::recovery) to re-anchor every
  /// dead edge the quarantine left uncovered.
  void rebuild_for_recovery(const std::vector<uint8_t>& keep);

  // --- Fault-injection seams (tests/fuzz/corruptor; never the engines). ---
  //
  // Each seam overwrites one piece of state the invariants I1-I5 protect,
  // bypassing every FG_CHECK the normal mutation path would trip, and bumps
  // the mutation epoch (corrupted state must stale any outstanding plan).

  /// Overwrite forest row `h` wholesale (links, flags, aggregates, rep).
  void inject_vnode_row(VNodeId h, const VirtualForest::VNode& row);

  /// Create or overwrite the slot entry (owner, other) with the given
  /// leaf/helper handles (kNoVNode clears a field).
  void inject_slot(NodeId owner, NodeId other, VNodeId leaf, VNodeId helper);

  /// Erase the slot entry (owner, other) if present.
  void inject_erase_slot(NodeId owner, NodeId other);

  /// Toggle the healed-image edge (u, v) in G without touching the excess
  /// table (both endpoints must be alive).
  void inject_image_edge_flip(NodeId u, NodeId v);

  /// Bump the excess of (u, v) by one, desyncing the multiplicity from the
  /// forest. On a non-edge this leaves an excess entry with no G edge.
  void inject_multiplicity_bump(NodeId u, NodeId v);

  /// Monotone counter bumped by every structural mutation (insert_node,
  /// begin_break). Plans are stamped with it and refuse to commit if it
  /// moved — the staleness guard behind the arena-id reservation.
  uint64_t mutation_epoch() const { return epoch_; }
  const VirtualForest& forest() const { return forest_; }
  bool is_alive(NodeId v) const { return g_.is_alive(v); }
  const RepairStats& last_repair() const { return last_repair_; }

  /// Number of helper nodes currently simulated by processor v.
  int helper_count(NodeId v) const;

  /// Roots of the RTs holding v's slot vnodes — the RTs a deletion of v
  /// would break. Sorted ascending, unique. (Adversaries and the region
  /// tests use this to reason about wave disjointness.)
  std::vector<VNodeId> slot_roots(NodeId v) const;

  // --- Binary snapshots (src/snap; docs/SNAPSHOTS.md). --------------------

  /// Fill a binary base image with the complete structure, derived state
  /// included (slot tables, image multiplicities), every list in canonical
  /// sorted order — the bytes snap::encode_base produces from it are a
  /// pure function of the structure (contract C4). Leaves the image's
  /// wave/cursor header fields untouched; epoch is stamped from this core.
  void to_base_image(snap::BaseImage* out) const;

  /// Stream the same image into `enc`, stamped with `wave` and `cursor`:
  /// the bytes snap::encode_base(to_base_image) produces, with no BaseImage
  /// and no whole-file buffer in between (the snapshot writer's base path).
  void stream_base_image(snap::BaseEncoder* enc, uint64_t wave, uint64_t cursor) const;

  /// Restore a core from a base image. Malformed images (out-of-range
  /// handles, duplicate edges, SLOT or MULT sections that disagree with
  /// the state derived from the forest) return false + *error, never
  /// abort. The restored core's mutation epoch is the image's.
  static bool from_base_image(const snap::BaseImage& image, StructuralCore* out,
                              std::string* error);

  /// Replay one wave delta (final-value semantics) on top of this core:
  /// insertions in stream order, the touched forest rows / slots /
  /// multiplicities overwritten with their recorded final values, victims
  /// tombstoned, epoch advanced to the delta's. O(changes), not O(n).
  /// Same typed-error contract as from_base_image; on failure the core is
  /// partially mutated and must be discarded.
  bool apply_wave_delta(const snap::WaveDelta& delta, std::string* error);

  /// Install the snapshot layer's per-wave change recorder (nullptr
  /// disables). The core fires the insertion/image-touch callbacks; the
  /// wave-committed callback is fired by fg::ShardedForest::execute once a
  /// commit fully settles. Recording is only meaningful on that sharded
  /// pipeline — the path the centralized engine's batch deletes and the
  /// healer service drive.
  void set_delta_recorder(DeltaRecorder* recorder) { recorder_ = recorder; }
  DeltaRecorder* delta_recorder() const { return recorder_; }

  /// Full invariant check I1-I5 (expensive; used by tests).
  void validate() const;

 private:
  static uint64_t edge_key(NodeId u, NodeId v);

  /// Derive the slot table, G and the excess table from ground truth — G',
  /// the liveness g_ records and the alive forest rows: each row registers
  /// in its slot, and an image edge's multiplicity counts its alive-alive
  /// G' edge plus the cross-processor parent links over it. Returns the
  /// first slot clash ("slot leaf double-booked" or "slot helper
  /// double-booked"; the state is then half-built) or an empty string.
  /// `mult`, if given, receives every (edge key, multiplicity) ascending.
  std::string derive_state(std::vector<std::pair<uint64_t, int32_t>>* mult);

  /// Plan input for a piece root: leaf count plus the deterministic
  /// representative slot key (the paper's NodeID tie-break).
  haft::PieceInfo piece_info(VNodeId root) const;
  /// The multiplicity funnel for additions: bump (u, v) — a new G edge, or
  /// one more unit of excess if the edge exists.
  void add_image_edge(NodeId u, NodeId v);

  /// The break stitch's batched drop, the funnel for removals: consume
  /// (u, v)'s excess if it has one, else queue the edge's removal in
  /// delta_scratch_ for flush_edge_drops().
  void drop_image_edge(NodeId u, NodeId v);

  /// Remove every queued edge in one Graph::apply_edge_deltas pass, and
  /// FG_CHECK that each one was removed: a duplicate or absent removal (a
  /// drop below multiplicity zero) is skipped by the batch, so the count
  /// catches it in every build type.
  void flush_edge_drops();

  /// The base image's contents in file order, section by section, to
  /// to_base_image's collector or stream_base_image's encoder.
  template <typename Out>
  void emit_base(Out& out) const;

  /// Tell the delta recorder (if any) that edge (u, v)'s multiplicity is
  /// about to change. Called from both multiplicity funnels, which only
  /// ever run single-threaded (insert_node, the region-id-ordered
  /// stitches) — never from break_region or merge_region, which only
  /// record.
  void note_image_touch(NodeId u, NodeId v) {
    if (recorder_ != nullptr) recorder_->on_image_touch(u, v);
  }

  /// The read-only twin of the commit walk: append the break-phase event
  /// script of the RT rooted at `root` to `out`. Iterative worklist over
  /// the dirty region only; `dirty` holds the dead vnodes and all their
  /// ancestors, so a node is clean (subtree free of dead vnodes) iff it is
  /// not in `dirty`. The break replays the recorded events in the same
  /// order.
  void collect_events(VNodeId root, const DeletionAnalysis& analysis,
                      RegionPlan* out) const;

  Graph gprime_;
  Graph g_;
  VirtualForest forest_;
  /// Per-processor slot tables (Table 1): pooled sorted flat arrays keyed
  /// by the far endpoint — see slot_table.h for the storage model and the
  /// concurrency contract the parallel commit relies on.
  SlotTable slots_;
  /// Excess multiplicity (count - 1) of the image edges whose multiplicity
  /// is >= 2; an edge of multiplicity 1 lives in g_ alone. Flat open
  /// addressing, about a seventh of the image edges on churn.
  util::FlatCountMap image_excess_;
  /// Reusable buffer for the batched break drops (a region's queued edge
  /// removals, handed whole to Graph::apply_edge_deltas). Pooled wave to
  /// wave.
  std::vector<EdgeDelta> delta_scratch_;
  RepairStats last_repair_;
  uint64_t epoch_ = 0;  ///< See mutation_epoch().
  DeltaRecorder* recorder_ = nullptr;  ///< See set_delta_recorder().
};

}  // namespace fg::core
