// Distributed Forgiving Graph protocol (Sections 3-5, Lemma 4).
//
// The same self-healing algorithm as fg::ForgivingGraph — literally: both
// engines plan and commit every wave through fg::ShardedForest over the
// single structural mutation path in core::StructuralCore. This class adds
// the protocol layer on top: every repair reads a dependency DAG of
// messages off the immutable plan (the processors' shared repair recipe)
// and replays it over the round-synchronous simulator in net::Network with
// the paper's cost metrics measured per repair: messages, words, rounds,
// largest message, and per-node traffic.
//
// Model assumptions (the paper's, Figure 1):
//   * When processor v is deleted, every processor owning a virtual node in
//     an RT touched by the deletion learns of it in the detection round
//     (processors replicate, per incident edge slot, the Table-1 metadata of
//     the far endpoint — a node's "will" in the self-healing literature).
//     A batched deletion (delete_batch) models simultaneous failures: one
//     detection round covers all victims.
//   * Messages are delivered reliably but, under a non-default
//     net::DeliveryPolicy, with arbitrary per-message delay and order. The
//     protocol must tolerate this; only `rounds` may change.
//
// A batched deletion splits into its connected dirty regions (the plan
// phase of the shared core); each region repairs through an *independent
// branch* of the message DAG — its own coordinator, report wave, merge —
// so the measured `rounds` is the maximum over regions, not their sum:
// Lemma-4 round counting reflects the true parallelism of disjoint waves.
// Per region, the repair pipeline for deleted degree d is:
//   1. Teardown   — owners of dead and red virtual nodes notify their tree
//                   neighbors; maximal clean perfect subtrees ("pieces")
//                   detach. O(d log n) messages of O(1) words.
//   2. Report     — every participant (anchor or piece owner) reports its
//                   piece list to the region coordinator (least-id
//                   participant).
//   3. Merge      — mode-dependent, see MergeMode below.
//   4. Execute    — each helper's owner (the representative of the join's
//                   left subtree, Algorithm A.9) links the join's children.
//
// Two merge modes:
//   * kGlobalPlan: the region coordinator computes the full deterministic
//     ComputeHaft plan (haft::merge_plan) and broadcasts it down a binary
//     tree over the region's participants. Every helper owner then acts in
//     parallel, giving O(log d + log n) rounds — within the paper's
//     O(log d log n) budget — at the price of O(pieces)-word plan messages.
//     Because the plan is exactly the one the centralized engine executes —
//     committed by the same ShardedForest::execute inside the same arena
//     reservation — the healed topology and the base-image bytes are
//     identical to fg::ForgivingGraph under every adversarial schedule and
//     every delivery policy.
//   * kStageWise: the paper-faithful BottomupRTMerge. Piece lists climb the
//     region's participant tree; at each stage equal-sized trees are joined
//     immediately (haft::carry_plan), so every list in flight has pairwise
//     distinct sizes and every message stays at O(log n) words. The final
//     association may differ from the centralized engine's, but the result
//     is the same leaf set in a valid haft, so all Theorem-1 bounds hold.
//     Its joins are numbered like a merge plan and written into the
//     region's steps before the commit replays them in the region's
//     reserved range: a region makes k - 1 joins for k pieces whatever the
//     association.
//
// validate() checks invariants I1-I5 through the shared core.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/sharded_forest.h"
#include "fg/virtual_forest.h"
#include "graph/graph.h"
#include "haft/haft.h"
#include "net/network.h"

namespace fg::harness {
class CertificateSink;
}

namespace fg::dist {

/// How the pieces of broken RTs are reassembled after a deletion.
enum class MergeMode {
  kGlobalPlan,  ///< Coordinator broadcasts the full ComputeHaft plan.
  kStageWise,   ///< BottomupRTMerge: carry-merge at every aggregation stage.
};

/// Cost sheet of the most recent repair (the quantities Lemma 4 bounds).
/// For a batched repair, `deleted_degree` sums over the victims and
/// `rounds` is the max over the regions' independent DAG branches.
struct RepairCost {
  int deleted_degree = 0;  ///< G' degree of the victim(s).
  int anchors = 0;         ///< Alive direct G'-neighbors of the victim(s).
  int pieces = 0;          ///< Perfect trees merged (incl. fresh leaves).
  int regions = 0;         ///< Independent DAG branches (dirty regions).
  int bt_edges = 0;        ///< Edges of the participant aggregation trees.
  int64_t messages = 0;    ///< Messages sent during the repair.
  int64_t words = 0;       ///< Total payload words sent.
  int rounds = 0;          ///< Rounds to quiescence.
  int max_message_words = 0;        ///< Largest single message.
  int64_t max_node_messages = 0;    ///< Most messages sent by one processor.
  int64_t max_node_round_words = 0; ///< Paper metric 3: words/node/round.
};

/// Traffic accumulated over the object's lifetime (all inserts + repairs).
struct LifetimeStats {
  int64_t messages = 0;
  int64_t words = 0;
  int64_t rounds = 0;
};

/// The Forgiving Graph as a distributed protocol over net::Network.
class DistForgivingGraph {
 public:
  /// Start from a connected network G0; ids 0..n-1 become live processors.
  explicit DistForgivingGraph(const Graph& g0,
                              MergeMode mode = MergeMode::kGlobalPlan);

  /// Adversarial insertion: the new processor introduces itself to each
  /// neighbor (one message per new edge). Returns the new processor id.
  NodeId insert(std::span<const NodeId> neighbors);

  /// Adversarial deletion of `v` followed by the distributed repair.
  void remove(NodeId v) { delete_batch({&v, 1}); }

  /// Batched adversarial deletion: all of `victims` fail simultaneously;
  /// one detection round, one repair DAG with an independent branch per
  /// connected dirty region. Structural semantics match
  /// ForgivingGraph::delete_batch bit-for-bit in kGlobalPlan mode.
  void delete_batch(std::span<const NodeId> victims);

  /// The healed network G (homomorphic image of G' + virtual forest).
  const Graph& image() const { return core_.image(); }

  /// The insertions-only graph G' (deleted processors still present).
  const Graph& gprime() const { return core_.gprime(); }

  bool is_alive(NodeId v) const { return core_.is_alive(v); }

  const RepairCost& last_repair_cost() const { return last_cost_; }
  const LifetimeStats& lifetime_stats() const { return lifetime_; }

  /// The underlying simulator (stats access; resettable between phases).
  net::Network& network() { return net_; }

  /// Install a delivery policy (asynchrony knobs). Structure is unaffected;
  /// only `rounds` may change.
  void set_delivery_policy(const net::DeliveryPolicy& policy) {
    net_.set_policy(policy);
  }

  /// Per-region healing (default) vs the pre-sharding single wave-wide RT;
  /// mirrors ForgivingGraph::set_region_split so the engines stay
  /// comparable in either mode.
  void set_region_split(core::RegionSplit split) { split_ = split; }
  core::RegionSplit region_split() const { return split_; }

  const VirtualForest& forest() const { return core_.forest(); }
  MergeMode mode() const { return mode_; }

  /// Install a certificate sink: every subsequent delete_batch emits a
  /// per-wave cert::WaveCertificate carrying this engine's Lemma-4 cost
  /// claim (harness/certificate.h; docs/CERTIFICATES.md). nullptr disables.
  /// In kGlobalPlan mode the structural bytes match the centralized
  /// engine's certificates exactly (contract C4 extension).
  void set_certificate_sink(harness::CertificateSink* sink) { cert_sink_ = sink; }
  harness::CertificateSink* certificate_sink() const { return cert_sink_; }

  /// Full invariant check I1-I5 through the shared core (expensive).
  void validate() const { core_.validate(); }

  /// The structural core, read-only — the fg::Stabilizer audit surface and
  /// the checkpoint seam (core().to_base_image()) the fault tests hand to
  /// the centralized engine for recovery experiments.
  const core::StructuralCore& core() const { return core_; }

 private:
  /// One protocol message in the repair's dependency DAG. A message is sent
  /// once every message it depends on has been delivered; messages with
  /// from == to are local computation and bypass the network (uncounted,
  /// instantaneous), exactly like the homomorphism collapses same-processor
  /// virtual edges.
  struct DagMsg {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    int words = 1;
    std::vector<int> deps;
  };

  /// A piece (perfect subtree) awaiting merge, described by plan data
  /// alone: its number in the region's haft::MergeStep numbering, its
  /// merge-plan input, the processor owning its root, and the DAG event
  /// that detached it (-1 if it was never attached: a fresh anchor leaf or
  /// a join's result). The message DAG is built from these before the
  /// commit touches the forest.
  struct Piece {
    int index = -1;
    haft::PieceInfo info;
    NodeId owner = kInvalidNode;
    int detach_msg = -1;

    /// The owner of the piece's representative leaf — the owner half of
    /// its slot key — which simulates the helper of a join that takes this
    /// piece as its left child (Algorithm A.9).
    NodeId rep_owner() const { return slot_owner(info.key); }

    /// The piece a join of `left` and `right` makes, numbered `index`: the
    /// leaf counts add, the right piece's representative (and so its key)
    /// carries up, and the helper simulated by left's representative owns
    /// the new root.
    static Piece join(const Piece& left, const Piece& right, int index) {
      return Piece{index,
                   {left.info.leaf_count + right.info.leaf_count, right.info.key},
                   left.rep_owner(),
                   -1};
    }
  };

  /// The DAG branch of one region's merge: its coordinator, the report
  /// messages the coordinator waits on, and the plan-knowledge event per
  /// participating processor. A processor appearing in several regions
  /// holds independent knowledge per region — the branches never share
  /// dependencies, which is what makes the measured rounds the max, not
  /// the sum, over regions.
  struct RegionDag {
    NodeId coordinator = kInvalidNode;
    std::vector<int> report_msgs;
    /// Plan-knowledge event per participating processor: sorted flat pairs
    /// keyed by processor id, binary-searched — no hash container anywhere
    /// on the repair path (PR 5 idiom).
    std::vector<std::pair<NodeId, int>> know;
  };

  // --- DAG construction helpers (see dist_forgiving_graph.cpp).
  int add_msg(NodeId from, NodeId to, int words, std::vector<int> deps);
  bool is_deleting(NodeId v) const;
  std::vector<int> know_deps(const RegionDag& dag, NodeId u) const;
  /// The kGlobalPlan messages of one region's merge over region.steps.
  void merge_global(const core::RegionPlan& region, std::vector<Piece> pieces,
                    const std::vector<NodeId>& participants);
  /// The kStageWise messages of one region's merge; returns the joins in
  /// execution order, numbered like haft::merge_plan's steps, for the
  /// commit to replay.
  std::vector<haft::MergeStep> merge_stage_wise(std::vector<Piece> pieces,
                                                const std::vector<NodeId>& participants);
  void run_dag();
  void dispatch_msg(int i);
  void on_delivered(int i);

  MergeMode mode_ = MergeMode::kGlobalPlan;
  core::RegionSplit split_ = core::RegionSplit::kPerRegion;
  core::StructuralCore core_;
  /// Plans and commits every wave at one worker (no pool, no setter).
  ShardedForest shards_;

  net::Network net_;
  RepairCost last_cost_;
  LifetimeStats lifetime_;
  harness::CertificateSink* cert_sink_ = nullptr;
  long certified_waves_ = 0;  ///< Wave index of the next certificate.

  // Per-repair DAG state.
  std::vector<DagMsg> msgs_;
  std::vector<int> unmet_;
  std::vector<std::vector<int>> dependents_;
  /// Victims of the repair in flight: sorted per batch, binary-searched.
  std::vector<NodeId> deleting_;
};

}  // namespace fg::dist
