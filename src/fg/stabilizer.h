// Self-stabilizing recovery mode (docs/SELF_STABILIZATION.md).
//
// The paper's Forgiving Graph tolerates exactly its stated fault model:
// adversarial insertions and deletions, applied through the engine. This
// subsystem extends the fault model in the self-stabilization tradition
// (Devismes-Masuzawa-Tixeuil, PAPERS.md): starting from an *arbitrarily
// corrupted* structural state — flipped slot entries, severed or cyclic RT
// rows, desynced image edges — recover a configuration satisfying the
// legal-state invariants I1-I5 (core::StructuralCore) again.
//
// Ground truth vs derived state. G' (the insertions-only graph) and the
// liveness bits are ground truth: the adversary corrupts *state the healing
// layer derives* — the virtual forest, the slot tables, the healed image and
// its excess table. Recovery therefore never guesses: it audits every
// derived structure against G' + liveness, quarantines whatever is
// inconsistent, keeps every RT component that still checks out whole, and
// rebuilds the rest through the ordinary plan/commit pipeline
// (ShardedForest::execute), so recovery is parallel, deterministic
// (contract C4: byte-identical checkpoints and certificate bytes at any
// worker count), and certifiable like any other wave.
//
// The audit checks, per rule (the docs table mirrors this list):
//   * row sanity      — owner alive, slot key a dead G' edge, link symmetry,
//                       exact height/leaf_count aggregates, haft property;
//   * slot soundness  — every slot backed by matching forest rows and vice
//                       versa, helpers ancestors of their real nodes (I4),
//                       representatives the unique helper-free leaf (I3);
//   * completeness    — every dead G' edge of an alive processor has an
//                       anchor slot (I1), and all anchors of one
//                       G'-connected dead cluster live in a single RT (the
//                       co-location law — legal executions maintain it, and
//                       losing it can disconnect G even when I1-I5 pass);
//   * image fidelity  — healed image and multiplicities (G's presence plus
//                       the excess) equal the rebuild from alive-alive G'
//                       edges plus RT parent links (I5).
//
// Every traversal is cycle-safe and step-capped: arbitrary corruption yields
// a typed AuditReport, never an FG_CHECK abort.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fg/forgiving_graph.h"
#include "graph/graph.h"

namespace fg {

/// Classification of one audit finding. The first group condemns the forest
/// component it implicates; the completeness group marks dead processors
/// whose anchors must be rebuilt; the image group triggers the derived-state
/// rebuild only.
enum class ViolationKind {
  kRowLink = 0,        ///< Asymmetric/dangling/cyclic links, wrong arity.
  kRowAggregate,       ///< height/leaf_count/rep bookkeeping or haft property.
  kRowOwnership,       ///< Owner dead, or slot key not a dead G' edge.
  kRowSlotBacking,     ///< Row not registered in its owner's slot table.
  kRepInvariant,       ///< I3: rep is not the unique helper-free leaf.
  kHelperAncestry,     ///< I4: helper is not an ancestor of its real node.
  kSlotGhost,          ///< Slot field pointing at a missing/mismatched row.
  kSlotEdge,           ///< Slot keyed by a live edge, or owned by the dead.
  kMissingAnchor,      ///< I1: dead G' edge with no anchor slot.
  kSplitDeadCluster,   ///< Co-location law: one dead cluster, several RTs.
  kImageDrift,         ///< I5: healed image diverges from the rebuild.
  kMultiplicityDrift,  ///< Presence + excess diverges from the recount.
};
inline constexpr int kViolationKinds = 12;

/// Short stable name for a kind ("row-link", "slot-ghost", ...).
const char* violation_kind_name(ViolationKind k);

/// One audit finding: the kind, the implicated forest row and/or processor
/// pair (kNoVNode / kInvalidNode when not applicable), and a fixed
/// description string.
struct AuditViolation {
  ViolationKind kind = ViolationKind::kRowLink;
  VNodeId h = kNoVNode;
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  std::string detail;
};

/// The audit's typed result: per-kind counts plus the first kMaxDetails
/// findings in deterministic scan order.
struct AuditReport {
  static constexpr int kMaxDetails = 256;
  std::vector<AuditViolation> violations;
  int64_t counts[kViolationKinds] = {};
  int64_t total = 0;

  bool clean() const { return total == 0; }
  int64_t count(ViolationKind k) const {
    return counts[static_cast<size_t>(k)];
  }
  /// "clean" or "<total> violations: row-link=2 slot-ghost=1 ...".
  std::string summary() const;
};

/// Counters describing one stabilize() pass.
struct RecoveryStats {
  bool recovered = false;  ///< False: the audit was clean, nothing ran.
  int condemned_components = 0;  ///< Forest components quarantined.
  int condemned_rows = 0;        ///< Live rows tombstoned by the quarantine.
  int kept_components = 0;       ///< Intact components carried over whole.
  int regions = 0;               ///< Recovery regions (one RT each).
  int victims = 0;               ///< Dead processors whose anchors rebuilt.
  int anchors = 0;               ///< Fresh anchor leaves spawned.
  AuditReport report;            ///< The audit that triggered the pass.
};

/// Audit `core` against I1-I5 plus the co-location law, returning a typed
/// report. Read-only, abort-free on arbitrarily corrupted derived state.
AuditReport audit(const core::StructuralCore& core);

/// The recovery mode over a centralized engine. stabilize() audits; on any
/// violation it quarantines every inconsistent forest component (closing
/// over dead-cluster adjacency so no cluster is ever rebuilt piecemeal),
/// rebuilds the derived state from ground truth, then plans one recovery
/// wave through ShardedForest::plan — per dead-adjacency region, exactly
/// the missing anchors; possibly no region at all — and commits it through
/// the ordinary pipeline, emitting a certificate through the engine's sink
/// like any deletion wave. Audit-after-stabilize is a fixed point: the
/// second pass reports clean.
class Stabilizer {
 public:
  explicit Stabilizer(ForgivingGraph& fg) : fg_(fg) {}

  /// Audit only (read-only).
  AuditReport audit() const { return fg::audit(fg_.core()); }

  /// Audit, and on violations quarantine + rebuild + commit one recovery
  /// wave. Returns what happened; recovered == false means the audit was
  /// clean and the engine was not touched.
  RecoveryStats stabilize();

 private:
  ForgivingGraph& fg_;
};

}  // namespace fg
