// Common interface for self-healing strategies.
//
// A Healer owns two graphs: the actual healed network G, and the
// insertions-only reference graph G' against which the paper's success
// metrics (degree increase, stretch) are defined. The experiment harness
// drives healers through adversarial insert/delete schedules and samples the
// metrics from these two graphs.
//
// Contract every implementation maintains (relied on by harness/ and the
// baseline comparison benches):
//   C1. G' only ever gains nodes and edges; deletions never touch it.
//   C2. The alive sets of G and G' agree: a processor is alive in G iff it
//       has not been removed, and node ids are allocated identically, so
//       per-node metrics can be joined across the two graphs.
//   C3. insert() attaches the new processor to exactly the given neighbors
//       in both graphs; remove() deletes the node from G and then applies
//       the strategy's repair to G alone.
//   C4. Healers are deterministic given the schedule — the trace module can
//       replay any run bit-identically for bisection. The Forgiving Graph's
//       worker counts are explicitly *not* part of the schedule:
//       sharded-concurrent planning (set_shard_workers) and the
//       reservation-backed parallel break and merge (set_break_workers,
//       set_commit_workers) must replay byte-identical to a single-threaded
//       engine — the schedule-independent commit property
//       (docs/CONCURRENCY.md, pinned by tests/shard_determinism_test.cpp,
//       break_pool_test.cpp and arena_reservation_test.cpp).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "fg/forgiving_graph.h"
#include "graph/graph.h"

namespace fg {

/// Abstract self-healing network.
class Healer {
 public:
  virtual ~Healer() = default;

  /// Adversarial insertion; returns the new processor id.
  virtual NodeId insert(std::span<const NodeId> neighbors) = 0;

  /// Adversarial deletion followed by this strategy's repair.
  virtual void remove(NodeId v) = 0;

  /// Batched adversarial deletion: all victims (alive, distinct) fail
  /// simultaneously, healed in one repair round. The default falls back to
  /// sequential removals; healers with a native batch path (the Forgiving
  /// Graph's per-region merged plans) override it.
  virtual void remove_batch(std::span<const NodeId> victims) {
    for (NodeId v : victims) remove(v);
  }

  /// The actual healed network G.
  virtual const Graph& healed() const = 0;

  /// The insertions-only graph G'.
  virtual const Graph& gprime() const = 0;

  virtual std::string name() const = 0;

  /// Introspection hook for omniscient adversaries that target the Forgiving
  /// Graph's internal helper assignment; null for baselines.
  virtual const ForgivingGraph* forgiving() const { return nullptr; }
};

/// Wraps the Forgiving Graph engine in the Healer interface.
class ForgivingGraphHealer final : public Healer {
 public:
  explicit ForgivingGraphHealer(const Graph& g0) : engine_(g0) {}

  NodeId insert(std::span<const NodeId> neighbors) override {
    return engine_.insert(neighbors);
  }
  void remove(NodeId v) override { engine_.remove(v); }
  void remove_batch(std::span<const NodeId> victims) override {
    engine_.delete_batch(victims);
  }
  const Graph& healed() const override { return engine_.healed(); }
  const Graph& gprime() const override { return engine_.gprime(); }
  std::string name() const override { return "ForgivingGraph"; }
  const ForgivingGraph* forgiving() const override { return &engine_; }

  ForgivingGraph& engine() { return engine_; }

 private:
  ForgivingGraph engine_;
};

/// Base for edge-rewiring baselines: maintains G and G' and delegates the
/// post-deletion rewiring of the deleted node's neighborhood.
class BaselineHealer : public Healer {
 public:
  explicit BaselineHealer(const Graph& g0) : gprime_(g0), g_(g0) {}

  NodeId insert(std::span<const NodeId> neighbors) override;
  void remove(NodeId v) override;
  const Graph& healed() const override { return g_; }
  const Graph& gprime() const override { return gprime_; }

 protected:
  /// Reconnect `neighbors` (the alive ex-neighbors of the deleted node, in
  /// increasing id order) by adding edges to g().
  virtual void heal_after(NodeId deleted, const std::vector<NodeId>& neighbors) = 0;

  Graph& g() { return g_; }

 private:
  Graph gprime_;
  Graph g_;
};

/// Factory by name: "forgiving", "forgiving-tree", "none", "line", "star",
/// "binary-tree", "kary:<k>" (k >= 2). Returns nullptr for an unknown name
/// or a bad parameter, never aborts.
std::unique_ptr<Healer> make_healer(const std::string& name, const Graph& g0);

}  // namespace fg
