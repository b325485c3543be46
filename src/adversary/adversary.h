// Adversary strategies (Section 2 model).
//
// The adversary is omniscient: it sees the healed topology G, the reference
// graph G', and — for the Forgiving Graph — the internal helper assignment.
// In each step it either deletes an arbitrary alive node or inserts a new
// node with arbitrary connections to alive nodes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "heal/healer.h"
#include "util/rng.h"

namespace fg {

/// One adversarial step.
struct Action {
  enum class Kind { kInsert, kDelete, kBatchDelete };
  Kind kind = Kind::kDelete;
  NodeId target = kInvalidNode;    ///< For single deletions.
  std::vector<NodeId> neighbors;   ///< For insertions.
  std::vector<NodeId> targets;     ///< For batched deletions (distinct, alive).
  /// Optional region assignment of a batched deletion, aligned with
  /// `targets`: the dirty-region id the sharded repair gave each victim.
  /// Recorded by record_run against a Forgiving Graph healer (trace `r`
  /// lines); replay re-derives the assignment and checks it matches, so a
  /// divergence bisects to one region instead of a whole wave.
  std::vector<int> regions;
};

/// Strategy interface: decide the next attack given full knowledge.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Next action, or nullopt when the attack schedule is over.
  virtual std::optional<Action> next(const Healer& h, Rng& rng) = 0;

  virtual std::string name() const = 0;
};

/// Deletes a uniformly random alive node while more than `floor` remain.
class RandomDeleteAdversary final : public Adversary {
 public:
  explicit RandomDeleteAdversary(int floor = 2) : floor_(floor) {}
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "random-delete"; }

 private:
  int floor_;
};

/// Always deletes an alive node of maximum degree in G (hub attack).
class MaxDegreeDeleteAdversary final : public Adversary {
 public:
  explicit MaxDegreeDeleteAdversary(int floor = 2) : floor_(floor) {}
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "maxdeg-delete"; }

 private:
  int floor_;
};

/// Deletes the processor currently simulating the most helper nodes —
/// exercising omniscience against the Forgiving Graph's internal state.
/// Falls back to max degree for healers without helper introspection.
class HelperLoadAdversary final : public Adversary {
 public:
  explicit HelperLoadAdversary(int floor = 2) : floor_(floor) {}
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "helper-load"; }

 private:
  int floor_;
};

/// Mixed churn: with probability p_delete delete a random node, otherwise
/// insert a node wired to `degree` random alive nodes.
class ChurnAdversary final : public Adversary {
 public:
  ChurnAdversary(double p_delete, int degree, int floor = 4)
      : p_delete_(p_delete), degree_(degree), floor_(floor) {}
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "churn"; }

 private:
  double p_delete_;
  int degree_;
  int floor_;
};

/// Deletes a wave of `batch` uniformly random alive nodes per step, all
/// simultaneously — the correlated-failure model (rack loss, partition)
/// batched repairs exist for. Stops when ≤ floor + batch nodes remain.
class BatchDeleteAdversary final : public Adversary {
 public:
  explicit BatchDeleteAdversary(int batch, int floor = 2)
      : batch_(batch), floor_(floor) {}
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "batch-delete"; }

 private:
  int batch_;
  int floor_;
};

/// Deletes waves of up to `k` victims whose repairs are pairwise disjoint:
/// no two victims share a G' edge or an affected Reconstruction Tree, so
/// the wave decomposes into k independent dirty regions — the workload the
/// sharded plan/commit pipeline heals concurrently. Falls back to healed-
/// graph distance (> 2 hops) for healers without forest introspection.
/// Stops when ≤ floor + k nodes remain; waves may be shorter than k when
/// fewer disjoint victims exist.
class DisjointRegionsAdversary final : public Adversary {
 public:
  explicit DisjointRegionsAdversary(int k, int floor = 2)
      : k_(k), floor_(floor) {}
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "regions"; }

 private:
  int k_;
  int floor_;
};

/// Deletes a cut vertex of the healed network whenever one exists (the
/// deletion that would disconnect a non-self-healing network), falling back
/// to max degree: the omniscient adversary hunting for weak points.
class CutVertexAdversary final : public Adversary {
 public:
  explicit CutVertexAdversary(int floor = 2) : floor_(floor) {}
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "cut-vertex"; }

 private:
  int floor_;
};

/// Theorem 2 construction: delete the hub (node 0) of a star, then stop.
class StarAttackAdversary final : public Adversary {
 public:
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "star-attack"; }

 private:
  bool done_ = false;
};

/// Repeatedly inserts a hub wired to `fanout` random nodes, then deletes it:
/// a worst case for healers that cannot merge reconstruction structures.
class BuildAndBurnAdversary final : public Adversary {
 public:
  explicit BuildAndBurnAdversary(int fanout) : fanout_(fanout) {}
  std::optional<Action> next(const Healer& h, Rng& rng) override;
  std::string name() const override { return "build-and-burn"; }

 private:
  int fanout_;
  NodeId pending_ = kInvalidNode;
};

/// Factory: "random-delete", "cut-vertex", "maxdeg-delete", "helper-load",
/// "churn:<p>" (p in [0, 1]), "star-attack", "build-and-burn:<fanout>",
/// "batch:<k>", "regions:<k>" (counts >= 1). Returns nullptr for an unknown
/// name or a bad parameter, never aborts.
std::unique_ptr<Adversary> make_adversary(const std::string& name);

}  // namespace fg
