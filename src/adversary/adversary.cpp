#include "adversary/adversary.h"

#include <algorithm>
#include <charconv>
#include <unordered_set>

#include "graph/algorithms.h"
#include "util/check.h"

namespace fg {
namespace {

/// Uniformly random alive node.
NodeId random_alive(const Graph& g, Rng& rng) {
  auto alive = g.alive_nodes();
  FG_CHECK(!alive.empty());
  return rng.pick(alive);
}

/// Smallest-id node among those maximizing `score`.
template <typename Score>
NodeId argmax_alive(const Graph& g, Score&& score) {
  NodeId best = kInvalidNode;
  long best_score = -1;
  for (NodeId v : g.alive_nodes()) {
    long s = score(v);
    if (s > best_score) {
      best_score = s;
      best = v;
    }
  }
  FG_CHECK(best != kInvalidNode);
  return best;
}

/// True iff `name` is `prefix` followed by a suffix that parses whole as
/// a T into *value.
template <typename T>
bool parse_param(const std::string& name, const std::string& prefix, T* value) {
  if (name.rfind(prefix, 0) != 0) return false;
  const char* last = name.data() + name.size();
  auto [end, ec] = std::from_chars(name.data() + prefix.size(), last, *value);
  return ec == std::errc() && end == last;
}

}  // namespace

std::optional<Action> RandomDeleteAdversary::next(const Healer& h, Rng& rng) {
  if (h.healed().alive_count() <= floor_) return std::nullopt;
  return Action{Action::Kind::kDelete, random_alive(h.healed(), rng), {}, {}, {}};
}

std::optional<Action> MaxDegreeDeleteAdversary::next(const Healer& h, Rng&) {
  if (h.healed().alive_count() <= floor_) return std::nullopt;
  NodeId v = argmax_alive(h.healed(), [&](NodeId x) { return h.healed().degree(x); });
  return Action{Action::Kind::kDelete, v, {}, {}, {}};
}

std::optional<Action> HelperLoadAdversary::next(const Healer& h, Rng&) {
  if (h.healed().alive_count() <= floor_) return std::nullopt;
  const ForgivingGraph* engine = h.forgiving();
  NodeId v;
  if (engine != nullptr) {
    // Prefer the most helper-burdened processor; break ties by degree so the
    // attack stays aggressive before any helper exists.
    v = argmax_alive(h.healed(), [&](NodeId x) {
      return static_cast<long>(engine->helper_count(x)) * 100000 + h.healed().degree(x);
    });
  } else {
    v = argmax_alive(h.healed(), [&](NodeId x) { return h.healed().degree(x); });
  }
  return Action{Action::Kind::kDelete, v, {}, {}, {}};
}

std::optional<Action> ChurnAdversary::next(const Healer& h, Rng& rng) {
  bool del = h.healed().alive_count() > floor_ && rng.next_bool(p_delete_);
  if (del) return Action{Action::Kind::kDelete, random_alive(h.healed(), rng), {}, {}, {}};
  auto alive = h.healed().alive_nodes();
  int want = std::min<int>(degree_, static_cast<int>(alive.size()));
  rng.shuffle(alive);
  alive.resize(static_cast<size_t>(std::max(want, 1)));
  return Action{Action::Kind::kInsert, kInvalidNode, std::move(alive), {}, {}};
}

std::optional<Action> BatchDeleteAdversary::next(const Healer& h, Rng& rng) {
  if (h.healed().alive_count() <= floor_ + batch_) return std::nullopt;
  auto alive = h.healed().alive_nodes();
  rng.shuffle(alive);
  alive.resize(static_cast<size_t>(batch_));
  Action a;
  a.kind = Action::Kind::kBatchDelete;
  a.targets = std::move(alive);
  return a;
}

std::optional<Action> DisjointRegionsAdversary::next(const Healer& h, Rng& rng) {
  if (h.healed().alive_count() <= floor_ + k_) return std::nullopt;
  auto candidates = h.healed().alive_nodes();
  rng.shuffle(candidates);

  const ForgivingGraph* engine = h.forgiving();
  std::vector<NodeId> wave;
  std::unordered_set<VNodeId> used_roots;  // RTs claimed by accepted victims

  auto healed_far_apart = [&](NodeId u, NodeId v) {
    // Baseline fallback: closed neighborhoods in the healed graph must be
    // disjoint — no edge and no common neighbor (distance > 2).
    if (h.healed().has_edge(u, v)) return false;
    for (NodeId y : h.healed().neighbors(u))
      if (h.healed().has_edge(y, v)) return false;
    return true;
  };

  for (NodeId v : candidates) {
    if (static_cast<int>(wave.size()) == k_) break;
    bool ok = true;
    for (NodeId u : wave) {
      // A G' edge between two victims forces them into one repair region.
      if (h.gprime().has_edge(u, v) || (engine == nullptr && !healed_far_apart(u, v))) {
        ok = false;
        break;
      }
    }
    std::vector<VNodeId> roots;
    if (ok && engine != nullptr) {
      // So does a shared Reconstruction Tree.
      roots = engine->affected_roots(v);
      for (VNodeId r : roots) {
        if (used_roots.contains(r)) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) continue;
    used_roots.insert(roots.begin(), roots.end());
    wave.push_back(v);
  }
  if (wave.empty()) return std::nullopt;
  Action a;
  a.kind = Action::Kind::kBatchDelete;
  a.targets = std::move(wave);
  return a;
}

std::optional<Action> CutVertexAdversary::next(const Healer& h, Rng&) {
  if (h.healed().alive_count() <= floor_) return std::nullopt;
  const Graph& g = h.healed();
  int base_components = connected_components(g);
  // Omniscient search: smallest-id articulation point (brute force is fine
  // at experiment scales; deletions dominate the cost anyway).
  for (NodeId v : g.alive_nodes()) {
    if (g.degree(v) < 2) continue;
    Graph probe = g;
    probe.remove_node(v);
    if (connected_components(probe) > base_components)
      return Action{Action::Kind::kDelete, v, {}, {}, {}};
  }
  NodeId fallback = argmax_alive(g, [&](NodeId x) { return g.degree(x); });
  return Action{Action::Kind::kDelete, fallback, {}, {}, {}};
}

std::optional<Action> StarAttackAdversary::next(const Healer& h, Rng&) {
  if (done_ || !h.healed().is_alive(0)) return std::nullopt;
  done_ = true;
  return Action{Action::Kind::kDelete, 0, {}, {}, {}};
}

std::optional<Action> BuildAndBurnAdversary::next(const Healer& h, Rng& rng) {
  if (pending_ == kInvalidNode) {
    auto alive = h.healed().alive_nodes();
    int want = std::min<int>(fanout_, static_cast<int>(alive.size()));
    rng.shuffle(alive);
    alive.resize(static_cast<size_t>(std::max(want, 1)));
    // Remember which id the insertion will get: ids are consecutive.
    pending_ = static_cast<NodeId>(h.healed().node_capacity());
    return Action{Action::Kind::kInsert, kInvalidNode, std::move(alive), {}, {}};
  }
  Action a{Action::Kind::kDelete, pending_, {}, {}, {}};
  pending_ = kInvalidNode;
  return a;
}

std::unique_ptr<Adversary> make_adversary(const std::string& name) {
  if (name == "random-delete") return std::make_unique<RandomDeleteAdversary>();
  if (name == "cut-vertex") return std::make_unique<CutVertexAdversary>();
  if (name == "maxdeg-delete") return std::make_unique<MaxDegreeDeleteAdversary>();
  if (name == "helper-load") return std::make_unique<HelperLoadAdversary>();
  if (name == "star-attack") return std::make_unique<StarAttackAdversary>();
  double p = 0.0;
  if (parse_param(name, "churn:", &p) && p >= 0.0 && p <= 1.0)
    return std::make_unique<ChurnAdversary>(p, 3);
  int k = 0;
  if (parse_param(name, "build-and-burn:", &k) && k >= 1)
    return std::make_unique<BuildAndBurnAdversary>(k);
  if (parse_param(name, "batch:", &k) && k >= 1) return std::make_unique<BatchDeleteAdversary>(k);
  if (parse_param(name, "regions:", &k) && k >= 1)
    return std::make_unique<DisjointRegionsAdversary>(k);
  return nullptr;
}

}  // namespace fg
