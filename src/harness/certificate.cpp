#include "harness/certificate.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "util/check.h"
#include "util/radix_sort.h"

namespace fg::harness {

void CertificateWriter::on_certificate(const cert::WaveCertificate& c) {
  c.save(*os_, include_cost_);
}

void CertificateBuilder::begin_wave(const core::StructuralCore& core,
                                    const core::RepairPlan& plan) {
  // The affected set: the only processors whose deg_G the commit can change
  // are the anchor owners (they lose the edge to the victim and gain their
  // fresh leaf's tree edges) and the owners of vnodes inside the affected
  // RT subtrees (their virtual edges are torn down and re-merged). Snapshot
  // deg_G for all of them before the commit mutates the image: mark each in
  // a flat array over processor ids, then read the marks back in id order.
  const Graph& g = core.image();
  const VirtualForest& forest = core.forest();
  std::vector<uint8_t> affected(static_cast<size_t>(g.node_capacity()), 0);
  for (NodeId v : plan.victims) affected[static_cast<size_t>(v)] = 1;
  std::vector<VNodeId> stack;
  for (const core::RegionPlan& region : plan.regions) {
    for (const core::RegionPlan::FreshLeaf& fl : region.fresh)
      affected[static_cast<size_t>(fl.owner)] = 1;
    for (VNodeId root : region.roots) {
      stack.assign(1, root);
      while (!stack.empty()) {
        const VirtualForest::VNode& n = forest.node(stack.back());
        stack.pop_back();
        affected[static_cast<size_t>(n.owner)] = 1;
        if (n.left != kNoVNode) stack.push_back(n.left);
        if (n.right != kNoVNode) stack.push_back(n.right);
      }
    }
  }
  degree_before_.clear();
  for (NodeId v = 0; v < g.node_capacity(); ++v)
    if (affected[static_cast<size_t>(v)]) degree_before_.emplace_back(v, g.degree(v));
}

cert::WaveCertificate CertificateBuilder::end_wave(
    const core::StructuralCore& core, const core::RepairPlan& plan, long wave,
    std::span<const VNodeId> region_roots, const cert::CostClaim* cost) const {
  FG_CHECK(region_roots.size() == plan.regions.size());
  const Graph& g = core.image();
  const Graph& gp = core.gprime();
  const VirtualForest& forest = core.forest();

  cert::WaveCertificate c;
  c.wave = wave;
  c.net_nodes = gp.node_capacity();
  c.alive_after = g.alive_count();
  c.degree_constant = cert::kDegreeConstant;
  c.stretch_bound = std::max(1, cert::ceil_log2(std::max(1, c.net_nodes)));
  c.victims = plan.victims;
  c.assign = plan.victim_region;

  // Region witnesses: each final RT in preorder, handles normalized to
  // local indices — only the tree shape survives, so the witness never
  // depends on where in the arena the rows live.
  // One explicit-stack walk numbers each node by its preorder position; a
  // child carries its parent's local index and fills in the parent's
  // left/right link, so no handle-to-index map is needed.
  struct Pending {
    VNodeId h;
    int parent;
    bool is_right;
  };
  std::vector<Pending> stack;
  std::vector<uint64_t> keys, scratch;
  for (size_t r = 0; r < plan.regions.size(); ++r) {
    const core::RegionPlan& region = plan.regions[r];
    cert::RegionCert rc;
    rc.id = region.id;
    rc.victims = region.victims;
    for (const core::RegionPlan::FreshLeaf& fl : region.fresh)
      rc.anchors.emplace_back(fl.owner, fl.dead);
    if (region_roots[r] != kNoVNode) {
      stack.assign(1, Pending{region_roots[r], -1, false});
      while (!stack.empty()) {
        const Pending p = stack.back();
        stack.pop_back();
        const int i = static_cast<int>(rc.nodes.size());
        const VirtualForest::VNode& n = forest.node(p.h);
        rc.nodes.push_back(cert::RtNode{n.owner, n.other, n.is_leaf, p.parent, -1, -1});
        if (p.parent >= 0) {
          cert::RtNode& up = rc.nodes[static_cast<size_t>(p.parent)];
          (p.is_right ? up.right : up.left) = i;
          if (n.owner != up.owner)
            keys.push_back(util::pair_key(std::min(n.owner, up.owner),
                                          std::max(n.owner, up.owner)));
        }
        if (n.right != kNoVNode) stack.push_back(Pending{n.right, i, true});
        if (n.left != kNoVNode) stack.push_back(Pending{n.left, i, false});
      }
      util::radix_sort(&keys, &scratch, /*drop_repeats=*/true);
      rc.image_edges.reserve(keys.size());
      for (uint64_t key : keys) rc.image_edges.push_back(util::key_pair(key));
      keys.clear();
    }
    c.regions.push_back(std::move(rc));
  }

  // Degree claims for the surviving affected set, sorted by node id.
  for (const auto& [v, deg0] : degree_before_) {
    if (!g.is_alive(v)) continue;  // victims carry no survivor claim
    c.degrees.push_back(cert::DegreeClaim{v, gp.degree(v), deg0, g.degree(v)});
  }

  // Stretch witnesses: a deterministic stride over the sorted alive nodes
  // picks the sources; each source pairs with its G'-farthest alive node
  // (smallest id on ties) and witnesses the healed-graph BFS path.
  std::vector<NodeId> alive = g.alive_nodes();
  std::vector<NodeId> sources;
  if (alive.size() >= 2) {
    const size_t stride = std::max<size_t>(1, alive.size() / kStretchSamples);
    for (size_t i = 0; i < alive.size() && sources.size() < kStretchSamples; i += stride)
      sources.push_back(alive[i]);
  }
  const size_t cap = static_cast<size_t>(std::max(g.node_capacity(), gp.node_capacity()));

  // Every source's G' distances in one multi-source pass: bit s of seen[v]
  // is set once source s reached v, and a level lists each node it reached
  // once, with the sources that reached it at exactly that distance.
  // Distances do not depend on visit order, so the farthest nodes are the
  // ones a BFS per source finds.
  static_assert(kStretchSamples <= 8, "one seen bit per source in a byte");
  std::vector<NodeId> far(sources.size(), kInvalidNode);
  std::vector<int> far_dist(sources.size(), 0);
  {
    std::vector<uint8_t> seen(cap, 0), fresh(cap, 0);
    std::vector<std::pair<NodeId, uint8_t>> level;
    std::vector<NodeId> next;
    for (size_t s = 0; s < sources.size(); ++s) {
      seen[static_cast<size_t>(sources[s])] = static_cast<uint8_t>(1u << s);
      level.emplace_back(sources[s], static_cast<uint8_t>(1u << s));
    }
    for (int d = 1; !level.empty(); ++d) {
      next.clear();
      for (const auto& [v, from] : level)
        for (NodeId w : gp.neighbors(v)) {
          const uint8_t add = from & ~seen[static_cast<size_t>(w)];
          if (add == 0) continue;
          if (fresh[static_cast<size_t>(w)] == 0) next.push_back(w);
          fresh[static_cast<size_t>(w)] |= add;
          seen[static_cast<size_t>(w)] |= add;
        }
      level.clear();
      for (NodeId w : next) {
        const uint8_t from = std::exchange(fresh[static_cast<size_t>(w)], uint8_t{0});
        level.emplace_back(w, from);
        if (!g.is_alive(w)) continue;
        for (size_t s = 0; s < sources.size(); ++s)
          if ((from >> s & 1u) != 0 && (d > far_dist[s] || w < far[s])) {
            far[s] = w;
            far_dist[s] = d;
          }
      }
    }
  }

  // Each witness path: a G-side BFS with first-discovery parents that stops
  // once y is discovered. The neighbor views are sorted, so the parents on
  // y's path — already final then — are a pure function of the topology.
  // The passes share one mark array, one parent array and one FIFO, and
  // each clears only the marks it set.
  std::vector<uint8_t> reached(cap, 0);
  std::vector<NodeId> parent(cap, kInvalidNode);
  std::vector<NodeId> fifo;
  for (size_t s = 0; s < sources.size(); ++s) {
    const NodeId x = sources[s];
    const NodeId y = far[s];
    if (y == kInvalidNode) continue;
    fifo.assign(1, x);
    reached[static_cast<size_t>(x)] = 1;
    bool found = false;
    for (size_t head = 0; head < fifo.size() && !found; ++head) {
      const NodeId u = fifo[head];
      for (NodeId w : g.neighbors(u)) {
        if (reached[static_cast<size_t>(w)]) continue;
        reached[static_cast<size_t>(w)] = 1;
        parent[static_cast<size_t>(w)] = u;
        fifo.push_back(w);
        if (w == y) {
          found = true;
          break;
        }
      }
    }
    for (NodeId v : fifo) reached[static_cast<size_t>(v)] = 0;
    if (!found) continue;
    cert::StretchWitness w;
    w.x = x;
    w.y = y;
    w.dist_gprime = far_dist[s];
    for (NodeId t = y;; t = parent[static_cast<size_t>(t)]) {
      w.path.push_back(t);
      if (t == x) break;
    }
    std::reverse(w.path.begin(), w.path.end());
    FG_CHECK(w.path.front() == x && w.path.back() == y);
    for (size_t h = 0; h + 1 < w.path.size(); ++h)
      keys.push_back(util::pair_key(std::min(w.path[h], w.path[h + 1]),
                                    std::max(w.path[h], w.path[h + 1])));
    c.stretch.push_back(std::move(w));
  }

  // One edge fact per distinct hop, in (u, v) order. A hop of this wave's
  // RT image credits the first region in id order holding it.
  util::radix_sort(&keys, &scratch, /*drop_repeats=*/true);
  for (uint64_t key : keys) {
    const auto [u, v] = util::key_pair(key);
    cert::EdgeFact f;
    f.u = u;
    f.v = v;
    f.kind = cert::EdgeFact::Kind::kRtPrior;
    if (gp.has_edge(u, v)) {
      f.kind = cert::EdgeFact::Kind::kGPrime;
    } else {
      for (const cert::RegionCert& rc : c.regions)
        if (std::binary_search(rc.image_edges.begin(), rc.image_edges.end(),
                               std::make_pair(u, v))) {
          f.kind = cert::EdgeFact::Kind::kRtWave;
          f.region = rc.id;
          break;
        }
    }
    c.facts.push_back(f);
  }

  if (cost != nullptr && cost->present) c.cost = *cost;
  return c;
}

}  // namespace fg::harness
