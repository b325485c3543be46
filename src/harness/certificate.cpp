#include "harness/certificate.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "graph/algorithms.h"
#include "util/check.h"

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
  // deg_G for all of them before the commit mutates the image.
  const Graph& g = core.image();
  const VirtualForest& forest = core.forest();
  std::vector<NodeId> affected(plan.victims.begin(), plan.victims.end());
  std::vector<VNodeId> stack;
  for (const core::RegionPlan& region : plan.regions) {
    for (const core::RegionPlan::FreshLeaf& fl : region.fresh)
      affected.push_back(fl.owner);
    for (VNodeId root : region.roots) {
      stack.assign(1, root);
      while (!stack.empty()) {
        const VirtualForest::VNode& n = forest.node(stack.back());
        stack.pop_back();
        affected.push_back(n.owner);
        if (n.left != kNoVNode) stack.push_back(n.left);
        if (n.right != kNoVNode) stack.push_back(n.right);
      }
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
  degree_before_.clear();
  degree_before_.reserve(affected.size());
  for (NodeId v : affected) degree_before_.emplace_back(v, g.degree(v));
}

namespace {

/// BFS over the healed image with first-discovery parents. The neighbor
/// views are sorted, so discovery order — and hence the witness path — is a
/// pure function of the topology.
std::vector<NodeId> bfs_parents(const Graph& g, NodeId src) {
  std::vector<NodeId> parent(static_cast<size_t>(g.node_capacity()), kInvalidNode);
  std::vector<char> seen(static_cast<size_t>(g.node_capacity()), 0);
  std::vector<NodeId> frontier{src}, next;
  seen[static_cast<size_t>(src)] = 1;
  while (!frontier.empty()) {
    next.clear();
    for (NodeId u : frontier)
      for (NodeId w : g.neighbors(u)) {
        if (seen[static_cast<size_t>(w)]) continue;
        seen[static_cast<size_t>(w)] = 1;
        parent[static_cast<size_t>(w)] = u;
        next.push_back(w);
      }
    frontier.swap(next);
  }
  return parent;
}

}  // namespace

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
            rc.image_edges.emplace_back(std::min(n.owner, up.owner),
                                        std::max(n.owner, up.owner));
        }
        if (n.right != kNoVNode) stack.push_back(Pending{n.right, i, true});
        if (n.left != kNoVNode) stack.push_back(Pending{n.left, i, false});
      }
      std::sort(rc.image_edges.begin(), rc.image_edges.end());
      rc.image_edges.erase(std::unique(rc.image_edges.begin(), rc.image_edges.end()),
                           rc.image_edges.end());
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
  std::vector<std::pair<NodeId, NodeId>> hops;
  std::vector<NodeId> alive = g.alive_nodes();
  if (alive.size() >= 2) {
    size_t stride = std::max<size_t>(1, alive.size() / kStretchSamples);
    for (int s = 0; s < kStretchSamples; ++s) {
      size_t i = static_cast<size_t>(s) * stride;
      if (i >= alive.size()) break;
      NodeId x = alive[i];
      std::vector<int> dp = bfs_distances(gp, x);
      NodeId y = kInvalidNode;
      for (NodeId t : alive)
        if (t != x && dp[static_cast<size_t>(t)] > 0 &&
            (y == kInvalidNode ||
             dp[static_cast<size_t>(t)] > dp[static_cast<size_t>(y)]))
          y = t;
      if (y == kInvalidNode) continue;

      std::vector<NodeId> parent = bfs_parents(g, x);
      if (parent[static_cast<size_t>(y)] == kInvalidNode) continue;
      cert::StretchWitness w;
      w.x = x;
      w.y = y;
      w.dist_gprime = dp[static_cast<size_t>(y)];
      for (NodeId t = y; t != kInvalidNode; t = parent[static_cast<size_t>(t)]) {
        w.path.push_back(t);
        if (t == x) break;
      }
      std::reverse(w.path.begin(), w.path.end());
      FG_CHECK(w.path.front() == x && w.path.back() == y);
      for (size_t h = 0; h + 1 < w.path.size(); ++h)
        hops.emplace_back(std::min(w.path[h], w.path[h + 1]),
                          std::max(w.path[h], w.path[h + 1]));
      c.stretch.push_back(std::move(w));
    }
  }

  // One edge fact per distinct hop, in (u, v) order. A hop of this wave's
  // RT image credits the first region in id order holding it.
  std::sort(hops.begin(), hops.end());
  hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
  for (const auto& [u, v] : hops) {
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
