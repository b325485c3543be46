// The certificate checker against a reference: the checker as it stood
// before its sorts went through util::radix_sort, kept verbatim below (the
// way snapshot_test.cpp keeps a byte-at-a-time reference encoder). The
// rewrite must accept and reject exactly what the reference does, with the
// same diagnostic, on every certificate of a deep certified service stream
// and on thousands of seeded single-field forgeries of them — negative and
// extreme ids, unsorted, repeated and missing image edges, swapped child
// links, repeated victims and degree claims, facts out of order.
//
// The forgeries keep the assign list as long as the victim list: the
// reference reads a victim per assign entry, which is the out-of-bounds
// read CertificateNegative.AssignLengthDiffersFromVictims pins as fixed.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cert/certificate.h"
#include "fg/healer_service.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace fg::cert::reference {

namespace {

using Edge = std::pair<NodeId, NodeId>;

template <class T>
std::vector<T> sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Per position of `keys`: 1 when an earlier position holds the same key.
/// One sort of (key, position) pairs, so a listed-twice rule still reports
/// the first repeat in list order, as a running seen-set would.
template <class Key>
std::vector<char> repeats(const std::vector<Key>& keys) {
  std::vector<std::pair<Key, size_t>> order;
  order.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order.emplace_back(keys[i], i);
  std::sort(order.begin(), order.end());
  std::vector<char> repeat(keys.size(), 0);
  for (size_t i = 1; i < order.size(); ++i)
    if (order[i].first == order[i - 1].first) repeat[order[i].second] = 1;
  return repeat;
}

struct Checker {
  const WaveCertificate& c;
  int region = -1;  // current region for diagnostics, -1 = wave level

  CheckResult fail(const std::string& rule, const std::string& detail) const {
    std::ostringstream os;
    os << "wave " << c.wave;
    if (region >= 0) os << " region " << region;
    os << ": " << rule << ": " << detail;
    return CheckResult{false, os.str()};
  }
};

/// Recompute (leaf_count, height) of `idx`'s subtree iteratively (postorder
/// over the parent-pointer tree), verifying the haft property at every
/// internal node. Returns ok or the violated rule.
CheckResult check_subtree(Checker& ck, const std::vector<RtNode>& nodes, int root,
                          std::vector<int64_t>* leaves, std::vector<int>* height) {
  std::vector<int> stack{root};
  std::vector<int> order;
  order.reserve(nodes.size());
  while (!stack.empty()) {
    int i = stack.back();
    stack.pop_back();
    order.push_back(i);
    const RtNode& n = nodes[static_cast<size_t>(i)];
    for (int child : {n.left, n.right}) {
      if (child < 0) continue;
      if (order.size() + stack.size() > nodes.size() * 2)
        return ck.fail("rt-structure", "cycle among child pointers");
      stack.push_back(child);
    }
  }
  for (size_t k = order.size(); k-- > 0;) {
    int i = order[k];
    const RtNode& n = nodes[static_cast<size_t>(i)];
    if (n.is_leaf) {
      (*leaves)[static_cast<size_t>(i)] = 1;
      (*height)[static_cast<size_t>(i)] = 0;
      continue;
    }
    int64_t ll = (*leaves)[static_cast<size_t>(n.left)];
    int64_t rl = (*leaves)[static_cast<size_t>(n.right)];
    int lh = (*height)[static_cast<size_t>(n.left)];
    int rh = (*height)[static_cast<size_t>(n.right)];
    // H2: the left child roots a perfect subtree at least as leafy as the
    // right child.
    if (ll != (int64_t{1} << lh))
      return ck.fail("haft", "left child of vnode " + std::to_string(i) +
                                 " is not perfect");
    if (ll < rl)
      return ck.fail("haft", "left child of vnode " + std::to_string(i) +
                                 " holds fewer leaves than the right");
    (*leaves)[static_cast<size_t>(i)] = ll + rl;
    (*height)[static_cast<size_t>(i)] = 1 + std::max(lh, rh);
  }
  return CheckResult{};
}

/// Check one region's claims. `wave_victims` is the wave's victim list,
/// sorted; on success `*image` holds the region's verified image edges,
/// sorted and duplicate-free.
CheckResult check_region(Checker& ck, const RegionCert& rc,
                         const std::vector<NodeId>& wave_victims,
                         std::vector<Edge>* image) {
  const std::vector<RtNode>& nodes = rc.nodes;
  const size_t n = nodes.size();

  // rt-structure: link symmetry, one root, arity by kind.
  int root = -1;
  for (size_t i = 0; i < n; ++i) {
    const RtNode& nd = nodes[i];
    for (int link : {nd.parent, nd.left, nd.right})
      if (link < -1 || link >= static_cast<int>(n))
        return ck.fail("rt-structure",
                       "vnode " + std::to_string(i) + " links outside the witness");
    if (nd.parent == -1) {
      if (root != -1)
        return ck.fail("rt-structure", "more than one root (vnodes " +
                                           std::to_string(root) + " and " +
                                           std::to_string(i) + ")");
      root = static_cast<int>(i);
    } else {
      const RtNode& parent = nodes[static_cast<size_t>(nd.parent)];
      if (parent.left != static_cast<int>(i) && parent.right != static_cast<int>(i))
        return ck.fail("rt-structure",
                       "vnode " + std::to_string(i) +
                           " names a parent that does not link back");
    }
    if (nd.is_leaf) {
      if (nd.left != -1 || nd.right != -1)
        return ck.fail("rt-structure",
                       "leaf vnode " + std::to_string(i) + " has children");
    } else {
      if (nd.left == -1 || nd.right == -1)
        return ck.fail("rt-structure",
                       "helper vnode " + std::to_string(i) + " lacks a child");
      if (nd.left == nd.right)
        return ck.fail("rt-structure", "helper vnode " + std::to_string(i) +
                                           " links the same child twice");
      for (int child : {nd.left, nd.right})
        if (nodes[static_cast<size_t>(child)].parent != static_cast<int>(i))
          return ck.fail("rt-structure",
                         "child link of vnode " + std::to_string(i) +
                             " is not mirrored by its parent pointer");
    }
  }
  if (n > 0 && root == -1) return ck.fail("rt-structure", "no root vnode");

  if (n > 0) {
    // haft + depth (H1-H2, Lemma 1.3), recomputed bottom-up. The walk also
    // proves every node is reachable from the root (counts must match).
    std::vector<int64_t> leaves(n, 0);
    std::vector<int> height(n, 0);
    CheckResult sub = check_subtree(ck, nodes, root, &leaves, &height);
    if (!sub.ok) return sub;
    // Reachability from the root: with the link-symmetry checks above the
    // child pointers form a forest, so anything the walk missed is a
    // detached component smuggled into the witness.
    std::vector<char> reach(n, 0);
    std::vector<int> stack{root};
    while (!stack.empty()) {
      int i = stack.back();
      stack.pop_back();
      if (reach[static_cast<size_t>(i)]) continue;
      reach[static_cast<size_t>(i)] = 1;
      const RtNode& nd = nodes[static_cast<size_t>(i)];
      for (int child : {nd.left, nd.right})
        if (child >= 0) stack.push_back(child);
    }
    for (size_t i = 0; i < n; ++i)
      if (!reach[i])
        return ck.fail("rt-structure",
                       "vnode " + std::to_string(i) + " unreachable from the root");
    if (height[static_cast<size_t>(root)] >
        ceil_log2(std::max<int64_t>(1, leaves[static_cast<size_t>(root)])))
      return ck.fail("depth", "RT height " +
                                  std::to_string(height[static_cast<size_t>(root)]) +
                                  " exceeds ceil(log2 " +
                                  std::to_string(leaves[static_cast<size_t>(root)]) +
                                  ") (Lemma 1)");
  }

  // anchors: each claimed re-anchored slot (owner, dead) is a leaf of the
  // witness and its dead endpoint is one of the region's victims.
  if (!rc.anchors.empty() && n == 0)
    return ck.fail("anchors", "anchors claimed but no RT witness");
  std::vector<Edge> leaf_slots;
  for (const RtNode& nd : nodes)
    if (nd.is_leaf) leaf_slots.emplace_back(nd.owner, nd.other);
  std::sort(leaf_slots.begin(), leaf_slots.end());
  const std::vector<NodeId> region_victims = sorted(rc.victims);
  for (const auto& [owner, dead] : rc.anchors) {
    if (!std::binary_search(region_victims.begin(), region_victims.end(), dead))
      return ck.fail("anchors", "anchor (" + std::to_string(owner) + ", " +
                                    std::to_string(dead) +
                                    ") names a dead endpoint outside the region");
    if (!std::binary_search(leaf_slots.begin(), leaf_slots.end(), Edge{owner, dead}))
      return ck.fail("anchors", "anchor (" + std::to_string(owner) + ", " +
                                    std::to_string(dead) +
                                    ") has no matching RT leaf");
  }
  for (NodeId v : rc.victims)
    if (!std::binary_search(wave_victims.begin(), wave_victims.end(), v))
      return ck.fail("partition",
                     "region victim " + std::to_string(v) + " not in the wave");

  // image-edges: the claimed healed-network edges equal the homomorphic
  // image of the witness — tree edges whose endpoints have distinct owners.
  // Both sides sorted; on a mismatch the witness pair is the largest edge
  // of derived \ claimed, else the largest of claimed \ derived.
  std::vector<Edge>& derived = *image;
  derived.clear();
  for (size_t i = 0; i < n; ++i) {
    const RtNode& nd = nodes[i];
    if (nd.parent < 0) continue;
    NodeId a = nd.owner;
    NodeId b = nodes[static_cast<size_t>(nd.parent)].owner;
    if (a != b) derived.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(derived.begin(), derived.end());
  derived.erase(std::unique(derived.begin(), derived.end()), derived.end());
  const std::vector<Edge> claimed = sorted(rc.image_edges);
  if (std::adjacent_find(claimed.begin(), claimed.end()) != claimed.end())
    return ck.fail("image-edges", "duplicate claimed image edge");
  if (claimed != derived) {
    std::vector<Edge> diff;
    std::set_difference(derived.begin(), derived.end(), claimed.begin(),
                        claimed.end(), std::back_inserter(diff));
    if (diff.empty())
      std::set_difference(claimed.begin(), claimed.end(), derived.begin(),
                          derived.end(), std::back_inserter(diff));
    return ck.fail("image-edges",
                   "claimed edges differ from the RT witness image at (" +
                       std::to_string(diff.back().first) + ", " +
                       std::to_string(diff.back().second) + ")");
  }

  // rt-connectivity: the region's owners form one connected component under
  // exactly the claimed image edges — the spanning check, run through the
  // real graph substrate (the checker's one src/graph dependency). The
  // verified image is sorted and duplicate-free, and renumbering owners by
  // rank keeps it so: it bulk-loads as is.
  if (n > 0) {
    std::vector<NodeId> owners;
    owners.reserve(n);
    for (const RtNode& nd : nodes) owners.push_back(nd.owner);
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    auto local = [&owners](NodeId v) {
      return static_cast<uint32_t>(
          std::lower_bound(owners.begin(), owners.end(), v) - owners.begin());
    };
    std::vector<std::pair<uint32_t, uint32_t>> local_edges;
    local_edges.reserve(derived.size());
    for (const auto& [u, v] : derived) local_edges.emplace_back(local(u), local(v));
    Graph og(static_cast<int>(owners.size()));
    og.add_edges_bulk(local_edges);
    if (!is_connected(og))
      return ck.fail("rt-connectivity",
                     "the RT's image does not connect all its owners");
  }
  return CheckResult{};
}

}  // namespace

CheckResult check(const WaveCertificate& c) {
  Checker ck{c, -1};

  if (c.degree_constant != kDegreeConstant)
    return ck.fail("degree", "degree-constant " +
                                 std::to_string(c.degree_constant) +
                                 " is not the paper's accounting bound " +
                                 std::to_string(kDegreeConstant));
  if (c.stretch_bound !=
      std::max(1, ceil_log2(std::max<int64_t>(1, c.net_nodes))))
    return ck.fail("stretch", "stretch-bound " + std::to_string(c.stretch_bound) +
                                  " does not match ceil(log2 " +
                                  std::to_string(c.net_nodes) + ")");

  // partition: victims distinct, every victim assigned to a declared region,
  // region victim lists consistent with the assignment (wave order).
  {
    const std::vector<char> repeated = repeats(c.victims);
    for (size_t i = 0; i < c.victims.size(); ++i)
      if (repeated[i])
        return ck.fail("partition",
                       "victim " + std::to_string(c.victims[i]) + " repeated");
    const int r_count = static_cast<int>(c.regions.size());
    for (size_t i = 0; i < c.assign.size(); ++i)
      if (c.assign[i] < 0 || c.assign[i] >= r_count)
        return ck.fail("partition", "victim " + std::to_string(c.victims[i]) +
                                        " assigned to unknown region " +
                                        std::to_string(c.assign[i]));
    std::vector<std::vector<NodeId>> expect(static_cast<size_t>(r_count));
    for (size_t i = 0; i < c.victims.size() && i < c.assign.size(); ++i)
      expect[static_cast<size_t>(c.assign[i])].push_back(c.victims[i]);
    for (int r = 0; r < r_count; ++r) {
      if (c.regions[static_cast<size_t>(r)].id != r)
        return ck.fail("partition", "region ids out of order at " +
                                        std::to_string(r));
      if (expect[static_cast<size_t>(r)] != c.regions[static_cast<size_t>(r)].victims)
        return ck.fail("partition",
                       "region " + std::to_string(r) +
                           " victim list disagrees with the assignment");
    }
  }

  const std::vector<NodeId> victims = sorted(c.victims);
  std::vector<std::vector<Edge>> images(c.regions.size());
  for (size_t r = 0; r < c.regions.size(); ++r) {
    ck.region = c.regions[r].id;
    CheckResult res = check_region(ck, c.regions[r], victims, &images[r]);
    if (!res.ok) return res;
  }
  ck.region = -1;

  // The wave's deduplicated image edges, for the degree-delta bound, as a
  // sorted endpoint list: a node's incident count is its equal_range.
  std::vector<NodeId> endpoints;
  {
    std::vector<Edge> wave_edges;
    for (const std::vector<Edge>& image : images)
      wave_edges.insert(wave_edges.end(), image.begin(), image.end());
    std::sort(wave_edges.begin(), wave_edges.end());
    wave_edges.erase(std::unique(wave_edges.begin(), wave_edges.end()),
                     wave_edges.end());
    endpoints.reserve(2 * wave_edges.size());
    for (const auto& [u, v] : wave_edges) {
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
    std::sort(endpoints.begin(), endpoints.end());
  }

  // degree: no victim may be claimed as a survivor; every claim respects the
  // accounting constant and the wave's own new incident edges.
  {
    std::vector<NodeId> listed;
    listed.reserve(c.degrees.size());
    for (const DegreeClaim& d : c.degrees) listed.push_back(d.node);
    const std::vector<char> repeated = repeats(listed);
    for (size_t i = 0; i < c.degrees.size(); ++i) {
      const DegreeClaim& d = c.degrees[i];
      if (std::binary_search(victims.begin(), victims.end(), d.node))
        return ck.fail("degree", "victim " + std::to_string(d.node) +
                                     " listed as a surviving node");
      if (repeated[i])
        return ck.fail("degree",
                       "node " + std::to_string(d.node) + " listed twice");
      if (d.gprime < 0 || d.g_before < 0 || d.g_after < 0)
        return ck.fail("degree",
                       "negative degree at node " + std::to_string(d.node));
      if (d.gprime > 0 && d.g_after > c.degree_constant * d.gprime)
        return ck.fail("degree",
                       "node " + std::to_string(d.node) + " has degree " +
                           std::to_string(d.g_after) + " > " +
                           std::to_string(c.degree_constant) + " * " +
                           std::to_string(d.gprime) + " (Theorem 1.1)");
      const auto [lo, hi] =
          std::equal_range(endpoints.begin(), endpoints.end(), d.node);
      const int incident = static_cast<int>(hi - lo);
      if (d.g_after > d.g_before + incident)
        return ck.fail("degree", "node " + std::to_string(d.node) + " gained " +
                                     std::to_string(d.g_after - d.g_before) +
                                     " edges but the wave only adds " +
                                     std::to_string(incident) + " incident");
    }
    // Every anchor owner survives the wave and must be accounted for.
    std::sort(listed.begin(), listed.end());
    for (const RegionCert& rc : c.regions)
      for (const auto& [owner, dead] : rc.anchors) {
        (void)dead;
        if (!std::binary_search(listed.begin(), listed.end(), owner)) {
          ck.region = rc.id;
          return ck.fail("degree", "anchor owner " + std::to_string(owner) +
                                       " missing from the degree section");
        }
      }
    ck.region = -1;
  }

  // stretch: witness paths continuous, every hop justified by an edge fact,
  // length within stretch-bound * dist_G'.
  {
    std::vector<Edge> fact_keys;
    fact_keys.reserve(c.facts.size());
    for (const EdgeFact& f : c.facts) fact_keys.emplace_back(f.u, f.v);
    const std::vector<char> repeated = repeats(fact_keys);
    for (size_t i = 0; i < c.facts.size(); ++i) {
      const EdgeFact& f = c.facts[i];
      if (f.u >= f.v)
        return ck.fail("stretch", "edge fact (" + std::to_string(f.u) + ", " +
                                      std::to_string(f.v) +
                                      ") not normalized (u < v)");
      if (repeated[i])
        return ck.fail("stretch", "edge fact (" + std::to_string(f.u) + ", " +
                                      std::to_string(f.v) + ") repeated");
      if (f.kind == EdgeFact::Kind::kRtWave) {
        if (f.region < 0 || f.region >= static_cast<int>(c.regions.size()))
          return ck.fail("stretch", "edge fact names unknown region " +
                                        std::to_string(f.region));
        const std::vector<Edge>& image = images[static_cast<size_t>(f.region)];
        if (!std::binary_search(image.begin(), image.end(), Edge{f.u, f.v}))
          return ck.fail("stretch",
                         "edge fact (" + std::to_string(f.u) + ", " +
                             std::to_string(f.v) + ") is not an image edge of region " +
                             std::to_string(f.region));
      }
    }
    std::sort(fact_keys.begin(), fact_keys.end());
    for (const StretchWitness& s : c.stretch) {
      if (s.path.size() < 2 || s.path.front() != s.x || s.path.back() != s.y)
        return ck.fail("stretch", "witness path endpoints do not match pair (" +
                                      std::to_string(s.x) + ", " +
                                      std::to_string(s.y) + ")");
      if (s.dist_gprime < 1)
        return ck.fail("stretch", "pair (" + std::to_string(s.x) + ", " +
                                      std::to_string(s.y) +
                                      ") claims G' distance < 1");
      for (size_t i = 0; i + 1 < s.path.size(); ++i) {
        NodeId u = std::min(s.path[i], s.path[i + 1]);
        NodeId v = std::max(s.path[i], s.path[i + 1]);
        if (u == v)
          return ck.fail("stretch", "witness path repeats node " +
                                        std::to_string(u));
        if (!std::binary_search(fact_keys.begin(), fact_keys.end(), Edge{u, v}))
          return ck.fail("stretch", "witness hop (" + std::to_string(u) + ", " +
                                        std::to_string(v) +
                                        ") has no supporting edge fact");
      }
      int64_t len = static_cast<int64_t>(s.path.size()) - 1;
      if (len > static_cast<int64_t>(c.stretch_bound) * s.dist_gprime)
        return ck.fail("stretch",
                       "pair (" + std::to_string(s.x) + ", " +
                           std::to_string(s.y) + ") stretches " +
                           std::to_string(len) + " / " +
                           std::to_string(s.dist_gprime) + " beyond the bound " +
                           std::to_string(c.stretch_bound) + " (Theorem 1.2)");
    }
  }

  // cost: the Lemma-4 envelope (only the distributed engine writes one).
  if (c.cost.present) {
    const int logn = std::max(1, ceil_log2(std::max<int64_t>(2, c.net_nodes)));
    const int d = std::max(1, c.cost.deleted_degree);
    const int64_t msg_budget =
        int64_t{kMessageBudgetFactor} * d * logn;
    const int round_budget = kRoundBudgetFactor * ceil_log2(std::max(2, d)) + logn;
    if (c.cost.messages < 0 || c.cost.words < 0 || c.cost.rounds < 0 ||
        c.cost.deleted_degree < 0)
      return ck.fail("cost", "negative cost claim");
    if (c.cost.words < c.cost.messages)
      return ck.fail("cost", "fewer words than messages");
    if (c.cost.messages > msg_budget)
      return ck.fail("cost", std::to_string(c.cost.messages) +
                                 " messages exceed the Lemma-4 budget " +
                                 std::to_string(msg_budget));
    if (c.cost.rounds > round_budget)
      return ck.fail("cost", std::to_string(c.cost.rounds) +
                                 " rounds exceed the Lemma-4 budget " +
                                 std::to_string(round_budget));
    int anchors = 0;
    for (const RegionCert& rc : c.regions)
      anchors += static_cast<int>(rc.anchors.size());
    if (c.cost.deleted_degree < anchors)
      return ck.fail("cost", "deleted degree " +
                                 std::to_string(c.cost.deleted_degree) +
                                 " below the wave's anchor count " +
                                 std::to_string(anchors));
  }

  return CheckResult{};
}

}  // namespace fg::cert::reference

namespace fg {
namespace {

// The CertificateGolden.ServiceStreamDigestIsPinned stream: every wave of a
// seeded churn stream through HealerService certified, deep multi-region
// RTs included.
std::vector<cert::WaveCertificate> service_stream() {
  constexpr int kNodes = 4096;
  constexpr int kOps = 2000;
  Rng rng(17);
  Graph g0 = make_sparse_random(kNodes, 8.0, rng);
  HealerConfig config;
  config.certify_every = 1;
  HealerService service(g0, config);
  std::ostringstream tee;
  service.set_certificate_stream(&tee);
  std::vector<NodeId> pool(static_cast<size_t>(kNodes));
  for (NodeId v = 0; v < kNodes; ++v) pool[static_cast<size_t>(v)] = v;
  NodeId next_id = kNodes;
  for (int i = 0; i < kOps; ++i) {
    if (pool.size() > 64 && rng.next_bool(0.5)) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      service.push(ChurnOp::Delete(victim));
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      service.push(ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
  }
  service.flush();

  std::vector<cert::WaveCertificate> certs;
  std::istringstream is(tee.str());
  for (;;) {
    cert::WaveCertificate c;
    bool eof = false;
    cert::CheckResult parsed = cert::parse(is, &c, &eof);
    EXPECT_TRUE(parsed.ok) << parsed.diagnostic;
    if (eof || !parsed.ok) break;
    certs.push_back(std::move(c));
  }
  return certs;
}

/// An id a forger might write: negative, extreme, or one of the
/// certificate's own ids (or its successor).
NodeId forged_id(Rng& rng, NodeId existing) {
  switch (rng.next_below(8)) {
    case 0: return -1;
    case 1: return -static_cast<NodeId>(1 + rng.next_below(1000));
    case 2: return INT_MIN;
    case 3: return INT_MIN + 1;
    case 4: return INT_MAX;
    case 5: return INT_MAX - 1;
    case 6: return static_cast<NodeId>(static_cast<uint32_t>(existing) + 1u);  // INT_MAX wraps
    default: return static_cast<NodeId>(rng.next_below(5000));
  }
}

template <class T>
T& pick_ref(Rng& rng, std::vector<T>& v) {
  return v[static_cast<size_t>(rng.next_below(v.size()))];
}

/// The image of `nodes` as the emitter derives it: normalized owner pairs
/// of the tree edges whose endpoints differ, sorted, duplicate-free.
std::vector<std::pair<NodeId, NodeId>> image_of(const std::vector<cert::RtNode>& nodes) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const cert::RtNode& n : nodes) {
    if (n.parent < 0) continue;
    const NodeId a = n.owner;
    const NodeId b = nodes[static_cast<size_t>(n.parent)].owner;
    if (a != b) edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// Apply one seeded single-field forgery to `c`; returns its name, or
/// nullptr when `c` has nothing of the kind drawn to forge.
const char* mutate(Rng& rng, cert::WaveCertificate* c) {
  cert::RegionCert* rc = c->regions.empty() ? nullptr : &pick_ref(rng, c->regions);
  switch (rng.next_below(24)) {
    case 0:
      if (c->victims.empty()) return nullptr;
      {
        NodeId& v = pick_ref(rng, c->victims);
        v = forged_id(rng, v);
      }
      return "victim id";
    case 1:
      if (rc == nullptr || rc->victims.empty()) return nullptr;
      {
        NodeId& v = pick_ref(rng, rc->victims);
        v = forged_id(rng, v);
      }
      return "region victim id";
    case 2:
      if (rc == nullptr || rc->anchors.empty()) return nullptr;
      {
        auto& [owner, dead] = pick_ref(rng, rc->anchors);
        (rng.next_bool(0.5) ? owner : dead) = forged_id(rng, owner);
      }
      return "anchor id";
    case 3:
      if (rc == nullptr || rc->nodes.empty()) return nullptr;
      {
        cert::RtNode& n = pick_ref(rng, rc->nodes);
        (rng.next_bool(0.5) ? n.owner : n.other) = forged_id(rng, n.owner);
      }
      return "vnode id";
    case 4:
      if (rc == nullptr || rc->image_edges.empty()) return nullptr;
      {
        auto& [u, v] = pick_ref(rng, rc->image_edges);
        (rng.next_bool(0.5) ? u : v) = forged_id(rng, u);
      }
      return "image edge id";
    case 5:
      if (rc == nullptr || rc->image_edges.size() < 2) return nullptr;
      std::swap(pick_ref(rng, rc->image_edges), pick_ref(rng, rc->image_edges));
      return "image edges unsorted";
    case 6:
      if (rc == nullptr || rc->image_edges.empty()) return nullptr;
      {
        const auto copy = pick_ref(rng, rc->image_edges);
        rc->image_edges.insert(
            rc->image_edges.begin() +
                static_cast<std::ptrdiff_t>(rng.next_below(rc->image_edges.size() + 1)),
            copy);
      }
      return "image edge duplicated";
    case 7:
      if (rc == nullptr || rc->image_edges.empty()) return nullptr;
      rc->image_edges.erase(
          rc->image_edges.begin() +
          static_cast<std::ptrdiff_t>(rng.next_below(rc->image_edges.size())));
      return "image edge missing";
    case 8:
      if (rc == nullptr) return nullptr;
      {
        const NodeId u = forged_id(rng, 0);
        const NodeId v = forged_id(rng, u);
        rc->image_edges.emplace_back(std::min(u, v), std::max(u, v));
      }
      return "image edge forged";
    case 9:
      if (rc == nullptr || rc->nodes.empty()) return nullptr;
      for (int tries = 0; tries < 16; ++tries) {
        cert::RtNode& n = pick_ref(rng, rc->nodes);
        if (n.is_leaf) continue;
        std::swap(n.left, n.right);
        return "child links swapped";
      }
      return nullptr;
    case 10:
      if (c->victims.empty()) return nullptr;
      {
        const size_t i = static_cast<size_t>(rng.next_below(c->victims.size()));
        c->victims.push_back(c->victims[i]);
        c->assign.push_back(c->assign[i]);
      }
      return "victim repeated";
    case 11:
      if (c->degrees.empty()) return nullptr;
      {
        const cert::DegreeClaim copy = pick_ref(rng, c->degrees);
        c->degrees.insert(c->degrees.begin() + static_cast<std::ptrdiff_t>(
                                                   rng.next_below(c->degrees.size() + 1)),
                          copy);
      }
      return "degree claim repeated";
    case 12:
      if (c->degrees.empty()) return nullptr;
      {
        cert::DegreeClaim& d = pick_ref(rng, c->degrees);
        d.node = forged_id(rng, d.node);
      }
      return "degree node id";
    case 13:
      if (c->degrees.empty()) return nullptr;
      {
        cert::DegreeClaim& d = pick_ref(rng, c->degrees);
        int* field[] = {&d.gprime, &d.g_before, &d.g_after};
        *field[rng.next_below(3)] += static_cast<int>(rng.next_below(7)) - 3;
      }
      return "degree count";
    case 14:
      if (c->degrees.empty()) return nullptr;
      c->degrees.erase(c->degrees.begin() +
                       static_cast<std::ptrdiff_t>(rng.next_below(c->degrees.size())));
      return "degree claim missing";
    case 15:
      if (c->facts.size() < 2) return nullptr;
      std::swap(pick_ref(rng, c->facts), pick_ref(rng, c->facts));
      return "facts out of order";
    case 16:
      if (c->facts.empty()) return nullptr;
      {
        cert::EdgeFact& f = pick_ref(rng, c->facts);
        (rng.next_bool(0.5) ? f.u : f.v) = forged_id(rng, f.u);
      }
      return "fact id";
    case 17:
      if (c->facts.empty()) return nullptr;
      {
        cert::EdgeFact& f = pick_ref(rng, c->facts);
        f.kind = static_cast<cert::EdgeFact::Kind>(rng.next_below(3));
        f.region = static_cast<int>(rng.next_below(c->regions.size() + 2)) - 1;
      }
      return "fact kind";
    case 18:
      if (c->stretch.empty()) return nullptr;
      {
        cert::StretchWitness& s = pick_ref(rng, c->stretch);
        NodeId& n = pick_ref(rng, s.path);
        n = forged_id(rng, n);
      }
      return "witness path id";
    case 19:
      if (c->stretch.empty()) return nullptr;
      {
        cert::StretchWitness& s = pick_ref(rng, c->stretch);
        (rng.next_bool(0.5) ? s.x : s.y) = forged_id(rng, s.x);
      }
      return "witness pair id";
    case 20:
      // One processor renamed throughout one region's witness, its image
      // re-derived to match: a forgery that reaches rt-connectivity and the
      // degree rule with negative or extreme owners.
      if (rc == nullptr || rc->nodes.empty()) return nullptr;
      {
        const NodeId from = pick_ref(rng, rc->nodes).owner;
        const NodeId to = forged_id(rng, from);
        for (cert::RtNode& n : rc->nodes)
          if (n.owner == from) n.owner = to;
        for (auto& [owner, dead] : rc->anchors)
          if (owner == from) owner = to;
        rc->image_edges = image_of(rc->nodes);
      }
      return "owner renamed";
    case 21:
      if (rc == nullptr || rc->nodes.empty()) return nullptr;
      {
        cert::RtNode& n = pick_ref(rng, rc->nodes);
        int* link[] = {&n.parent, &n.left, &n.right};
        *link[rng.next_below(3)] =
            static_cast<int>(rng.next_below(rc->nodes.size() + 3)) - 2;
      }
      return "vnode link";
    case 22:
      if (c->assign.empty()) return nullptr;
      pick_ref(rng, c->assign) = static_cast<int>(rng.next_below(c->regions.size() + 2)) - 1;
      return "assign entry";
    default:
      if (c->stretch.empty()) return nullptr;
      pick_ref(rng, c->stretch).dist_gprime += static_cast<int>(rng.next_below(5)) - 2;
      return "witness distance";
  }
}

/// The rule a diagnostic names: "wave <w>[ region <r>]: <rule>: ...".
std::string rule_of(const std::string& diagnostic) {
  const size_t colon = diagnostic.find(": ");
  const size_t end = diagnostic.find(':', colon + 2);
  return colon == std::string::npos ? diagnostic : diagnostic.substr(colon + 2, end - colon - 2);
}

TEST(CertificateCheck, MatchesReferenceChecker) {
  const std::vector<cert::WaveCertificate> certs = service_stream();
  ASSERT_GE(certs.size(), 10u);
  size_t largest_rt = 0;
  for (const cert::WaveCertificate& c : certs) {
    const cert::CheckResult got = cert::check(c);
    const cert::CheckResult want = cert::reference::check(c);
    ASSERT_TRUE(want.ok) << want.diagnostic;
    ASSERT_TRUE(got.ok) << got.diagnostic;
    for (const cert::RegionCert& rc : c.regions) largest_rt = std::max(largest_rt, rc.nodes.size());
  }
  EXPECT_GE(largest_rt, 1000u) << "the stream no longer reaches a deep RT";

  constexpr int kForgeries = 2000;
  Rng rng(0xC3A7);
  std::map<std::string, int> kinds;
  std::map<std::string, int> rules;
  int forged = 0;
  while (forged < kForgeries) {
    cert::WaveCertificate c = certs[static_cast<size_t>(rng.next_below(certs.size()))];
    const char* kind = mutate(rng, &c);
    if (kind == nullptr) continue;
    ++forged;
    ++kinds[kind];
    const cert::CheckResult got = cert::check(c);
    const cert::CheckResult want = cert::reference::check(c);
    ASSERT_EQ(got.ok, want.ok) << "forgery " << forged << " (" << kind << "): reference says "
                               << (want.ok ? "ok" : want.diagnostic);
    ASSERT_EQ(got.diagnostic, want.diagnostic) << "forgery " << forged << " (" << kind << ")";
    ++rules[want.ok ? "accepted" : rule_of(want.diagnostic)];
  }
  // The forgeries reach every rule a single field can break, and some
  // leave the certificate valid (an id forged to its own value). Past
  // image-edges every forgery also runs rt-connectivity, which cannot fail
  // there: the verified image is that of a tree, so it connects the owners.
  for (const char* rule : {"partition", "rt-structure", "haft", "anchors", "image-edges",
                           "degree", "stretch", "accepted"})
    EXPECT_GT(rules[rule], 0) << rule;
  EXPECT_EQ(kinds.size(), 24u);
}

}  // namespace
}  // namespace fg
