#include "fg/stabilizer.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "fg/core/structural_core.h"
#include "fg/sharded_forest.h"
#include "util/check.h"
#include "util/dsu.h"
#include "util/radix_sort.h"

namespace fg {
namespace {

using core::SlotTable;
using VNode = VirtualForest::VNode;

void note(AuditReport& r, ViolationKind k, VNodeId h, NodeId u, NodeId v,
          const char* detail) {
  ++r.total;
  ++r.counts[static_cast<size_t>(k)];
  if (static_cast<int>(r.violations.size()) < AuditReport::kMaxDetails)
    r.violations.push_back({k, h, u, v, detail});
}

/// Everything one audit pass derives: the typed report plus the quarantine
/// partition stabilize() acts on. The report side is what fg::audit
/// returns; the partition side (components, condemnation, the affected
/// dead-processor set) never leaves this translation unit.
struct Analysis {
  AuditReport report;
  std::vector<int> comp;           ///< Component id per row; -1 if tombstoned.
  int n_comps = 0;
  std::vector<uint8_t> condemned;  ///< Per component.
  std::vector<uint8_t> keep;       ///< Per row: alive and in a kept component.
  std::vector<NodeId> affected;    ///< Dead processors to re-anchor, ascending.
  int condemned_rows = 0;
  int kept_comps = 0;
};

Analysis analyze(const core::StructuralCore& core) {
  Analysis out;
  AuditReport& rep = out.report;
  const std::vector<VNode>& rows = core.forest().dump();
  const int n = static_cast<int>(rows.size());
  const Graph& gp = core.gprime();
  const SlotTable& slots = core.slot_table();
  const NodeId cap = gp.node_capacity();

  // Corrupted state may hold any bit pattern; every probe below must be
  // range-guarded before it touches an FG_CHECKing accessor.
  auto proc_ok = [&](NodeId p) { return p >= 0 && p < cap; };
  auto alive = [&](NodeId p) { return proc_ok(p) && core.is_alive(p); };
  auto row_ok = [&](VNodeId x) {
    return x >= 0 && x < n && rows[static_cast<size_t>(x)].alive;
  };
  auto row = [&](VNodeId x) -> const VNode& {
    return rows[static_cast<size_t>(x)];
  };
  // Parent link, followed only when the parent acknowledges the child.
  // Mutual links are exactly what the component DSU unites, so any walk
  // over them stays within one component — the property that lets a
  // verified ancestry (I3/I4) guarantee leaf and helper are quarantined
  // together or kept together, never split.
  auto mutual_parent = [&](VNodeId x) -> VNodeId {
    VNodeId p = row(x).parent;
    if (p == x || !row_ok(p) || row(p).is_leaf) return kNoVNode;
    if (row(p).left != x && row(p).right != x) return kNoVNode;
    return p;
  };
  // Cycle-safe "anc is an ancestor of (or equal to) from": step-capped
  // climb over mutual links only.
  auto reaches_up = [&](VNodeId from, VNodeId anc) {
    VNodeId x = from;
    for (int steps = 0; steps <= n && x != kNoVNode; ++steps) {
      if (x == anc) return true;
      x = mutual_parent(x);
    }
    return false;
  };

  std::vector<uint8_t> row_bad(static_cast<size_t>(n), 0);

  // --- Row sanity: fields, link symmetry, slot backing. -------------------
  for (VNodeId h = 0; h < n; ++h) {
    const VNode& r = row(h);
    if (!r.alive) continue;
    const bool owner_ok = alive(r.owner);
    const bool other_dead = proc_ok(r.other) && !core.is_alive(r.other);
    if (!owner_ok) {
      note(rep, ViolationKind::kRowOwnership, h, r.owner, r.other,
           "vnode owner is not an alive processor");
      row_bad[static_cast<size_t>(h)] = 1;
    }
    if (!other_dead) {
      note(rep, ViolationKind::kRowOwnership, h, r.owner, r.other,
           "vnode far endpoint is not a dead processor");
      row_bad[static_cast<size_t>(h)] = 1;
    } else if (owner_ok && !gp.has_edge(r.owner, r.other)) {
      note(rep, ViolationKind::kRowOwnership, h, r.owner, r.other,
           "vnode slot key is not a G' edge");
      row_bad[static_cast<size_t>(h)] = 1;
    }
    if (r.is_leaf) {
      if (r.left != kNoVNode || r.right != kNoVNode) {
        note(rep, ViolationKind::kRowLink, h, r.owner, r.other,
             "leaf with children");
        row_bad[static_cast<size_t>(h)] = 1;
      }
      if (r.rep != h || r.height != 0 || r.leaf_count != 1) {
        note(rep, ViolationKind::kRowAggregate, h, r.owner, r.other,
             "leaf bookkeeping corrupt (rep/height/leaf_count)");
        row_bad[static_cast<size_t>(h)] = 1;
      }
    } else {
      bool kids_ok = row_ok(r.left) && row_ok(r.right) && r.left != r.right &&
                     r.left != h && r.right != h;
      if (kids_ok)
        kids_ok = row(r.left).parent == h && row(r.right).parent == h;
      if (!kids_ok) {
        note(rep, ViolationKind::kRowLink, h, r.owner, r.other,
             "helper child links broken or disowned");
        row_bad[static_cast<size_t>(h)] = 1;
      }
    }
    if (r.parent != kNoVNode && mutual_parent(h) == kNoVNode) {
      note(rep, ViolationKind::kRowLink, h, r.owner, r.other,
           "parent link dangling or unacknowledged");
      row_bad[static_cast<size_t>(h)] = 1;
    }
    if (owner_ok && other_dead) {
      const SlotTable::Entry* s = slots.find(r.owner, r.other);
      const VNodeId backing =
          s == nullptr ? kNoVNode : (r.is_leaf ? s->leaf : s->helper);
      if (backing != h) {
        note(rep, ViolationKind::kRowSlotBacking, h, r.owner, r.other,
             "vnode not registered in its owner's slot");
        row_bad[static_cast<size_t>(h)] = 1;
      }
    }
  }

  // --- Components over mutual links; seed condemnation from bad rows. -----
  // Smallest-row representatives: component ids ascend with their smallest
  // row.
  util::Dsu dsu(n);
  for (VNodeId h = 0; h < n; ++h) {
    const VNode& r = row(h);
    if (!r.alive || r.is_leaf) continue;
    for (VNodeId c : {r.left, r.right})
      if (row_ok(c) && row(c).parent == h) dsu.unite(h, c);
  }
  out.comp.assign(static_cast<size_t>(n), -1);
  std::vector<int> comp_of_root(static_cast<size_t>(n), -1);
  for (VNodeId h = 0; h < n; ++h) {
    if (!row(h).alive) continue;
    int rt = dsu.find(h);
    if (comp_of_root[static_cast<size_t>(rt)] < 0)
      comp_of_root[static_cast<size_t>(rt)] = out.n_comps++;
    out.comp[static_cast<size_t>(h)] = comp_of_root[static_cast<size_t>(rt)];
  }
  std::vector<std::vector<VNodeId>> members(
      static_cast<size_t>(out.n_comps));
  for (VNodeId h = 0; h < n; ++h)
    if (row(h).alive)
      members[static_cast<size_t>(out.comp[static_cast<size_t>(h)])]
          .push_back(h);
  out.condemned.assign(static_cast<size_t>(out.n_comps), 0);
  auto condemn = [&](int c) {
    if (c >= 0) out.condemned[static_cast<size_t>(c)] = 1;
  };
  auto condemn_row = [&](VNodeId h) {
    if (row_ok(h)) condemn(out.comp[static_cast<size_t>(h)]);
  };
  for (VNodeId h = 0; h < n; ++h)
    if (row_bad[static_cast<size_t>(h)]) condemn_row(h);

  // --- Per-component shape: one root, full reachability, aggregates, haft.
  std::vector<int64_t> lc(static_cast<size_t>(n), 0);
  std::vector<int> ht(static_cast<size_t>(n), 0);
  std::vector<uint8_t> visited(static_cast<size_t>(n), 0);
  struct Frame {
    VNodeId h;
    int stage;
  };
  std::vector<Frame> stack;
  std::vector<VNodeId> comp_root(static_cast<size_t>(out.n_comps), kNoVNode);
  for (int c = 0; c < out.n_comps; ++c) {
    if (out.condemned[static_cast<size_t>(c)]) continue;
    const std::vector<VNodeId>& m = members[static_cast<size_t>(c)];
    VNodeId& root = comp_root[static_cast<size_t>(c)];
    int roots = 0;
    for (VNodeId h : m)
      if (row(h).parent == kNoVNode) {
        ++roots;
        root = h;
      }
    if (roots != 1) {
      // Zero roots: the component's mutual links close a cycle. More than
      // one cannot happen (each row has one parent link), but stay typed
      // and abort-free even against that.
      note(rep, ViolationKind::kRowLink, m.front(), kInvalidNode, kInvalidNode,
           roots == 0 ? "component has no root (mutual-link cycle)"
                      : "component has multiple roots");
      condemn(c);
      continue;
    }
    bool ok = true;
    int seen = 0;
    stack.assign(1, Frame{root, 0});
    while (!stack.empty() && ok) {
      Frame f = stack.back();
      const VNode& r = row(f.h);
      if (f.stage == 0) {
        if (visited[static_cast<size_t>(f.h)]) {
          note(rep, ViolationKind::kRowLink, f.h, r.owner, r.other,
               "row reached twice inside one component");
          ok = false;
          break;
        }
        visited[static_cast<size_t>(f.h)] = 1;
        ++seen;
        stack.back().stage = 1;
        if (!r.is_leaf) stack.push_back(Frame{r.left, 0});
        continue;
      }
      if (f.stage == 1) {
        stack.back().stage = 2;
        if (!r.is_leaf) stack.push_back(Frame{r.right, 0});
        continue;
      }
      if (r.is_leaf) {
        lc[static_cast<size_t>(f.h)] = 1;
        ht[static_cast<size_t>(f.h)] = 0;
      } else {
        const int64_t lcl = lc[static_cast<size_t>(r.left)];
        const int64_t lcr = lc[static_cast<size_t>(r.right)];
        const int htl = ht[static_cast<size_t>(r.left)];
        const int htr = ht[static_cast<size_t>(r.right)];
        lc[static_cast<size_t>(f.h)] = lcl + lcr;
        ht[static_cast<size_t>(f.h)] = std::max(htl, htr) + 1;
        if (lc[static_cast<size_t>(f.h)] != r.leaf_count ||
            ht[static_cast<size_t>(f.h)] != r.height) {
          note(rep, ViolationKind::kRowAggregate, f.h, r.owner, r.other,
               "stored height/leaf_count diverge from recount");
          ok = false;
          break;
        }
        // Haft property (I2): left child perfect and at least as big as
        // the right subtree. Heights are recounted, so the shift below is
        // bounded by the component depth, not by stored bytes — still
        // guard it, a corrupt deep chain can reach ~n before failing.
        const bool left_perfect =
            htl < 62 && lcl == (int64_t{1} << htl);
        if (!left_perfect || lcl < lcr) {
          note(rep, ViolationKind::kRowAggregate, f.h, r.owner, r.other,
               "haft property violated at this join");
          ok = false;
          break;
        }
      }
      stack.pop_back();
    }
    if (ok && seen != static_cast<int>(m.size())) {
      note(rep, ViolationKind::kRowLink, root, kInvalidNode, kInvalidNode,
           "component rows unreachable from its root");
      ok = false;
    }
    if (!ok) condemn(c);
  }

  // --- I3 per clean component: rep == the unique helper-free leaf. --------
  // A clean component is a verified tree whose links are all mutual, so
  // for a leaf y with slot helper h, "h lies in subtree(x)" holds exactly
  // when x is an ancestor-or-self of h: y stops being free at the
  // ancestors-or-self of lca(y, h). A helper that is missing, not a live
  // row, or in another component leaves y free everywhere (a mutual-link
  // climb never leaves its component). One preorder (depths), one lca
  // climb per leaf and one bottom-up pass that sums free-leaf counts and
  // XORs free-leaf handles (a count of 1 leaves exactly that handle) decide
  // every helper at once, in O(rows * depth). The shape pass is done with
  // its recount buffers, so depths and free-leaf counts reuse them (every
  // slot of a component is written before it is read).
  std::vector<int>& depth = ht;
  std::vector<int64_t>& free_count = lc;
  std::vector<VNodeId> free_xor(static_cast<size_t>(n), 0);
  std::vector<VNodeId> pre;
  std::vector<VNodeId> walk;
  for (int c = 0; c < out.n_comps; ++c) {
    if (out.condemned[static_cast<size_t>(c)]) continue;
    pre.clear();
    walk.assign(1, comp_root[static_cast<size_t>(c)]);
    depth[static_cast<size_t>(walk.back())] = 0;
    while (!walk.empty()) {
      const VNodeId z = walk.back();
      walk.pop_back();
      pre.push_back(z);
      const VNode& rz = row(z);
      free_count[static_cast<size_t>(z)] = rz.is_leaf ? 1 : 0;
      free_xor[static_cast<size_t>(z)] = rz.is_leaf ? z : 0;
      if (rz.is_leaf) continue;
      for (VNodeId k : {rz.right, rz.left}) {
        depth[static_cast<size_t>(k)] = depth[static_cast<size_t>(z)] + 1;
        walk.push_back(k);
      }
    }
    for (VNodeId y : pre) {
      const VNode& ry = row(y);
      if (!ry.is_leaf) continue;
      // The leaf's slot exists and backs it (the component is clean).
      const SlotTable::Entry* s = slots.find(ry.owner, ry.other);
      VNodeId b = s == nullptr ? kNoVNode : s->helper;
      if (!row_ok(b) || out.comp[static_cast<size_t>(b)] != c) continue;
      VNodeId a = y;
      while (depth[static_cast<size_t>(a)] > depth[static_cast<size_t>(b)])
        a = row(a).parent;
      while (depth[static_cast<size_t>(b)] > depth[static_cast<size_t>(a)])
        b = row(b).parent;
      while (a != b) {
        a = row(a).parent;
        b = row(b).parent;
      }
      --free_count[static_cast<size_t>(a)];
      free_xor[static_cast<size_t>(a)] ^= y;
    }
    for (size_t i = pre.size(); i-- > 0;) {
      const VNode& rz = row(pre[i]);
      if (rz.is_leaf) continue;
      const size_t z = static_cast<size_t>(pre[i]);
      free_count[z] += free_count[static_cast<size_t>(rz.left)] +
                       free_count[static_cast<size_t>(rz.right)];
      free_xor[z] ^= free_xor[static_cast<size_t>(rz.left)] ^
                     free_xor[static_cast<size_t>(rz.right)];
    }
    for (VNodeId x : members[static_cast<size_t>(c)]) {
      if (row(x).is_leaf) continue;
      if (free_count[static_cast<size_t>(x)] != 1 ||
          free_xor[static_cast<size_t>(x)] != row(x).rep) {
        note(rep, ViolationKind::kRepInvariant, x, row(x).owner, row(x).other,
             "rep is not the unique helper-free leaf of its subtree");
        condemn(c);
        break;
      }
    }
  }

  // --- Slot scan: edge validity, ghosts, I4 ancestry, I1 completeness. ----
  std::vector<uint8_t> affected_flag(static_cast<size_t>(cap), 0);
  std::vector<NodeId> proc_queue;
  auto mark_affected = [&](NodeId w) {
    if (proc_ok(w) && !affected_flag[static_cast<size_t>(w)]) {
      affected_flag[static_cast<size_t>(w)] = 1;
      proc_queue.push_back(w);
    }
  };
  for (NodeId u = 0; u < cap; ++u) {
    if (!core.is_alive(u)) {
      if (slots.count(u) > 0) {
        note(rep, ViolationKind::kSlotEdge, kNoVNode, u, kInvalidNode,
             "dead processor owns slot entries");
        for (const SlotTable::Entry& e : slots.entries(u)) {
          condemn_row(e.leaf);
          condemn_row(e.helper);
        }
      }
      continue;
    }
    for (const SlotTable::Entry& e : slots.entries(u)) {
      const bool edge_ok = proc_ok(e.other) && !core.is_alive(e.other) &&
                           gp.has_edge(u, e.other);
      if (!edge_ok) {
        note(rep, ViolationKind::kSlotEdge, e.leaf, u, e.other,
             "slot key is not a dead G' edge");
        condemn_row(e.leaf);
        condemn_row(e.helper);
      }
      const bool leaf_ok = row_ok(e.leaf) && row(e.leaf).is_leaf &&
                           row(e.leaf).owner == u && row(e.leaf).other == e.other;
      if (!leaf_ok) {
        note(rep, ViolationKind::kSlotGhost, e.leaf, u, e.other,
             "slot leaf missing or pointing at a mismatched row");
        condemn_row(e.leaf);
        // The helper row (if real) would survive into a leafless slot
        // after the rebuild — quarantine it with the anchor.
        condemn_row(e.helper);
        if (edge_ok) mark_affected(e.other);
      }
      if (e.helper != kNoVNode) {
        const bool helper_ok = row_ok(e.helper) && !row(e.helper).is_leaf &&
                               row(e.helper).owner == u &&
                               row(e.helper).other == e.other;
        if (!helper_ok) {
          note(rep, ViolationKind::kSlotGhost, e.helper, u, e.other,
               "slot helper pointing at a missing or mismatched row");
          condemn_row(e.helper);
        } else if (leaf_ok && !reaches_up(e.leaf, e.helper)) {
          note(rep, ViolationKind::kHelperAncestry, e.helper, u, e.other,
               "helper is not an ancestor of its real node");
          condemn_row(e.leaf);
          condemn_row(e.helper);
        }
      }
    }
    for (NodeId w : gp.neighbors(u)) {
      if (core.is_alive(w)) continue;
      if (slots.find(u, w) == nullptr) {
        note(rep, ViolationKind::kMissingAnchor, kNoVNode, u, w,
             "dead G' edge has no anchor slot");
        mark_affected(w);
      }
    }
  }

  // --- Dead-cluster co-location law. --------------------------------------
  // Legal executions keep all anchors of one G'-connected dead cluster in a
  // single RT (whichever endpoint of a dead-dead edge died first left a
  // leaf in the RT that absorbed the second death). A split cluster can
  // disconnect the healed image even when every per-row rule above passes,
  // so it condemns every RT involved and re-anchors the whole cluster.
  std::vector<std::vector<int>> proc_leaf_comps(static_cast<size_t>(cap));
  std::vector<std::vector<NodeId>> comp_dead_procs(
      static_cast<size_t>(out.n_comps));
  for (VNodeId h = 0; h < n; ++h) {
    const VNode& r = row(h);
    if (!r.alive || !r.is_leaf) continue;
    if (!proc_ok(r.other) || core.is_alive(r.other)) continue;
    const int c = out.comp[static_cast<size_t>(h)];
    proc_leaf_comps[static_cast<size_t>(r.other)].push_back(c);
    comp_dead_procs[static_cast<size_t>(c)].push_back(r.other);
  }
  for (auto& v : proc_leaf_comps) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  for (auto& v : comp_dead_procs) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  std::vector<uint8_t> cluster_seen(static_cast<size_t>(cap), 0);
  std::vector<NodeId> cluster;
  std::vector<int> cluster_comps;
  for (NodeId w0 = 0; w0 < cap; ++w0) {
    if (core.is_alive(w0) || cluster_seen[static_cast<size_t>(w0)]) continue;
    cluster.assign(1, w0);
    cluster_seen[static_cast<size_t>(w0)] = 1;
    for (size_t i = 0; i < cluster.size(); ++i)
      for (NodeId x : gp.neighbors(cluster[i]))
        if (!core.is_alive(x) && !cluster_seen[static_cast<size_t>(x)]) {
          cluster_seen[static_cast<size_t>(x)] = 1;
          cluster.push_back(x);
        }
    cluster_comps.clear();
    for (NodeId w : cluster)
      cluster_comps.insert(cluster_comps.end(),
                           proc_leaf_comps[static_cast<size_t>(w)].begin(),
                           proc_leaf_comps[static_cast<size_t>(w)].end());
    std::sort(cluster_comps.begin(), cluster_comps.end());
    cluster_comps.erase(std::unique(cluster_comps.begin(), cluster_comps.end()),
                        cluster_comps.end());
    if (cluster_comps.size() > 1) {
      note(rep, ViolationKind::kSplitDeadCluster, kNoVNode, w0, kInvalidNode,
           "anchors of one dead cluster scattered across RTs");
      for (int c : cluster_comps) condemn(c);
      for (NodeId w : cluster) mark_affected(w);
    }
  }

  // --- Image fidelity (I5) and multiplicity recount. -----------------------
  {
    std::vector<uint64_t> expected;
    for (NodeId u = 0; u < cap; ++u) {
      if (!core.is_alive(u)) continue;
      for (NodeId w : gp.neighbors(u))
        if (u < w && core.is_alive(w)) expected.push_back(slot_key(u, w));
    }
    for (VNodeId h = 0; h < n; ++h) {
      const VNode& r = row(h);
      if (!r.alive || mutual_parent(h) == kNoVNode) continue;
      const NodeId a = r.owner;
      const NodeId b = row(r.parent).owner;
      if (a == b || !alive(a) || !alive(b)) continue;
      expected.push_back(slot_key(std::min(a, b), std::max(a, b)));
    }
    std::vector<uint64_t> scratch;
    util::radix_sort(&expected, &scratch);
    // An image edge's multiplicity is G's presence plus its excess; the
    // excess table must hold exactly the expected edges recounted >= 2.
    const util::FlatCountMap& excess = core.image_excess();
    const Graph& g = core.image();
    size_t distinct = 0;
    size_t excess_expected = 0;
    for (size_t i = 0; i < expected.size();) {
      size_t j = i;
      while (j < expected.size() && expected[j] == expected[i]) ++j;
      ++distinct;
      const NodeId a = static_cast<NodeId>(expected[i] >> 32);
      const NodeId b = static_cast<NodeId>(expected[i] & 0xffffffffu);
      const auto recount = static_cast<int32_t>(j - i);
      const bool present = g.has_edge(a, b);
      const int32_t extra = excess.count(expected[i]);
      if (recount >= 2 && extra > 0) ++excess_expected;
      if ((present ? 1 : 0) + extra != recount)
        note(rep, ViolationKind::kMultiplicityDrift, kNoVNode, a, b,
             "image multiplicity diverges from recount");
      if (!present)
        note(rep, ViolationKind::kImageDrift, kNoVNode, a, b,
             "healed image is missing an expected edge");
      i = j;
    }
    if (excess.size() != excess_expected)
      note(rep, ViolationKind::kMultiplicityDrift, kNoVNode, kInvalidNode,
           kInvalidNode, "excess table carries phantom edges");
    if (g.edge_count() != static_cast<int64_t>(distinct))
      note(rep, ViolationKind::kImageDrift, kNoVNode, kInvalidNode,
           kInvalidNode, "healed image carries unexpected edges");
  }

  // --- Quarantine closure. -------------------------------------------------
  // Fixed point of: a condemned component orphans the anchors of its dead
  // processors (they become affected); an affected processor pulls every
  // component still holding its anchors (partial anchor sets cannot be
  // patched — the whole cluster rebuilds into one fresh RT) and, through
  // the co-location law, its entire dead cluster.
  std::vector<int> comp_queue;
  std::vector<uint8_t> comp_enqueued(static_cast<size_t>(out.n_comps), 0);
  for (int c = 0; c < out.n_comps; ++c)
    if (out.condemned[static_cast<size_t>(c)]) {
      comp_enqueued[static_cast<size_t>(c)] = 1;
      comp_queue.push_back(c);
    }
  while (!comp_queue.empty() || !proc_queue.empty()) {
    if (!comp_queue.empty()) {
      const int c = comp_queue.back();
      comp_queue.pop_back();
      out.condemned[static_cast<size_t>(c)] = 1;
      for (NodeId w : comp_dead_procs[static_cast<size_t>(c)]) mark_affected(w);
      continue;
    }
    const NodeId w = proc_queue.back();
    proc_queue.pop_back();
    for (int c : proc_leaf_comps[static_cast<size_t>(w)])
      if (!comp_enqueued[static_cast<size_t>(c)]) {
        comp_enqueued[static_cast<size_t>(c)] = 1;
        comp_queue.push_back(c);
      }
    for (NodeId x : gp.neighbors(w))
      if (!core.is_alive(x)) mark_affected(x);
  }

  out.keep.assign(static_cast<size_t>(n), 0);
  for (VNodeId h = 0; h < n; ++h) {
    if (!row(h).alive) continue;
    const int c = out.comp[static_cast<size_t>(h)];
    if (!out.condemned[static_cast<size_t>(c)])
      out.keep[static_cast<size_t>(h)] = 1;
    else
      ++out.condemned_rows;
  }
  for (int c = 0; c < out.n_comps; ++c)
    if (!out.condemned[static_cast<size_t>(c)]) ++out.kept_comps;
  for (NodeId w = 0; w < cap; ++w)
    if (affected_flag[static_cast<size_t>(w)]) out.affected.push_back(w);
  return out;
}

}  // namespace

const char* violation_kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::kRowLink: return "row-link";
    case ViolationKind::kRowAggregate: return "row-aggregate";
    case ViolationKind::kRowOwnership: return "row-ownership";
    case ViolationKind::kRowSlotBacking: return "row-slot-backing";
    case ViolationKind::kRepInvariant: return "rep-invariant";
    case ViolationKind::kHelperAncestry: return "helper-ancestry";
    case ViolationKind::kSlotGhost: return "slot-ghost";
    case ViolationKind::kSlotEdge: return "slot-edge";
    case ViolationKind::kMissingAnchor: return "missing-anchor";
    case ViolationKind::kSplitDeadCluster: return "split-dead-cluster";
    case ViolationKind::kImageDrift: return "image-drift";
    case ViolationKind::kMultiplicityDrift: return "multiplicity-drift";
  }
  return "unknown";
}

std::string AuditReport::summary() const {
  if (clean()) return "clean";
  std::ostringstream os;
  os << total << (total == 1 ? " violation:" : " violations:");
  for (int k = 0; k < kViolationKinds; ++k)
    if (counts[static_cast<size_t>(k)] > 0)
      os << ' ' << violation_kind_name(static_cast<ViolationKind>(k)) << '='
         << counts[static_cast<size_t>(k)];
  return os.str();
}

AuditReport audit(const core::StructuralCore& core) {
  return analyze(core).report;
}

RecoveryStats Stabilizer::stabilize() {
  Analysis a = analyze(fg_.core());
  RecoveryStats stats;
  stats.report = std::move(a.report);
  if (stats.report.clean()) return stats;

  stats.recovered = true;
  stats.condemned_rows = a.condemned_rows;
  stats.kept_components = a.kept_comps;
  stats.condemned_components = a.n_comps - a.kept_comps;

  // Quarantine the condemned components and rebuild all derived state from
  // ground truth, then re-anchor through the ordinary certified pipeline:
  // the affected dead processors are planned as a recovery wave, one
  // region per G'-connected slice, on a one-worker planner.
  fg_.core().rebuild_for_recovery(a.keep);
  core::RepairPlan plan = ShardedForest().plan(fg_.core(), a.affected, /*recovery=*/true);
  stats.regions = static_cast<int>(plan.regions.size());
  stats.victims = static_cast<int>(plan.victims.size());
  for (const core::RegionPlan& r : plan.regions)
    stats.anchors += static_cast<int>(r.fresh.size());
  fg_.commit_delete_batch(plan);
  return stats;
}

}  // namespace fg
