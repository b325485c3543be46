#include "fg/core/structural_core.h"

#include <algorithm>
#include <array>

#include "snap/snapshot.h"
#include "util/check.h"
#include "util/dsu.h"

namespace fg::core {

StructuralCore::StructuralCore(const Graph& g0) : gprime_(g0), g_(g0) {
  // Every G0 edge has multiplicity 1: g_ records it, the excess table
  // starts empty.
  FG_CHECK_MSG(g0.alive_count() == g0.node_capacity(),
               "initial graph must have no tombstones");
  slots_.resize(static_cast<size_t>(g0.node_capacity()));
}

uint64_t StructuralCore::edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return slot_key(u, v);
}

void StructuralCore::add_image_edge(NodeId u, NodeId v) {
  if (u == v) return;  // homomorphism collapses same-processor virtual edges
  note_image_touch(u, v);
  if (!g_.add_edge(u, v)) image_excess_.increment(edge_key(u, v));
}

void StructuralCore::drop_image_edge(NodeId u, NodeId v) {
  note_image_touch(u, v);
  if (!image_excess_.decrement(edge_key(u, v)))
    delta_scratch_.push_back({u, v, EdgeDelta::Op::kRemove});
}

void StructuralCore::flush_edge_drops() {
  FG_CHECK_MSG(g_.apply_edge_deltas(delta_scratch_) ==
                   static_cast<int>(delta_scratch_.size()),
               "image edge dropped below multiplicity zero");
}

NodeId StructuralCore::insert_node(std::span<const NodeId> neighbors) {
  ++epoch_;  // any outstanding plan is stale from here on
  // Compact here rather than at the end of a commit: the bump above already
  // stales every plan, and the wave that freed the rows has emitted its
  // certificate and delta, both of which read its handles. Snapshot replay
  // re-runs this insertion, so a restore compacts at the same position.
  if (2 * static_cast<int64_t>(forest_.live_count()) < forest_.arena_size())
    slots_.remap_handles(forest_.compact());
  NodeId id = gprime_.add_node();
  NodeId id2 = g_.add_node();
  FG_CHECK(id == id2);
  slots_.resize(static_cast<size_t>(id) + 1);
  for (NodeId y : neighbors) {
    FG_CHECK_MSG(g_.is_alive(y), "insertion neighbor must be alive");
    // add_edge rejects an edge that already exists, so a duplicate in the
    // span surfaces here — no side lookup table needed.
    FG_CHECK_MSG(gprime_.add_edge(id, y), "duplicate insertion neighbor");
    add_image_edge(id, y);
  }
  if (recorder_ != nullptr) recorder_->on_insert(id, neighbors);
  return id;
}

namespace {

/// Lemma 1: an RT's height is at most 31, so a chain from any vnode up to
/// its root has at most 32 nodes.
constexpr int kMaxChain = 32;

/// Initial table sizing: dirty handles expected per slot entry of the
/// wave's victims. A slot holds a leaf and usually a helper, and their
/// chains share most ancestors: the churn stream (n = 2^16, 64-victim
/// waves) averages 9.6, so a typical wave never rehashes.
constexpr size_t kDirtyPerSlot = 12;

/// Mark dead vnode `h` of wave position `victim` and walk up its chain
/// until the RT root or the first ancestor an earlier walk marked, then
/// set every cell the walk added to the chain's root. A root the walk
/// reaches itself is appended to `*roots` with `victim` as its claimant.
/// Returns the victim of the earlier walk it met (the two share an RT), or
/// -1. A cell of the walk's own path still has no root, so meeting one
/// means a parent cycle; both that and a chain over Lemma 1's bound abort
/// instead of spinning.
int walk_dirty_chain(const VirtualForest& forest, VNodeId h, int victim,
                     DirtySet* dirty, std::vector<std::pair<VNodeId, int>>* roots) {
  dirty->reserve_more(kMaxChain);
  std::array<DirtySet::Cell*, kMaxChain> path;
  int len = 0;
  DirtySet::Cell* c = dirty->insert(h);
  c->dead = true;
  VNodeId root = kNoVNode;
  int met = -1;
  for (VNodeId x = h;;) {
    if (c->victim >= 0) {
      FG_CHECK_MSG(c->root != kNoVNode, "parent cycle on a dirty chain");
      root = c->root;
      met = c->victim;
      break;
    }
    c->victim = victim;
    path[static_cast<size_t>(len++)] = c;
    const VNodeId p = forest.node(x).parent;
    if (p == kNoVNode) {
      root = x;
      roots->push_back({x, victim});
      break;
    }
    FG_CHECK_MSG(len < kMaxChain, "dirty chain longer than Lemma 1 allows");
    c = dirty->insert(p);
    x = p;
  }
  for (int i = 0; i < len; ++i) path[static_cast<size_t>(i)]->root = root;
  return met;
}

}  // namespace

void DirtySet::reserve_more(size_t more) {
  size_t cap = cells_.empty() ? 16 : cells_.size();
  while (cap < 2 * (size_ + more)) cap <<= 1;
  if (cap != cells_.size()) rehash(cap);
}

DirtySet::Cell* DirtySet::insert(VNodeId h) {
  size_t i = home_of(h);
  while (cells_[i].h != kNoVNode && cells_[i].h != h) i = (i + 1) & mask_;
  if (cells_[i].h == kNoVNode) {
    FG_DCHECK(2 * (size_ + 1) <= cells_.size());
    cells_[i].h = h;
    ++size_;
  }
  return &cells_[i];
}

void DirtySet::rehash(size_t capacity) {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(capacity, Cell{});
  mask_ = capacity - 1;
  for (const Cell& c : old) {
    if (c.h == kNoVNode) continue;
    size_t i = home_of(c.h);
    while (cells_[i].h != kNoVNode) i = (i + 1) & mask_;
    cells_[i] = c;
  }
}

DeletionAnalysis StructuralCore::analyze_deletion(std::span<const NodeId> victims,
                                                  bool recovery) const {
  // A recovery wave may be empty: it still commits the re-derived state
  // and emits its certificate.
  FG_CHECK_MSG(recovery || !victims.empty(), "empty deletion batch");
  DeletionAnalysis a;
  a.recovery = recovery;
  a.victims.assign(victims.begin(), victims.end());
  const int k = static_cast<int>(victims.size());

  // Wave membership and positions as sorted flat arrays: one sort up
  // front, then every probe is a binary search over contiguous memory.
  a.victim_sorted = a.victims;
  std::sort(a.victim_sorted.begin(), a.victim_sorted.end());
  FG_CHECK_MSG(std::adjacent_find(a.victim_sorted.begin(), a.victim_sorted.end()) ==
                   a.victim_sorted.end(),
               "duplicate victim in batch");
  std::vector<std::pair<NodeId, int>> wave_index;  // (victim, wave position)
  wave_index.reserve(victims.size());
  for (int i = 0; i < k; ++i) {
    NodeId v = a.victims[static_cast<size_t>(i)];
    if (recovery)
      FG_CHECK_MSG(v >= 0 && v < g_.node_capacity() && !g_.is_alive(v) && slots_.count(v) == 0,
                   "recovery victim must be a dead processor with no slots");
    else
      FG_CHECK_MSG(g_.is_alive(v), "deleting a dead or unknown processor");
    wave_index.push_back({v, i});
  }
  std::sort(wave_index.begin(), wave_index.end());

  // 1. The virtual nodes of the deleted processors — one real node per edge
  //    to an already-deleted neighbor, plus every helper they simulate —
  //    and the region partition. Two victims repair together iff they are
  //    connected through shared RTs or a G' edge: a shared RT means their
  //    debris merges, and a G' edge between two victims must be healed by
  //    a structure spanning *both* neighborhoods or the network could
  //    disconnect. (A victim never has a slot keyed by another victim:
  //    slots only exist for neighbors that were already dead.)
  //
  //    The dirty region — the dead vnodes and all their ancestors; a node
  //    is clean (its subtree holds no dead vnode) iff it is not dirty — is
  //    marked by one walk per dead vnode that stops at the first ancestor
  //    an earlier walk marked, so every dirty node is read once. The walk
  //    also yields the RT root: a walk that meets an earlier one shares its
  //    RT, which unites the two victims (the same partition as grouping the
  //    victims by root), and a walk that reaches a root first claims it.
  size_t slot_count = 0;
  for (NodeId v : a.victims) slot_count += slots_.entries(v).size();
  a.dirty.reserve_more(kDirtyPerSlot * slot_count);
  util::Dsu dsu(k);
  std::vector<std::pair<VNodeId, int>> roots;  // (RT root, claimant wave position)
  for (int i = 0; i < k; ++i) {
    NodeId v = a.victims[static_cast<size_t>(i)];
    for (const SlotTable::Entry& slot : slots_.entries(v)) {
      for (VNodeId h : {slot.leaf, slot.helper}) {
        if (h == kNoVNode) continue;
        const int met = walk_dirty_chain(forest_, h, i, &a.dirty, &roots);
        if (met >= 0) dsu.unite(i, met);
      }
    }
    for (NodeId y : gprime_.neighbors(v)) {
      auto it = std::lower_bound(wave_index.begin(), wave_index.end(),
                                 std::pair<NodeId, int>{y, 0});
      if (it != wave_index.end() && it->first == y) dsu.unite(i, it->second);
    }
  }

  // 2. Materialize the regions in deterministic commit order: sorted by the
  //    smallest victim id they contain (the shard ordering rule). Victims
  //    keep their wave order within a region; affected roots are sorted
  //    ascending, as the single-RT path always did. Representatives are
  //    wave positions, so dense arrays over [0, k) replace the maps.
  std::vector<int> rep(static_cast<size_t>(k));
  std::vector<NodeId> min_victim(static_cast<size_t>(k), kInvalidNode);  // by rep
  for (int i = 0; i < k; ++i) {
    rep[static_cast<size_t>(i)] = dsu.find(i);
    NodeId v = a.victims[static_cast<size_t>(i)];
    NodeId& mv = min_victim[static_cast<size_t>(rep[static_cast<size_t>(i)])];
    if (mv == kInvalidNode || v < mv) mv = v;
  }
  std::vector<std::pair<NodeId, int>> order;  // (min victim id, rep)
  for (int r = 0; r < k; ++r)
    if (min_victim[static_cast<size_t>(r)] != kInvalidNode)
      order.push_back({min_victim[static_cast<size_t>(r)], r});
  std::sort(order.begin(), order.end());
  std::vector<int> seed_of_rep(static_cast<size_t>(k), -1);
  for (size_t j = 0; j < order.size(); ++j)
    seed_of_rep[static_cast<size_t>(order[j].second)] = static_cast<int>(j);

  a.seeds.resize(order.size());
  a.victim_seed.resize(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    int s = seed_of_rep[static_cast<size_t>(rep[static_cast<size_t>(i)])];
    a.victim_seed[static_cast<size_t>(i)] = s;
    a.seeds[static_cast<size_t>(s)].victims.push_back(a.victims[static_cast<size_t>(i)]);
  }
  // One entry per distinct root, claimed by the first walk to reach it;
  // sorting the roots (one per broken RT) makes each seed's list ascending.
  std::sort(roots.begin(), roots.end());
  for (const auto& [root, claimant] : roots) {
    int s = seed_of_rep[static_cast<size_t>(rep[static_cast<size_t>(claimant)])];
    a.seeds[static_cast<size_t>(s)].roots.push_back(root);
  }
  return a;
}

void StructuralCore::plan_region(const DeletionAnalysis& analysis, int region,
                                 RegionPlan* out) const {
  const DeletionAnalysis::Seed& seed = analysis.seeds[static_cast<size_t>(region)];
  out->id = region;
  out->victims = seed.victims;
  out->roots = seed.roots;

  // Break-phase script: the Strip of Section 4.1.1 over each affected RT,
  // recorded instead of applied.
  for (VNodeId r : seed.roots) collect_events(r, analysis, out);

  // Surviving direct neighbors lose their edge to the victim and contribute
  // a fresh real node (a trivial one-node RT) for the edge slot (y, v). An
  // edge between two victims spawns no real node: both endpoints die, so
  // nobody survives to simulate one (exactly the state sequential deletions
  // converge to). A recovery wave re-anchors exactly the dead edges the
  // quarantine left bare.
  for (NodeId v : seed.victims) {
    for (NodeId y : gprime_.neighbors(v)) {
      if (!g_.is_alive(y) || analysis.is_victim(y)) continue;
      FG_CHECK_MSG(!analysis.recovery || slots_.find(y, v) == nullptr,
                   "recovery planning a victim that still has anchors");
      out->fresh.push_back({y, v});
    }
  }

  // Victim-victim G' edges, in the exact order the break drops them. Both
  // endpoints always land in the same region (a shared G' edge unites
  // them), so recording the pairs here lets one region's break run with no
  // wave-wide lookup at all. A recovery wave's victims died long ago: their
  // image edges are gone, so there is nothing to drop.
  if (!analysis.recovery)
    for (NodeId v : seed.victims)
      for (NodeId y : gprime_.neighbors(v))
        if (v < y && analysis.is_victim(y)) out->victim_edges.push_back({v, y});

  // Merge-plan input: detached pieces in event order, then fresh leaves —
  // the same deterministic piece order the single-pass walk emitted.
  out->pieces.reserve(out->events.size() + out->fresh.size());
  for (const RegionPlan::Event& e : out->events)
    if (e.is_piece) out->pieces.push_back(piece_info(e.h));
  for (const RegionPlan::FreshLeaf& f : out->fresh)
    out->pieces.push_back({1, slot_key(f.owner, f.dead)});

  out->steps = haft::merge_plan(out->pieces);
}

void StructuralCore::finalize_plan(const DeletionAnalysis& analysis,
                                   RepairPlan* plan) const {
  plan->victims = analysis.victims;
  plan->recovery = analysis.recovery;
  plan->epoch = epoch_;
  // The arena-id reservation: region r's commit allocates exactly its
  // anchor leaves plus one helper per merge step, so contiguous handle
  // ranges follow from region order by prefix sums — any commit schedule
  // lands every vnode at the same handle (contract C4).
  const int arena_start = forest_.arena_size();
  int next_handle = arena_start;
  for (RegionPlan& region : plan->regions) {
    region.arena_base = next_handle;
    next_handle += static_cast<int>(region.fresh.size() + region.steps.size());
  }
  plan->arena_start = arena_start;
  plan->arena_total = next_handle - arena_start;
  // Region ids are seed indices, so the per-victim region assignment is
  // the analysis' victim_seed verbatim — no lookup table.
  plan->victim_region = analysis.victim_seed;
}

void StructuralCore::collect_events(VNodeId root, const DeletionAnalysis& analysis,
                                    RegionPlan* out) const {
  FG_CHECK_MSG(analysis.is_dirty(root), "collecting from an unbroken RT");

  // Explicit worklist, left child before right child before the node itself
  // — the same order as the natural recursion, so the piece sequence (and
  // the dist engine's message sequence, read off it) is unchanged. Only dirty nodes and the
  // right spines of their clean children are ever visited: a clean perfect
  // subtree becomes a piece at first touch, in O(1), without being entered.
  // The recorded decisions stay valid at commit time because the commit
  // only clears links and tombstones nodes of this very script — the
  // leaf_count/height fields is_perfect reads are never touched.
  struct Frame {
    VNodeId h;
    VNodeId left = kNoVNode;
    VNodeId right = kNoVNode;
    int stage = 0;
    bool dead = false;
  };
  std::vector<Frame> stack;
  stack.push_back({root});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.stage == 0) {
      // One probe answers both questions: dirty, and if so, dead.
      const DirtySet::Cell* c = analysis.dirty.find(f.h);
      if (c == nullptr && forest_.is_perfect(f.h)) {
        // Maximal clean perfect subtree: the next piece, detached whole.
        out->events.push_back({true, f.h});
        stack.pop_back();
        continue;
      }
      // Dead, red, or clean-but-imperfect: decompose.
      const auto& n = forest_.node(f.h);
      f.left = n.left;
      f.right = n.right;
      f.dead = c != nullptr && c->dead;
      f.stage = 1;
      if (f.left != kNoVNode) stack.push_back({f.left});
    } else if (f.stage == 1) {
      f.stage = 2;
      if (f.right != kNoVNode) stack.push_back({f.right});
    } else {
      out->events.push_back({false, f.h});
      if (!f.dead) ++out->red_teardowns;  // red helper
      stack.pop_back();
    }
  }
}

void StructuralCore::begin_break(const RepairPlan& plan) {
  // A stale plan — any mutation since planning, even one that left the
  // arena size unchanged (a teardown-only repair) — would replay a script
  // over state it no longer describes; fail loudly instead.
  FG_CHECK_MSG(plan.epoch == epoch_,
               "committing a stale plan: core mutated since planning");
  ++epoch_;
  FG_CHECK_MSG(plan.arena_start == forest_.arena_size(),
               "committing a stale plan: arena moved since planning");
  VNodeId base = forest_.reserve_range(plan.arena_total);
  FG_CHECK(base == plan.arena_start);
  last_repair_ = RepairStats{};
  last_repair_.regions = static_cast<int>(plan.regions.size());
  for (NodeId v : plan.victims) {
    // A recovery wave re-anchors processors that are already dead; a
    // deletion wave kills live ones. Either way, a liveness flip since
    // planning means the plan is stale.
    if (plan.recovery)
      FG_CHECK_MSG(!g_.is_alive(v), "recovery plan names a live processor");
    else
      FG_CHECK_MSG(g_.is_alive(v), "committing a stale plan: victim already dead");
    last_repair_.deleted_degree_gprime += gprime_.degree(v);
  }
}

std::vector<VNodeId> StructuralCore::break_region(const RegionPlan& region,
                                                  BreakEffects* effects) {
  // Everything mutated below is region-local — this region's own forest
  // nodes (unlinks, uncounted tombstones) and its anchor leaves. Shared
  // state (excess table, image graph, slot tables, counters, the forest's
  // live count) is only ever *recorded*, which is what makes disjoint
  // regions safe to break concurrently (docs/CONCURRENCY.md, the
  // break-effects argument); apply_break_effects folds it in.
  FG_CHECK_MSG(effects != nullptr, "break_region records into a BreakEffects buffer");
  effects->reset();
  effects->affected_rts = static_cast<int>(region.roots.size());
  effects->edge_drops.reserve(region.events.size() + region.fresh.size() +
                              region.victim_edges.size());
  std::vector<VNodeId> out;
  out.reserve(region.pieces.size());

  // Replay the break-phase script: detach pieces, tear down dead and red
  // nodes (children always precede their parent in the script). Each loses
  // the image edge to its RT parent.
  for (const RegionPlan::Event& e : region.events) {
    const auto& n = forest_.node(e.h);
    const NodeId parent_owner =
        n.parent == kNoVNode ? kInvalidNode : forest_.node(n.parent).owner;
    if (parent_owner != kInvalidNode) effects->edge_drops.push_back({n.owner, parent_owner});
    if (e.is_piece) {
      forest_.unlink_from_parent(e.h);
      out.push_back(e.h);
    } else {
      effects->slot_ops.push_back({n.owner, n.other, e.h, n.is_leaf, false});
      forest_.remove_uncounted(e.h);
      ++effects->teardowns;
    }
  }

  // Spawn the anchor leaves and record the victims' surviving image edges
  // for the stitch to drop. The j-th fresh leaf lands at its plan-time
  // handle arena_base + j; the region's helpers follow in the same range.
  VNodeId leaf = region.arena_base;
  for (const RegionPlan::FreshLeaf& f : region.fresh) {
    // In a deletion wave f.dead is a victim still alive at this point, so
    // its image edge to the surviving owner drops. In a recovery wave
    // (RepairPlan::recovery) f.dead died long ago and the edge is already
    // gone — the anchor simply re-materializes.
    if (g_.is_alive(f.dead)) effects->edge_drops.push_back({f.dead, f.owner});
    forest_.make_leaf_in(leaf, f.owner, f.dead);
    effects->slot_ops.push_back({f.owner, f.dead, leaf, true, true});
    ++effects->new_leaves;
    out.push_back(leaf++);
  }

  // Edges between two victims lose their image edge too; both endpoints
  // are in this region (G'-adjacent victims always share one), and the
  // pairs were fixed at plan time (RegionPlan::victim_edges).
  for (const auto& [v, y] : region.victim_edges) effects->edge_drops.push_back({v, y});

  FG_CHECK_MSG(out.size() == region.pieces.size(),
               "committed piece set diverged from the plan");
  return out;
}

void StructuralCore::apply_break_effects(const RegionPlan& region,
                                         const BreakEffects& effects) {
  last_repair_.affected_rts += effects.affected_rts;
  last_repair_.helpers_removed += region.red_teardowns;
  last_repair_.new_leaves += effects.new_leaves;
  last_repair_.pieces += static_cast<int>(region.pieces.size());

  // The batched stitch: replay every drop in break order — each consumes
  // the edge's excess first, and only a drop that finds none queues the
  // edge's removal — then flip the image edges in one
  // Graph::apply_edge_deltas pass. Each undirected edge reaches zero at
  // most once per wave (the break only ever drops), so the batch contract
  // holds, and flush_edge_drops FG_CHECKs it.
  delta_scratch_.clear();
  for (const auto& [u, v] : effects.edge_drops)
    if (u != v) drop_image_edge(u, v);  // homomorphism collapses same-processor edges
  flush_edge_drops();

  // Replay the slot writes in script order. Every teardown's slot entry
  // must still hold its handle: victims are alive until finish_break, so
  // no owner's table has been wiped yet.
  for (const BreakEffects::SlotOp& op : effects.slot_ops) {
    if (op.attach) {
      SlotTable::Entry& s = slots_.ensure(op.owner, op.other);
      FG_CHECK(s.leaf == kNoVNode && s.helper == kNoVNode);
      s.leaf = op.h;  // only anchor leaves attach during a break
    } else {
      SlotTable::Entry* s = slots_.find(op.owner, op.other);
      FG_CHECK(s != nullptr);
      if (op.is_leaf) {
        FG_CHECK(s->leaf == op.h);
        s->leaf = kNoVNode;
      } else {
        FG_CHECK(s->helper == op.h);
        s->helper = kNoVNode;
      }
      if (s->leaf == kNoVNode && s->helper == kNoVNode) slots_.erase(op.owner, op.other);
    }
  }
  forest_.credit_removals(effects.teardowns);
}

void StructuralCore::finish_break(const RepairPlan& plan) {
  // Recovery victims are already dead — there is nothing to kill.
  if (plan.recovery) return;
  // The processors themselves die. All of their image edges must be gone.
  for (NodeId v : plan.victims) {
    slots_.clear(v);
    FG_CHECK_MSG(g_.degree(v) == 0, "image bookkeeping left edges on a deleted node");
    g_.remove_node(v);
  }
}

VNodeId StructuralCore::merge_region(const RegionPlan& region,
                                     std::vector<VNodeId>&& pieces,
                                     MergeEffects* effects) {
  FG_CHECK_MSG(effects != nullptr, "merge_region records into a MergeEffects buffer");
  FG_CHECK(pieces.size() == region.pieces.size());
  effects->reset();
  if (pieces.empty()) return kNoVNode;
  FG_CHECK_MSG(region.arena_base >= 0, "merge_region requires a reserved plan");
  pieces.reserve(pieces.size() + region.steps.size());
  effects->image_edges.reserve(2 * region.steps.size());
  // The region's helpers live right after its fresh leaves in the reserved
  // range; step s constructs handle arena_base + fresh + s. Everything
  // below touches region-local state only — the helper's reserved slot in
  // the pre-grown arena, the children's parent links, and the (existing)
  // slot entry of the representative leaf — which is why disjoint regions
  // can run this concurrently (docs/CONCURRENCY.md, the reservation
  // argument); shared-state writes are recorded, not applied.
  VNodeId next = region.arena_base + static_cast<VNodeId>(region.fresh.size());
  for (const auto& step : region.steps) {
    VNodeId l = pieces[static_cast<size_t>(step.left)];
    VNodeId r = pieces[static_cast<size_t>(step.right)];
    // Representative mechanism (Algorithm A.9): the left tree's
    // representative simulates the new helper; the merged root inherits
    // the right tree's representative.
    const auto& rep = forest_.node(forest_.node(l).rep);
    NodeId rep_owner = rep.owner;
    NodeId rep_other = rep.other;
    NodeId left_owner = forest_.node(l).owner;
    NodeId right_owner = forest_.node(r).owner;
    VNodeId h = forest_.make_helper_in(next++, rep_owner, rep_other, l, r);
    // In-place write to an existing entry: concurrent merges never insert
    // or erase slots, so the flat entry arrays are stable and disjoint
    // regions write disjoint entries (slot_table.h's concurrency contract).
    SlotTable::Entry* slot = slots_.find(rep_owner, rep_other);
    FG_CHECK_MSG(slot != nullptr, "representative leaf has no slot entry");
    FG_CHECK_MSG(slot->helper == kNoVNode,
                 "representative already simulates a helper");
    slot->helper = h;
    effects->image_edges.push_back({rep_owner, left_owner});
    effects->image_edges.push_back({rep_owner, right_owner});
    ++effects->helpers_created;
    FG_CHECK(static_cast<int>(pieces.size()) == step.result);
    pieces.push_back(h);
  }
  effects->root = pieces.back();
  return pieces.back();
}

VNodeId StructuralCore::apply_merge_effects(const MergeEffects& effects) {
  // The stitch applies each recorded edge through the funnel, in join
  // order: a key recorded k times lands as one G edge plus k - 1 excess.
  for (const auto& [u, v] : effects.image_edges) add_image_edge(u, v);
  last_repair_.helpers_created += effects.helpers_created;
  if (effects.root != kNoVNode)
    last_repair_.final_rt_leaves += forest_.node(effects.root).leaf_count;
  return effects.root;
}

void StructuralCore::check_reservation_settled(const RepairPlan& plan) const {
  FG_CHECK_MSG(forest_.unconstructed_in(plan.arena_start,
                                        plan.arena_start + plan.arena_total) == 0,
               "arena reservation not fully constructed after commit");
}

haft::PieceInfo StructuralCore::piece_info(VNodeId root) const {
  const auto& n = forest_.node(root);
  FG_CHECK(forest_.is_perfect(root));
  const auto& rep = forest_.node(n.rep);
  return {n.leaf_count, slot_key(rep.owner, rep.other)};
}

int StructuralCore::helper_count(NodeId v) const {
  FG_CHECK(v >= 0 && v < gprime_.node_capacity());
  int count = 0;
  for (const SlotTable::Entry& slot : slots_.entries(v))
    if (slot.helper != kNoVNode) ++count;
  return count;
}

std::vector<VNodeId> StructuralCore::slot_roots(NodeId v) const {
  FG_CHECK(v >= 0 && v < gprime_.node_capacity());
  std::vector<VNodeId> roots;
  for (const SlotTable::Entry& slot : slots_.entries(v))
    for (VNodeId h : {slot.leaf, slot.helper})
      if (h != kNoVNode) roots.push_back(forest_.root_of(h));
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

namespace {

/// Structural pre-validation of a deserialized arena against the processor
/// table: every alive row must name an alive owner, an in-range far
/// endpoint, links into alive in-range rows, and sane aggregates. Returns
/// an empty string when clean — from_base_image runs this before handing
/// rows to any Graph/forest call whose FG_CHECKs would abort the process.
template <class IsAlive>
std::string check_arena_rows(const std::vector<VirtualForest::VNode>& rows,
                             NodeId capacity, IsAlive&& is_alive) {
  const auto arena = static_cast<VNodeId>(rows.size());
  for (VNodeId h = 0; h < arena; ++h) {
    const auto& n = rows[static_cast<size_t>(h)];
    if (!n.alive) continue;
    if (n.owner < 0 || n.owner >= capacity || !is_alive(n.owner))
      return "forest row " + std::to_string(h) + ": owner is not an alive processor";
    if (n.other < 0 || n.other >= capacity)
      return "forest row " + std::to_string(h) + ": far endpoint out of range";
    for (VNodeId l : {n.parent, n.left, n.right})
      if (l != kNoVNode && (l < 0 || l >= arena || !rows[static_cast<size_t>(l)].alive))
        return "forest row " + std::to_string(h) + ": link outside the live arena";
    if (n.rep != kNoVNode && (n.rep < 0 || n.rep >= arena))
      return "forest row " + std::to_string(h) + ": representative out of range";
  }
  return {};
}

/// Narrow a snapshot row into a 32-byte VNode, or return false when its
/// aggregates lie outside Lemma 1's range (VirtualForest::aggregates_fit).
/// The check reads the wide wire values, so nothing is ever truncated.
bool narrow_row(const snap::VRow& r, VirtualForest::VNode* n) {
  if (!VirtualForest::aggregates_fit(r.leaf_count, r.height)) return false;
  n->owner = r.owner;
  n->other = r.other;
  n->parent = r.parent;
  n->left = r.left;
  n->right = r.right;
  n->rep = r.rep;
  n->leaf_count = static_cast<int32_t>(r.leaf_count);
  n->height = static_cast<int16_t>(r.height);
  n->is_leaf = r.is_leaf;
  n->alive = r.alive;
  return true;
}

}  // namespace

template <typename Out>
void StructuralCore::emit_base(Out& out) const {
  // G' edges in canonical (u, v) order, independent of how they
  // accumulated: v ascends and each neighbour view is sorted.
  const NodeId capacity = gprime_.node_capacity();
  out.begin_gprime(static_cast<uint32_t>(capacity), static_cast<uint64_t>(gprime_.edge_count()));
  for (NodeId v = 0; v < capacity; ++v) {
    NeighborView nb = gprime_.neighbors(v);
    for (const NodeId* w = std::upper_bound(nb.begin(), nb.end(), v); w != nb.end(); ++w)
      out.edge(static_cast<uint32_t>(v), static_cast<uint32_t>(*w));
  }

  uint64_t dead = 0;
  for (NodeId v = 0; v < capacity; ++v) dead += g_.is_alive(v) ? 0 : 1;
  out.begin_live(dead);
  for (NodeId v = 0; v < capacity; ++v)
    if (!g_.is_alive(v)) out.dead(static_cast<uint32_t>(v));

  const auto& arena = forest_.dump();
  out.begin_forest(arena.size(), forest_.live_count());
  for (const auto& n : arena)
    out.row({n.owner, n.other, n.parent, n.left, n.right, n.rep, n.height, n.leaf_count,
             n.is_leaf, n.alive});

  uint64_t slots = 0;
  for (NodeId v = 0; v < capacity; ++v) slots += static_cast<uint64_t>(slots_.count(v));
  out.begin_slots(slots);
  for (NodeId v = 0; v < capacity; ++v)
    for (const SlotTable::Entry& s : slots_.entries(v))
      out.slot({static_cast<uint32_t>(v), s.other, s.leaf, s.helper});

  // MULT walks G's sorted adjacency (u < w), which is already in (u, v)
  // order: each edge counts its first unit plus its excess.
  out.begin_mult(static_cast<uint64_t>(g_.edge_count()));
  for (NodeId u = 0; u < g_.node_capacity(); ++u) {
    NeighborView nb = g_.neighbors(u);
    for (const NodeId* w = std::upper_bound(nb.begin(), nb.end(), u); w != nb.end(); ++w)
      out.mult({static_cast<uint32_t>(u), static_cast<uint32_t>(*w),
                1 + image_excess_.count(edge_key(u, *w))});
  }
}

namespace {

/// emit_base's collector for to_base_image: each section into its vector.
struct ImageCollector {
  snap::BaseImage* image;

  void begin_gprime(uint32_t capacity, uint64_t edges) {
    image->capacity = capacity;
    image->gprime_edges.clear();
    image->gprime_edges.reserve(edges);
  }
  void edge(uint32_t u, uint32_t v) { image->gprime_edges.push_back({u, v}); }
  void begin_live(uint64_t dead) {
    image->dead.clear();
    image->dead.reserve(dead);
  }
  void dead(uint32_t v) { image->dead.push_back(v); }
  void begin_forest(uint64_t rows, int64_t forest_live) {
    image->forest_live = forest_live;
    image->rows.clear();
    image->rows.reserve(rows);
  }
  void row(const snap::VRow& r) { image->rows.push_back(r); }
  void begin_slots(uint64_t slots) {
    image->slots.clear();
    image->slots.reserve(slots);
  }
  void slot(const snap::BaseImage::SlotEntry& e) { image->slots.push_back(e); }
  void begin_mult(uint64_t mult) {
    image->mult.clear();
    image->mult.reserve(mult);
  }
  void mult(const snap::BaseImage::MultEntry& m) { image->mult.push_back(m); }
};

}  // namespace

void StructuralCore::to_base_image(snap::BaseImage* out) const {
  out->epoch = epoch_;
  ImageCollector collector{out};
  emit_base(collector);
}

void StructuralCore::stream_base_image(snap::BaseEncoder* enc, uint64_t wave,
                                       uint64_t cursor) const {
  enc->header(wave, epoch_, cursor);
  emit_base(*enc);
}

std::string StructuralCore::derive_state(std::vector<std::pair<uint64_t, int32_t>>* mult) {
  const NodeId capacity = gprime_.node_capacity();

  // The slot table: one registration per alive row. The same walk collects
  // each cross-processor parent link's edge key.
  slots_ = SlotTable{};
  slots_.resize(static_cast<size_t>(capacity));
  std::vector<uint64_t> links;
  const auto& nodes = forest_.dump();
  for (VNodeId h = 0; h < static_cast<VNodeId>(nodes.size()); ++h) {
    const auto& n = nodes[static_cast<size_t>(h)];
    if (!n.alive) continue;
    SlotTable::Entry& s = slots_.ensure(n.owner, n.other);
    VNodeId& field = n.is_leaf ? s.leaf : s.helper;
    if (field != kNoVNode)
      return n.is_leaf ? "slot leaf double-booked" : "slot helper double-booked";
    field = h;
    if (n.parent != kNoVNode) {
      const NodeId p = nodes[static_cast<size_t>(n.parent)].owner;
      if (p != n.owner) links.push_back(edge_key(n.owner, p));
    }
  }
  std::sort(links.begin(), links.end());

  // The multiplicities: one merge of the alive-alive G' edges (ascending,
  // as the sorted adjacency yields them) with the sorted links, counting
  // each key's run.
  std::vector<std::pair<uint64_t, int32_t>> counts;
  counts.reserve(static_cast<size_t>(gprime_.edge_count()) + links.size());
  auto count = [&counts](uint64_t key) {
    if (!counts.empty() && counts.back().first == key)
      ++counts.back().second;
    else
      counts.emplace_back(key, 1);
  };
  size_t li = 0;
  for (NodeId u = 0; u < capacity; ++u) {
    if (!g_.is_alive(u)) continue;
    NeighborView nb = gprime_.neighbors(u);
    for (const NodeId* w = std::upper_bound(nb.begin(), nb.end(), u); w != nb.end(); ++w) {
      if (!g_.is_alive(*w)) continue;
      const uint64_t key = slot_key(u, *w);
      while (li < links.size() && links[li] < key) count(links[li++]);
      count(key);
    }
  }
  while (li < links.size()) count(links[li++]);

  // G: an edge per key, bulk-loaded over g_'s liveness (a recovery first
  // clears the edges it had). With nobody dead and no link every
  // multiplicity is one, so G is G' — pool and all.
  if (g_.alive_count() == capacity && links.empty()) {
    g_ = gprime_;
  } else {
    if (g_.edge_count() != 0) {
      Graph g(static_cast<int>(capacity));
      for (NodeId v = 0; v < capacity; ++v)
        if (!g_.is_alive(v)) g.remove_node(v);
      g_ = std::move(g);
    }
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    edges.reserve(counts.size());
    for (const auto& [key, c] : counts)
      edges.emplace_back(static_cast<uint32_t>(key >> 32),
                         static_cast<uint32_t>(key & 0xFFFFFFFFu));
    g_.add_edges_bulk(edges);
  }

  // The excess table: count - 1 for the keys of multiplicity >= 2.
  std::vector<std::pair<uint64_t, int32_t>> excess;
  for (const auto& [key, c] : counts)
    if (c >= 2) excess.emplace_back(key, c - 1);
  image_excess_ = util::FlatCountMap{};
  image_excess_.load(excess);
  if (mult != nullptr) *mult = std::move(counts);
  return {};
}

bool StructuralCore::from_base_image(const snap::BaseImage& image, StructuralCore* out,
                                     std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };

  StructuralCore core;
  const NodeId capacity = static_cast<NodeId>(image.capacity);
  if (capacity < 0) return fail("capacity overflows NodeId");
  core.gprime_ = Graph(static_cast<int>(capacity));
  core.g_ = Graph(static_cast<int>(capacity));

  // Liveness first, straight into G (the sections below validate against
  // it; derive_state lays G's edges over it last).
  for (uint32_t v : image.dead) {
    if (v >= image.capacity) return fail("dead id out of range");
    if (!core.g_.is_alive(static_cast<NodeId>(v))) return fail("duplicate dead id");
    core.g_.remove_node(static_cast<NodeId>(v));
  }

  // Validate the G' section against the canonical on-disk order (strictly
  // ascending (u, v) with u < v — exactly what to_base_image emits), then
  // hand the whole list to the graph's bulk loader: O(E) appends instead of
  // one sorted insert per edge endpoint.
  {
    uint64_t prev_key = 0;
    for (const auto& [eu, ev] : image.gprime_edges) {
      if (eu >= image.capacity || ev >= image.capacity || eu == ev)
        return fail("G' edge endpoint out of range");
      if (eu > ev) return fail("duplicate or out-of-order G' edge");
      uint64_t key = slot_key(static_cast<NodeId>(eu), static_cast<NodeId>(ev));
      if (key <= prev_key) return fail("duplicate or out-of-order G' edge");
      prev_key = key;
    }
  }
  core.gprime_.add_edges_bulk(image.gprime_edges);

  std::vector<VirtualForest::VNode> arena;
  arena.reserve(image.rows.size());
  for (const snap::VRow& r : image.rows) {
    VirtualForest::VNode n;
    if (!narrow_row(r, &n))
      return fail("forest row " + std::to_string(arena.size()) +
                  ": aggregates out of range");
    arena.push_back(n);
  }
  if (std::string why = check_arena_rows(arena, capacity,
                                         [&](NodeId v) { return core.g_.is_alive(v); });
      !why.empty())
    return fail(std::move(why));
  core.forest_ = VirtualForest::from_dump(std::move(arena));
  if (core.forest_.live_count() != image.forest_live)
    return fail("forest live count disagrees with the rows");

  // Derive the slot table, G and the excess table from ground truth, then
  // hold the image's recorded SLOT and MULT sections against them: a base
  // whose derived sections disagree with its own forest was written by a
  // buggy producer or corrupted without tripping a CRC — refuse it.
  std::vector<std::pair<uint64_t, int32_t>> mult;
  if (std::string why = core.derive_state(&mult); !why.empty()) return fail(std::move(why));
  size_t slot_at = 0;
  for (NodeId v = 0; v < capacity; ++v) {
    for (const SlotTable::Entry& s : core.slots_.entries(v)) {
      if (slot_at >= image.slots.size()) return fail("SLOT section too short");
      const snap::BaseImage::SlotEntry& rec = image.slots[slot_at++];
      if (rec.owner != static_cast<uint32_t>(v) || rec.other != s.other ||
          rec.leaf != s.leaf || rec.helper != s.helper)
        return fail("SLOT section disagrees with the forest");
    }
  }
  if (slot_at != image.slots.size()) return fail("SLOT section too long");
  // The MULT section: well-formed entries, keys strictly ascending, each
  // equal to the derived entry at its position (both lists ascend by key,
  // so this is one linear pass), nothing left over on either side.
  uint64_t prev_key = 0;
  for (size_t i = 0; i < image.mult.size(); ++i) {
    const snap::BaseImage::MultEntry& m = image.mult[i];
    if (m.u >= m.v || m.v >= image.capacity || m.count <= 0)
      return fail("malformed MULT entry");
    const uint64_t key = slot_key(static_cast<NodeId>(m.u), static_cast<NodeId>(m.v));
    if (key <= prev_key) return fail("duplicate or out-of-order MULT entry");
    prev_key = key;
    if (i >= mult.size() || mult[i].first != key || mult[i].second != m.count)
      return fail("MULT section disagrees with the rebuild");
  }
  if (mult.size() != image.mult.size()) return fail("MULT section disagrees with the rebuild");

  core.epoch_ = image.epoch;
  *out = std::move(core);
  return true;
}

bool StructuralCore::apply_wave_delta(const snap::WaveDelta& delta,
                                      std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };

  // 1. Insertions, in stream order: the delta pins each id, so replay must
  //    land on exactly the same consecutive ids the live run allocated.
  for (const snap::WaveDelta::Insert& ins : delta.inserts) {
    if (ins.id != static_cast<uint32_t>(gprime_.node_capacity()))
      return fail("insert id out of sequence");
    std::vector<NodeId> nb;
    nb.reserve(ins.neighbors.size());
    for (uint32_t y : ins.neighbors) {
      if (y >= ins.id) return fail("insert neighbor out of range");
      auto id = static_cast<NodeId>(y);
      if (!g_.is_alive(id)) return fail("insert neighbor is dead");
      nb.push_back(id);
    }
    std::vector<NodeId> dedup = nb;
    std::sort(dedup.begin(), dedup.end());
    if (std::adjacent_find(dedup.begin(), dedup.end()) != dedup.end())
      return fail("duplicate insert neighbor");
    insert_node(nb);
  }

  // 2. Forest: grow to the post-commit arena, overwrite the touched rows
  //    with their final values, settle the live count.
  const NodeId capacity = gprime_.node_capacity();
  if (delta.arena_size_after < static_cast<uint64_t>(forest_.arena_size()) ||
      delta.arena_size_after > static_cast<uint64_t>(INT32_MAX))
    return fail("arena size regressed or overflows");
  const auto arena_after = static_cast<VNodeId>(delta.arena_size_after);
  forest_.restore_grow(arena_after);
  for (const snap::WaveDelta::Row& rec : delta.rows) {
    if (rec.handle >= delta.arena_size_after) return fail("row handle out of range");
    VirtualForest::VNode n;
    if (!narrow_row(rec.row, &n)) return fail("row aggregates out of range");
    if (n.alive) {
      if (n.owner < 0 || n.owner >= capacity)
        return fail("row owner out of range");
      if (n.other < 0 || n.other >= capacity)
        return fail("row far endpoint out of range");
      for (VNodeId l : {n.parent, n.left, n.right})
        if (l != kNoVNode && (l < 0 || l >= arena_after))
          return fail("row link out of range");
      if (n.rep != kNoVNode && (n.rep < 0 || n.rep >= arena_after))
        return fail("row representative out of range");
    }
    forest_.restore_row(static_cast<VNodeId>(rec.handle), n);
  }
  if (delta.forest_live_after < 0 ||
      delta.forest_live_after > static_cast<int64_t>(delta.arena_size_after))
    return fail("forest live count out of range");
  forest_.restore_live_count(static_cast<int>(delta.forest_live_after));

  // 3. Multiplicities (final values): G's presence decides whether the
  //    edge flips, and the excess becomes max(count - 1, 0). Victims are
  //    still alive here, exactly as they were when the live wave dropped
  //    their edges to zero.
  for (const snap::WaveDelta::MultOp& m : delta.mult) {
    if (m.u >= m.v || m.v >= static_cast<uint32_t>(capacity) || m.count < 0)
      return fail("malformed multiplicity record");
    auto u = static_cast<NodeId>(m.u);
    auto v = static_cast<NodeId>(m.v);
    const bool had = g_.has_edge(u, v);
    const bool has = m.count > 0;
    image_excess_.set_count(slot_key(u, v), has ? m.count - 1 : 0);
    if (has && !had) {
      if (!g_.is_alive(u) || !g_.is_alive(v))
        return fail("image edge incident to a dead processor");
      if (!g_.add_edge(u, v)) return fail("image bookkeeping diverged (add)");
    } else if (!has && had) {
      if (!g_.remove_edge(u, v)) return fail("image bookkeeping diverged (remove)");
    }
  }

  // 4. Victims: tombstone, wipe their slot tables wholesale (mirrors
  //    finish_break — their per-slot erases are implicit).
  for (uint32_t vv : delta.victims) {
    if (vv >= static_cast<uint32_t>(capacity)) return fail("victim out of range");
    auto v = static_cast<NodeId>(vv);
    if (!g_.is_alive(v)) return fail("victim already dead");
    if (g_.degree(v) != 0) return fail("victim still has image edges");
    slots_.clear(v);
    g_.remove_node(v);
  }

  // 5. Surviving slots (final values; present == false erases).
  for (const snap::WaveDelta::SlotOp& op : delta.slots) {
    if (op.owner >= static_cast<uint32_t>(capacity) ||
        op.other >= static_cast<uint32_t>(capacity))
      return fail("slot key out of range");
    auto owner = static_cast<NodeId>(op.owner);
    auto other = static_cast<NodeId>(op.other);
    if (!op.present) {
      if (slots_.find(owner, other) != nullptr) slots_.erase(owner, other);
      continue;
    }
    if (!g_.is_alive(owner)) return fail("slot on a dead processor");
    if (op.leaf < 0 || op.leaf >= arena_after ||
        (op.helper != kNoVNode && (op.helper < 0 || op.helper >= arena_after)))
      return fail("slot handle out of range");
    SlotTable::Entry& s = slots_.ensure(owner, other);
    s.leaf = op.leaf;
    s.helper = op.helper;
  }

  epoch_ = delta.epoch_after;
  return true;
}

void StructuralCore::rebuild_for_recovery(const std::vector<uint8_t>& keep) {
  ++epoch_;  // corrupted-state surgery stales any outstanding plan

  // 1. Forest: tombstone everything outside the kept set. Kept rows must be
  //    alive, owned by alive processors and closed under links — the
  //    stabilizer's condemnation closure keeps whole components or nothing.
  std::vector<VirtualForest::VNode> rows = forest_.dump();
  FG_CHECK_MSG(keep.size() == rows.size(), "keep mask must cover the arena");
  for (size_t h = 0; h < rows.size(); ++h) {
    if (keep[h]) {
      FG_CHECK_MSG(rows[h].alive && g_.is_alive(rows[h].owner),
                   "cannot keep a tombstoned row or one on a dead processor");
      for (VNodeId l : {rows[h].parent, rows[h].left, rows[h].right})
        FG_CHECK_MSG(l == kNoVNode ||
                         (l >= 0 && static_cast<size_t>(l) < rows.size() &&
                          keep[static_cast<size_t>(l)] != 0),
                     "kept forest row links outside the kept set");
      continue;
    }
    rows[h].alive = false;
    rows[h].parent = rows[h].left = rows[h].right = kNoVNode;
  }
  forest_ = VirtualForest::from_dump(std::move(rows));

  // 2. Every derived structure from ground truth, the way a restore
  //    derives it.
  const std::string clash = derive_state(nullptr);
  FG_CHECK_MSG(clash.empty(), "kept rows double-book a slot");
}

void StructuralCore::inject_vnode_row(VNodeId h, const VirtualForest::VNode& row) {
  ++epoch_;
  std::vector<VirtualForest::VNode> rows = forest_.dump();
  FG_CHECK(h >= 0 && static_cast<size_t>(h) < rows.size());
  rows[static_cast<size_t>(h)] = row;
  forest_ = VirtualForest::from_dump(std::move(rows));
}

void StructuralCore::inject_slot(NodeId owner, NodeId other, VNodeId leaf,
                                 VNodeId helper) {
  ++epoch_;
  SlotTable::Entry& s = slots_.ensure(owner, other);
  s.leaf = leaf;
  s.helper = helper;
}

void StructuralCore::inject_erase_slot(NodeId owner, NodeId other) {
  ++epoch_;
  if (slots_.find(owner, other) != nullptr) slots_.erase(owner, other);
}

void StructuralCore::inject_image_edge_flip(NodeId u, NodeId v) {
  ++epoch_;
  if (g_.has_edge(u, v))
    g_.remove_edge(u, v);
  else
    g_.add_edge(u, v);
}

void StructuralCore::inject_multiplicity_bump(NodeId u, NodeId v) {
  ++epoch_;
  image_excess_.increment(edge_key(u, v));
}

void StructuralCore::validate() const {
  // --- I1: slot consistency.
  const NodeId capacity = gprime_.node_capacity();
  FG_CHECK(g_.node_capacity() == capacity);
  for (NodeId u = 0; u < capacity; ++u) {
    if (!g_.is_alive(u)) {
      FG_CHECK(slots_.count(u) == 0);
      continue;
    }
    for (const SlotTable::Entry& slot : slots_.entries(u)) {
      const NodeId other = slot.other;
      FG_CHECK_MSG(gprime_.has_edge(u, other), "slot without a G' edge");
      FG_CHECK_MSG(!g_.is_alive(other), "slot for an alive neighbor");
      FG_CHECK(slot.leaf != kNoVNode);  // helper implies leaf, leaf tracks dead edge
      const auto& leaf = forest_.node(slot.leaf);
      FG_CHECK(leaf.is_leaf && leaf.owner == u && leaf.other == other);
      if (slot.helper != kNoVNode) {
        const auto& h = forest_.node(slot.helper);
        FG_CHECK(!h.is_leaf && h.owner == u && h.other == other);
        // I4 (Lemma 3 corollary): the helper is an ancestor of its leaf.
        FG_CHECK_MSG(forest_.is_ancestor(slot.helper, slot.leaf),
                     "helper is not an ancestor of its real node");
      }
    }
    // Every dead G' neighbor must have a leaf slot.
    for (NodeId w : gprime_.neighbors(u))
      if (!g_.is_alive(w))
        FG_CHECK_MSG(slots_.find(u, w) != nullptr, "missing real node for dead edge");
  }

  // --- I2 + I3: forest structure, haft property, representative invariant.
  std::vector<VNodeId> seen_roots;
  for (NodeId u = 0; u < capacity; ++u)
    for (const SlotTable::Entry& slot : slots_.entries(u))
      for (VNodeId h : {slot.leaf, slot.helper})
        if (h != kNoVNode) seen_roots.push_back(forest_.root_of(h));
  std::sort(seen_roots.begin(), seen_roots.end());
  seen_roots.erase(std::unique(seen_roots.begin(), seen_roots.end()), seen_roots.end());
  for (VNodeId r : seen_roots) {
    FG_CHECK_MSG(forest_.valid_haft(r), "RT is not a haft");
    // Representative invariant on every internal node of the RT.
    for (VNodeId x : forest_.subtree_of(r)) {
      const auto& n = forest_.node(x);
      if (n.is_leaf) continue;
      int free_leaves = 0;
      VNodeId free_leaf = kNoVNode;
      for (VNodeId leaf : forest_.leaves_of(x)) {
        const auto& ln = forest_.node(leaf);
        const SlotTable::Entry* slot = slots_.find(ln.owner, ln.other);
        FG_CHECK(slot != nullptr);
        VNodeId helper = slot->helper;
        bool has_helper_inside = helper != kNoVNode && forest_.is_ancestor(x, helper);
        if (!has_helper_inside) {
          ++free_leaves;
          free_leaf = leaf;
        }
      }
      FG_CHECK_MSG(free_leaves == 1, "representative invariant violated (count)");
      FG_CHECK_MSG(free_leaf == n.rep, "representative invariant violated (identity)");
    }
  }

  // --- I5: the image graph equals a from-scratch rebuild.
  Graph rebuilt;
  for (NodeId u = 0; u < g_.node_capacity(); ++u) rebuilt.add_node();
  for (NodeId u = 0; u < g_.node_capacity(); ++u)
    if (!g_.is_alive(u)) rebuilt.remove_node(u);
  for (NodeId u = 0; u < gprime_.node_capacity(); ++u) {
    if (!g_.is_alive(u)) continue;
    for (NodeId w : gprime_.neighbors(u))
      if (u < w && g_.is_alive(w)) rebuilt.add_edge(u, w);
  }
  for (VNodeId r : seen_roots) {
    for (VNodeId x : forest_.subtree_of(r)) {
      const auto& n = forest_.node(x);
      if (n.parent == kNoVNode) continue;
      NodeId a = n.owner;
      NodeId b = forest_.node(n.parent).owner;
      if (a != b && !rebuilt.has_edge(a, b)) rebuilt.add_edge(a, b);
    }
  }
  FG_CHECK_MSG(g_.same_topology(rebuilt), "image graph diverged from rebuild");
}

}  // namespace fg::core
