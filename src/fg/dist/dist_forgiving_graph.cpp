#include "fg/dist/dist_forgiving_graph.h"

#include <algorithm>
#include <any>

#include "harness/certificate.h"
#include "util/check.h"

namespace fg::dist {

namespace {

/// Sorted-flat map probe for RegionDag::know (nullptr when absent).
const int* know_find(const std::vector<std::pair<NodeId, int>>& know, NodeId u) {
  auto it = std::lower_bound(
      know.begin(), know.end(), u,
      [](const std::pair<NodeId, int>& e, NodeId v) { return e.first < v; });
  return (it != know.end() && it->first == u) ? &it->second : nullptr;
}

/// Sorted insert-or-update for RegionDag::know.
void know_set(std::vector<std::pair<NodeId, int>>& know, NodeId u, int msg) {
  auto it = std::lower_bound(
      know.begin(), know.end(), u,
      [](const std::pair<NodeId, int>& e, NodeId v) { return e.first < v; });
  if (it != know.end() && it->first == u)
    it->second = msg;
  else
    know.insert(it, {u, msg});
}

}  // namespace

// Every structural mutation below happens inside core::StructuralCore,
// driven by the same fg::ShardedForest plan and execute the centralized
// engine runs, with the plan's arena reservation. So in kGlobalPlan mode the
// region partition, the piece order, the ComputeHaft plan, the healed
// topology and the arena bytes are identical to fg::ForgivingGraph by
// construction (the invariant the dist_equivalence and exhaustive_small
// suites pin down).
// What this file adds is the protocol layer: each repair's message DAG —
// one independent branch per dirty region — is read off the plan before the
// commit and replayed through the net::Network simulator, where all cost
// figures come from.

DistForgivingGraph::DistForgivingGraph(const Graph& g0, MergeMode mode)
    : mode_(mode), core_(g0) {
  net_.set_handler([this](NodeId /*to*/, NodeId /*from*/, const std::any& payload) {
    on_delivered(std::any_cast<int>(payload));
  });
}

// ---------------------------------------------------------------------------
// Message DAG plumbing.

int DistForgivingGraph::add_msg(NodeId from, NodeId to, int words,
                                std::vector<int> deps) {
  msgs_.push_back(DagMsg{from, to, words, std::move(deps)});
  return static_cast<int>(msgs_.size() - 1);
}

bool DistForgivingGraph::is_deleting(NodeId v) const {
  return std::binary_search(deleting_.begin(), deleting_.end(), v);
}

std::vector<int> DistForgivingGraph::know_deps(const RegionDag& dag, NodeId u) const {
  if (u == dag.coordinator) return dag.report_msgs;
  const int* msg = know_find(dag.know, u);
  FG_CHECK_MSG(msg != nullptr, "processor acts before learning the plan");
  return {*msg};
}

void DistForgivingGraph::dispatch_msg(int i) {
  const DagMsg& m = msgs_[static_cast<size_t>(i)];
  if (m.from == m.to) {
    on_delivered(i);  // local computation: free and instantaneous
  } else {
    net_.send(m.from, m.to, i, m.words);
  }
}

void DistForgivingGraph::on_delivered(int i) {
  for (int j : dependents_[static_cast<size_t>(i)])
    if (--unmet_[static_cast<size_t>(j)] == 0) dispatch_msg(j);
}

void DistForgivingGraph::run_dag() {
  unmet_.assign(msgs_.size(), 0);
  dependents_.assign(msgs_.size(), {});
  for (size_t i = 0; i < msgs_.size(); ++i)
    for (int d : msgs_[i].deps) {
      ++unmet_[i];
      dependents_[static_cast<size_t>(d)].push_back(static_cast<int>(i));
    }
  for (size_t i = 0; i < msgs_.size(); ++i)
    if (unmet_[i] == 0) dispatch_msg(static_cast<int>(i));
  if (!net_.idle()) net_.run_to_quiescence();
}

// ---------------------------------------------------------------------------
// Insertions.

NodeId DistForgivingGraph::insert(std::span<const NodeId> neighbors) {
  msgs_.clear();
  net_.stats().reset();

  NodeId id = core_.insert_node(neighbors);
  for (NodeId y : neighbors) add_msg(id, y, 2, {});  // "I am your new neighbor"
  run_dag();
  const auto& s = net_.stats();
  lifetime_.messages += s.messages;
  lifetime_.words += s.words;
  lifetime_.rounds += s.rounds;
  return id;
}

// ---------------------------------------------------------------------------
// Deletions.

void DistForgivingGraph::delete_batch(std::span<const NodeId> victims) {
  msgs_.clear();
  deleting_.assign(victims.begin(), victims.end());
  std::sort(deleting_.begin(), deleting_.end());
  net_.stats().reset();
  last_cost_ = RepairCost{};

  core::RepairPlan plan = shards_.plan(core_, victims, split_);
  harness::CertificateBuilder cert_builder;
  if (cert_sink_ != nullptr) cert_builder.begin_wave(core_, plan);

  // Teardown and detach messages, every region in id order and each in
  // break-script order, read against the pre-commit forest: a vnode's owner
  // and RT parent stay fixed until its own event runs (children precede
  // their parent in the script), so these are the endpoints the break sees.
  // Each piece remembers the message that detached it; fresh anchor leaves
  // were never attached.
  const VirtualForest& forest = core_.forest();
  std::vector<std::vector<Piece>> region_pieces(plan.regions.size());
  for (const core::RegionPlan& region : plan.regions) {
    std::vector<Piece>& pieces = region_pieces[static_cast<size_t>(region.id)];
    pieces.reserve(region.pieces.size());
    auto add_piece = [&](NodeId owner, int detach_msg) {
      const size_t i = pieces.size();
      FG_CHECK(i < region.pieces.size());
      pieces.push_back(Piece{static_cast<int>(i), region.pieces[i], owner, detach_msg});
    };
    for (const core::RegionPlan::Event& e : region.events) {
      const VirtualForest::VNode& n = forest.node(e.h);
      const NodeId parent =
          n.parent == kNoVNode ? kInvalidNode : forest.node(n.parent).owner;
      const bool notify = parent != kInvalidNode && parent != n.owner &&
                          !is_deleting(n.owner) && !is_deleting(parent);
      if (e.is_piece)  // "you are detached"
        add_piece(n.owner, notify ? add_msg(parent, n.owner, 2, {}) : -1);
      else if (notify)
        add_msg(n.owner, parent, 2, {});  // teardown notice to parent
    }
    for (const core::RegionPlan::FreshLeaf& f : region.fresh) add_piece(f.owner, -1);
    FG_CHECK(pieces.size() == region.pieces.size());
  }

  // Then each region's merge through its own independent DAG branch: its
  // own coordinator, report wave, and plan knowledge. Branches share no
  // dependencies, so when the wave's regions are disjoint the simulator
  // counts their repairs in parallel rounds. kStageWise writes its joins
  // into the region's steps: k - 1 joins for k pieces, like the merge plan
  // it replaces, so the arena reservation still holds.
  for (core::RegionPlan& region : plan.regions) {
    std::vector<Piece>& pieces = region_pieces[static_cast<size_t>(region.id)];
    std::vector<NodeId> participants;
    for (const Piece& p : pieces) participants.push_back(p.owner);
    std::sort(participants.begin(), participants.end());
    participants.erase(std::unique(participants.begin(), participants.end()),
                       participants.end());
    last_cost_.bt_edges +=
        participants.empty() ? 0 : static_cast<int>(participants.size()) - 1;

    if (pieces.empty()) continue;
    if (mode_ == MergeMode::kGlobalPlan)
      merge_global(region, std::move(pieces), participants);
    else
      region.steps = merge_stage_wise(std::move(pieces), participants);
  }

  const std::vector<VNodeId> roots = shards_.execute(core_, plan);
  const core::RepairStats& rs = core_.last_repair();
  last_cost_.deleted_degree = rs.deleted_degree_gprime;
  last_cost_.anchors = rs.new_leaves;
  last_cost_.pieces = rs.pieces;
  last_cost_.regions = static_cast<int>(plan.regions.size());

  run_dag();
  const auto& s = net_.stats();
  last_cost_.messages = s.messages;
  last_cost_.words = s.words;
  last_cost_.rounds = s.rounds;
  last_cost_.max_message_words = s.max_message_words;
  last_cost_.max_node_messages = s.max_node_sent();
  last_cost_.max_node_round_words = s.max_node_round_words;
  lifetime_.messages += s.messages;
  lifetime_.words += s.words;
  lifetime_.rounds += s.rounds;
  deleting_.clear();

  if (cert_sink_ != nullptr) {
    cert::CostClaim claim;
    claim.present = true;
    claim.messages = last_cost_.messages;
    claim.words = last_cost_.words;
    claim.rounds = last_cost_.rounds;
    claim.deleted_degree = last_cost_.deleted_degree;
    cert_sink_->on_certificate(cert_builder.end_wave(
        core_, plan, certified_waves_++, roots, &claim));
  }
}

// ---------------------------------------------------------------------------
// kGlobalPlan: report -> plan broadcast -> parallel execution (per region).

void DistForgivingGraph::merge_global(const core::RegionPlan& region,
                                      std::vector<Piece> pieces,
                                      const std::vector<NodeId>& participants) {
  FG_CHECK(!pieces.empty());
  RegionDag dag;
  dag.coordinator = participants.front();

  // Reports: every participant sends its piece list straight to the
  // coordinator (8 words per piece + header). The coordinator's own pieces
  // only gate its sends. Owners bucket into dense per-participant vectors
  // via binary search — `participants` is sorted-unique by construction and
  // every piece owner appears in it.
  auto part_idx = [&](NodeId o) {
    auto it = std::lower_bound(participants.begin(), participants.end(), o);
    FG_CHECK(it != participants.end() && *it == o);
    return static_cast<size_t>(it - participants.begin());
  };
  std::vector<std::vector<int>> detach_by_owner(participants.size());
  std::vector<int> count_by_owner(participants.size(), 0);
  for (const Piece& p : pieces) {
    size_t o = part_idx(p.owner);
    ++count_by_owner[o];
    if (p.detach_msg >= 0) detach_by_owner[o].push_back(p.detach_msg);
  }
  for (size_t mi = 0; mi < participants.size(); ++mi) {
    NodeId m = participants[mi];
    if (m == dag.coordinator) {
      for (int d : detach_by_owner[mi]) dag.report_msgs.push_back(d);
      continue;
    }
    int rep = add_msg(m, dag.coordinator, 8 * count_by_owner[mi] + 1,
                      detach_by_owner[mi]);
    dag.report_msgs.push_back(rep);
  }

  // Plan broadcast down the region's participant binary tree (heap
  // layout). The plan names every piece, so the message is O(pieces) words
  // — the price kGlobalPlan pays for O(log d + log n) rounds. A single
  // piece has a single participant: nothing to broadcast or merge.
  int bcast_words = 8 * static_cast<int>(pieces.size()) + 1;
  std::vector<int> bcast(participants.size(), -1);
  for (size_t i = 0; i < participants.size(); ++i) {
    for (size_t c : {2 * i + 1, 2 * i + 2}) {
      if (c >= participants.size()) continue;
      std::vector<int> deps = i == 0 ? dag.report_msgs : std::vector<int>{bcast[i]};
      bcast[c] = add_msg(participants[i], participants[c], bcast_words,
                         std::move(deps));
      know_set(dag.know, participants[c], bcast[c]);
    }
  }

  // The deterministic ComputeHaft steps straight from the region's plan —
  // literally the object merge_region replays in both engines, hence the
  // identical topology (and no second planning pass). Execution is fully
  // parallel: every helper owner knows the whole plan and links its join's
  // children without waiting.
  for (const auto& step : region.steps) {
    const Piece& l = pieces[static_cast<size_t>(step.left)];
    const Piece& r = pieces[static_cast<size_t>(step.right)];
    NodeId u = l.rep_owner();
    if (u != dag.coordinator && know_find(dag.know, u) == nullptr) {
      // The left root's owner forwards the relevant plan excerpt to the
      // representative that must act (it is a leaf owner, not necessarily a
      // participant).
      know_set(dag.know, u, add_msg(l.owner, u, 4, know_deps(dag, l.owner)));
    }
    std::vector<int> kd = know_deps(dag, u);
    if (u != l.owner) add_msg(u, l.owner, 2, kd);
    if (u != r.owner) add_msg(u, r.owner, 2, kd);
    FG_CHECK(static_cast<int>(pieces.size()) == step.result);
    pieces.push_back(Piece::join(l, r, step.result));
  }
}

// ---------------------------------------------------------------------------
// kStageWise: BottomupRTMerge — carry-merge at every aggregation stage,
// per region.

std::vector<haft::MergeStep> DistForgivingGraph::merge_stage_wise(
    std::vector<Piece> pieces, const std::vector<NodeId>& participants) {
  FG_CHECK(!pieces.empty());
  const int k = static_cast<int>(pieces.size());
  std::vector<haft::MergeStep> steps;  // every stage's joins, in execution order
  steps.reserve(pieces.size() - 1);

  // `participants` is sorted-unique and contains every piece owner, so a
  // binary search replaces the old member-index hash map.
  auto member_idx = [&](NodeId o) {
    auto it = std::lower_bound(participants.begin(), participants.end(), o);
    FG_CHECK(it != participants.end() && *it == o);
    return static_cast<size_t>(it - participants.begin());
  };

  std::vector<std::vector<Piece>> lists(participants.size());
  std::vector<std::vector<int>> ready(participants.size());
  for (const Piece& p : pieces) {
    size_t i = member_idx(p.owner);
    lists[i].push_back(p);
    if (p.detach_msg >= 0) ready[i].push_back(p.detach_msg);
  }

  // Execute the carry plan for stage `i`; `chain` additionally runs the
  // final ascending chain (coordinator only). Orders go out to each helper
  // owner as soon as the stage's inputs are ready; the surviving pieces
  // stay in `list`, and each join is appended to `steps` under the
  // region-wide number its result gets.
  auto run_stage = [&](size_t i, bool chain) {
    std::vector<Piece>& list = lists[i];
    std::vector<haft::PieceInfo> infos;
    infos.reserve(list.size());
    for (const Piece& p : list) infos.push_back(p.info);
    auto plan = chain ? haft::merge_plan(std::move(infos))
                      : haft::carry_plan(std::move(infos));
    std::vector<char> consumed(list.size() + plan.size(), 0);
    for (const auto& step : plan) {
      const Piece& l = list[static_cast<size_t>(step.left)];
      const Piece& r = list[static_cast<size_t>(step.right)];
      NodeId u = l.rep_owner();
      std::vector<int> deps = ready[i];
      if (u != participants[i])
        deps = {add_msg(participants[i], u, 4, ready[i])};  // join order
      if (u != l.owner) add_msg(u, l.owner, 2, deps);
      if (u != r.owner) add_msg(u, r.owner, 2, deps);
      consumed[static_cast<size_t>(step.left)] = 1;
      consumed[static_cast<size_t>(step.right)] = 1;
      const int result = k + static_cast<int>(steps.size());
      steps.push_back({l.index, r.index, result});
      Piece joined = Piece::join(l, r, result);
      FG_CHECK(static_cast<int>(list.size()) == step.result);
      list.push_back(joined);
    }
    std::vector<Piece> survivors;
    for (size_t j = 0; j < list.size(); ++j)
      if (!consumed[j]) survivors.push_back(list[j]);
    list = std::move(survivors);
  };

  // Bottom-up over the heap-shaped participant tree: children have larger
  // indices, so a descending loop visits them first.
  for (size_t ii = participants.size(); ii-- > 0;) {
    for (size_t c : {2 * ii + 1, 2 * ii + 2}) {
      if (c >= participants.size()) continue;
      // The child's carried list arrives as one O(log n)-piece message.
      int up = add_msg(participants[c], participants[ii],
                       8 * static_cast<int>(lists[c].size()) + 1, ready[c]);
      ready[ii].push_back(up);
      for (const Piece& p : lists[c]) lists[ii].push_back(p);
      lists[c].clear();
    }
    // Carries keep every in-flight list at pairwise-distinct sizes; the
    // coordinator finishes with the ascending chain (Algorithm A.9 phase 2).
    run_stage(ii, /*chain=*/ii == 0);
  }
  FG_CHECK(lists[0].size() == 1);
  FG_CHECK(static_cast<int>(steps.size()) == k - 1);
  return steps;
}

}  // namespace fg::dist
