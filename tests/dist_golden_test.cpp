// The distributed engine's observable output, pinned: per wave, the Lemma-4
// cost sheet (RepairCost) and the healed topology, for both merge modes.
//
// The message DAG is protocol behaviour — every add_msg's endpoints, word
// count, dependencies and order feed the messages/words/rounds figures — so
// a change to how the engine allocates or merges vnodes must leave all of
// it unchanged. A seeded stream of insertions and multi-region batch waves
// folds every wave's cost fields and sorted image adjacency into an FNV-1a
// digest per mode; the digests were recorded from the engine that still
// allocated its vnodes on demand and joined pieces one at a time.
//
// The stream also runs under an asynchronous net::DeliveryPolicy (random
// extra delay, shuffled delivery within a round). There each message draws
// its delay in send order, so the cost sheet also pins the order in which
// the DAG's messages are built, which the synchronous digests do not; the
// two async digests were recorded from the engine whose break still
// reported each piece and teardown through core callbacks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fg/dist/dist_forgiving_graph.h"
#include "graph/generators.h"
#include "net/network.h"
#include "util/rng.h"

namespace fg {
namespace {

class Fnv {
 public:
  void add(int64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= static_cast<uint64_t>(x >> (8 * b)) & 0xFFu;
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

struct StreamResult {
  uint64_t digest = 0;
  int waves = 0;
  int multi_region_waves = 0;
};

StreamResult run_stream(dist::MergeMode mode, bool async) {
  constexpr int kNodes = 400;
  constexpr int kOps = 240;
  Rng rng(23);
  dist::DistForgivingGraph engine(make_sparse_random(kNodes, 4.0, rng), mode);
  if (async) engine.set_delivery_policy(net::DeliveryPolicy{7, 3, true});
  std::vector<NodeId> alive = engine.image().alive_nodes();
  Fnv fnv;
  StreamResult result;
  for (int op = 0; op < kOps; ++op) {
    if (alive.size() <= 40 || !rng.next_bool(0.5)) {
      std::vector<NodeId> ends = alive;
      rng.shuffle(ends);
      ends.resize(static_cast<size_t>(rng.next_int(1, 3)));
      alive.push_back(engine.insert(ends));
      continue;
    }
    const auto want = static_cast<size_t>(rng.next_int(1, 12));
    std::vector<NodeId> wave;
    while (wave.size() < want) {
      const size_t j = static_cast<size_t>(rng.next_below(alive.size()));
      wave.push_back(alive[j]);
      alive[j] = alive.back();
      alive.pop_back();
    }
    engine.delete_batch(wave);
    const dist::RepairCost& c = engine.last_repair_cost();
    ++result.waves;
    if (c.regions > 1) ++result.multi_region_waves;
    for (int64_t x : {int64_t{c.deleted_degree}, int64_t{c.anchors}, int64_t{c.pieces},
                      int64_t{c.regions}, int64_t{c.bt_edges}, c.messages, c.words,
                      int64_t{c.rounds}, int64_t{c.max_message_words}, c.max_node_messages,
                      c.max_node_round_words})
      fnv.add(x);
    const Graph& g = engine.image();
    for (NodeId v = 0; v < g.node_capacity(); ++v) {
      if (!g.is_alive(v)) continue;
      fnv.add(-1 - int64_t{v});
      for (NodeId w : g.neighbors(v)) fnv.add(w);
    }
  }
  engine.validate();
  result.digest = fnv.value();
  return result;
}

TEST(DistGolden, CostAndTopologyStreamIsPinned) {
  const StreamResult global = run_stream(dist::MergeMode::kGlobalPlan, false);
  const StreamResult stage_wise = run_stream(dist::MergeMode::kStageWise, false);
  EXPECT_EQ(global.waves, stage_wise.waves);
  EXPECT_GT(global.waves, 50);
  EXPECT_GT(global.multi_region_waves, 20);
  EXPECT_EQ(global.digest, 6334194457367939676ULL);
  EXPECT_EQ(stage_wise.digest, 16598819628057817757ULL);

  EXPECT_EQ(run_stream(dist::MergeMode::kGlobalPlan, true).digest,
            8072704723284176617ULL);
  EXPECT_EQ(run_stream(dist::MergeMode::kStageWise, true).digest,
            10853618441749009828ULL);
}

}  // namespace
}  // namespace fg
