// Property tests of the distributed engine under randomized churn: the
// Theorem-1 bounds measured on the image topology, protocol-state
// consistency after every repair, and the Lemma-4 cost envelope.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "fg/dist/dist_forgiving_graph.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "haft/haft.h"
#include "harness/metrics.h"
#include "util/rng.h"

namespace fg::dist {
namespace {

struct DistCase {
  const char* graph;
  int n;
  double p_delete;
  int steps;
  uint64_t seed;
};

// gtest_discover_tests keeps the "# GetParam() = ..." comment in each CTest
// name. Without a printer that comment is a byte dump of the struct (the
// `graph` pointer and padding), which differs from run to run.
void PrintTo(const DistCase& c, std::ostream* os) {
  *os << c.graph << " n=" << c.n << " p_delete=" << c.p_delete << " steps=" << c.steps
      << " seed=" << c.seed;
}

Graph build_graph(const std::string& kind, int n, Rng& rng) {
  if (kind == "star") return make_star(n);
  if (kind == "cycle") return make_cycle(n);
  if (kind == "er") return make_erdos_renyi(n, 6.0 / n, rng);
  if (kind == "ba") return make_barabasi_albert(n, 2, rng);
  ADD_FAILURE() << "unknown kind";
  return Graph(1);
}

class DistChurnProperty : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistChurnProperty, BoundsAndConsistencyUnderChurn) {
  const DistCase& c = GetParam();
  Rng rng(c.seed);
  Graph g0 = build_graph(c.graph, c.n, rng);
  DistForgivingGraph net(g0);

  for (int step = 0; step < c.steps; ++step) {
    Graph img = net.image();
    bool del = img.alive_count() > 2 && rng.next_bool(c.p_delete);
    if (del) {
      auto alive = img.alive_nodes();
      NodeId v = rng.pick(alive);
      net.remove(v);
      // Lemma 4 envelope on every single repair.
      const RepairCost& cost = net.last_repair_cost();
      int n_seen = net.gprime().node_capacity();
      int d = std::max(1, cost.deleted_degree);
      double bound = 60.0 * d * std::max(1, haft::ceil_log2(n_seen));
      ASSERT_LE(static_cast<double>(cost.messages), bound) << "step " << step;
      ASSERT_LE(cost.rounds, 10 * std::max(1, haft::ceil_log2(std::max(2, d))) +
                                 haft::ceil_log2(n_seen))
          << "step " << step;
    } else {
      auto alive = img.alive_nodes();
      rng.shuffle(alive);
      int want = static_cast<int>(rng.next_int(1, 3));
      alive.resize(static_cast<size_t>(std::min<int>(want, static_cast<int>(alive.size()))));
      net.insert(alive);
    }
    if (step % 5 == 0) net.validate();
  }
  net.validate();

  // Theorem 1 on the final image.
  Graph img = net.image();
  ASSERT_TRUE(is_connected(img));
  auto d = degree_stats(img, net.gprime());
  EXPECT_LE(d.max_ratio, 4.0);
  Rng srng(1);
  auto s = sample_stretch(img, net.gprime(), 16, srng);
  EXPECT_EQ(s.broken_pairs, 0);
  EXPECT_LE(s.max_stretch, std::max(1, haft::ceil_log2(net.gprime().node_capacity())));
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, DistChurnProperty,
    ::testing::Values(DistCase{"er", 40, 0.7, 45, 21}, DistCase{"er", 60, 0.55, 60, 22},
                      DistCase{"star", 33, 0.8, 28, 23}, DistCase{"cycle", 30, 0.75, 30, 24},
                      DistCase{"ba", 45, 0.65, 50, 25}, DistCase{"er", 25, 1.0, 22, 26}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      const auto& c = info.param;
      return std::string(c.graph) + "_n" + std::to_string(c.n) + "_s" +
             std::to_string(c.seed);
    });

TEST(DistProperty, PerNodeTrafficStaysBounded) {
  // The distributed plan execution spreads MakeHelper issuance across the
  // claiming anchors: no single processor should send more than a small
  // multiple of (its own pieces + log n) messages.
  DistForgivingGraph net(make_star(257));
  net.remove(0);
  EXPECT_LE(net.last_repair_cost().max_node_messages, 32);
}

TEST(DistProperty, RepeatedHubDeletionsStayCheap) {
  // Deleting nodes inside an already-merged RT must not cost more than the
  // Lemma-4 envelope even though the RT spans the whole network.
  DistForgivingGraph net(make_star(129));
  net.remove(0);
  for (NodeId v = 1; v <= 100; ++v) {
    net.remove(v);
    const auto& c = net.last_repair_cost();
    EXPECT_LE(static_cast<double>(c.messages),
              60.0 * std::max(1, c.deleted_degree) * haft::ceil_log2(129))
        << "victim " << v;
  }
  EXPECT_TRUE(is_connected(net.image()));
}

}  // namespace
}  // namespace fg::dist
