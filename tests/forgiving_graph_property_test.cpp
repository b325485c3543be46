// Property tests of the Forgiving Graph invariants under randomized
// adversarial schedules (Theorem 1 plus the internal invariants of Lemma 3),
// parameterized over seed graphs and churn mixes.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "fg/forgiving_graph.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "haft/haft.h"
#include "util/rng.h"

namespace fg {
namespace {

struct ChurnCase {
  const char* graph;
  int n;
  double p_delete;
  int steps;
  uint64_t seed;
};

// gtest_discover_tests keeps the "# GetParam() = ..." comment in each CTest
// name. Without a printer that comment is a byte dump of the struct (the
// `graph` pointer and padding), which differs from run to run.
void PrintTo(const ChurnCase& c, std::ostream* os) {
  *os << c.graph << " n=" << c.n << " p_delete=" << c.p_delete << " steps=" << c.steps
      << " seed=" << c.seed;
}

Graph build_graph(const std::string& kind, int n, Rng& rng) {
  if (kind == "star") return make_star(n);
  if (kind == "path") return make_path(n);
  if (kind == "cycle") return make_cycle(n);
  if (kind == "er") return make_erdos_renyi(n, 6.0 / n, rng);
  if (kind == "ba") return make_barabasi_albert(n, 2, rng);
  if (kind == "tree") return make_random_tree(n, rng);
  ADD_FAILURE() << "unknown graph kind " << kind;
  return Graph(1);
}

class ChurnProperty : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(ChurnProperty, InvariantsHoldThroughout) {
  const ChurnCase& c = GetParam();
  Rng rng(c.seed);
  Graph g0 = build_graph(c.graph, c.n, rng);
  ForgivingGraph fg(g0);

  for (int step = 0; step < c.steps; ++step) {
    bool del = fg.healed().alive_count() > 2 && rng.next_bool(c.p_delete);
    if (del) {
      auto alive = fg.healed().alive_nodes();
      fg.remove(rng.pick(alive));
    } else {
      auto alive = fg.healed().alive_nodes();
      rng.shuffle(alive);
      int want = static_cast<int>(rng.next_int(1, 3));
      alive.resize(static_cast<size_t>(std::min<int>(want, static_cast<int>(alive.size()))));
      fg.insert(alive);
    }

    // Full structural validation every few steps (it is expensive).
    if (step % 7 == 0) fg.validate();

    // Theorem 1.1 (see docs/EXPERIMENTS.md on the constant): per-slot accounting
    // bound of 4, observed bound of 3 tracked by the benches.
    ASSERT_LE(fg.max_degree_ratio(), 4.0) << "step " << step;

    // Connectivity: alive nodes connected in G' stay connected in G.
    ASSERT_TRUE(is_connected(fg.healed())) << "step " << step;
  }
  fg.validate();

  // Theorem 1.2 at the end of the run, exhaustively.
  int n_total = fg.gprime().node_capacity();
  double bound = std::max(1, haft::ceil_log2(n_total));
  auto alive = fg.healed().alive_nodes();
  for (size_t i = 0; i < alive.size(); i += 3) {  // sample sources
    auto dg = bfs_distances(fg.healed(), alive[i]);
    auto dp = bfs_distances(fg.gprime(), alive[i]);
    for (NodeId t : alive) {
      if (t == alive[i] || dp[t] <= 0) continue;
      ASSERT_GT(dg[t], 0) << "healed graph disconnected pair";
      ASSERT_LE(dg[t], bound * dp[t])
          << alive[i] << "->" << t << " dist " << dg[t] << " vs " << dp[t];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ChurnProperty,
    ::testing::Values(ChurnCase{"er", 40, 1.0, 30, 1}, ChurnCase{"er", 40, 0.7, 60, 2},
                      ChurnCase{"er", 60, 0.5, 80, 3}, ChurnCase{"star", 33, 0.8, 25, 4},
                      ChurnCase{"path", 40, 0.6, 50, 5}, ChurnCase{"cycle", 36, 0.9, 30, 6},
                      ChurnCase{"ba", 50, 0.6, 60, 7}, ChurnCase{"tree", 45, 0.75, 45, 8},
                      ChurnCase{"er", 30, 0.3, 90, 9}, ChurnCase{"tree", 25, 1.0, 22, 10}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) {
      const auto& c = info.param;
      return std::string(c.graph) + "_n" + std::to_string(c.n) + "_s" +
             std::to_string(c.seed);
    });

TEST(ForgivingGraphProperty, TotalHelpersNeverExceedDeadEdgeSlots) {
  // Lemma 3.1: at most one helper per (alive endpoint, dead endpoint) edge.
  Rng rng(99);
  Graph g0 = make_erdos_renyi(50, 0.1, rng);
  ForgivingGraph fg(g0);
  for (int i = 0; i < 35; ++i) {
    auto alive = fg.healed().alive_nodes();
    if (alive.size() <= 2) break;
    fg.remove(rng.pick(alive));
    int64_t dead_slots = 0;
    for (NodeId u : fg.healed().alive_nodes())
      for (NodeId w : fg.gprime().neighbors(u))
        if (!fg.healed().is_alive(w)) ++dead_slots;
    int64_t helpers = 0;
    for (NodeId u : fg.healed().alive_nodes()) helpers += fg.helper_count(u);
    EXPECT_LE(helpers, dead_slots);
  }
}

TEST(ForgivingGraphProperty, DeterministicAcrossRuns) {
  for (int trial = 0; trial < 2; ++trial) {
    static Graph snapshot;
    Rng rng(1234);
    Graph g0 = make_erdos_renyi(40, 0.12, rng);
    ForgivingGraph fg(g0);
    for (int i = 0; i < 25; ++i) {
      auto alive = fg.healed().alive_nodes();
      fg.remove(rng.pick(alive));
    }
    if (trial == 0)
      snapshot = fg.healed();
    else
      EXPECT_TRUE(snapshot.same_topology(fg.healed()));
  }
}

TEST(ForgivingGraphProperty, ConnectivityUnderTotalChurnOfOriginalNodes) {
  // Delete every original node; the inserted nodes must remain connected.
  Rng rng(55);
  Graph g0 = make_cycle(20);
  ForgivingGraph fg(g0);
  // Insert 20 new nodes, each wired to 2 random alive nodes.
  for (int i = 0; i < 20; ++i) {
    auto alive = fg.healed().alive_nodes();
    rng.shuffle(alive);
    alive.resize(2);
    fg.insert(alive);
  }
  for (NodeId v = 0; v < 20; ++v) {
    fg.remove(v);
    ASSERT_TRUE(is_connected(fg.healed()));
  }
  fg.validate();
  EXPECT_EQ(fg.healed().alive_count(), 20);
}

}  // namespace
}  // namespace fg
