// Equivalence of the two engines: for any adversarial schedule, the
// distributed protocol must produce exactly the topology of the centralized
// reference implementation (both execute the same deterministic ComputeHaft
// plan over the same piece set — docs/DESIGN.md invariant 6). This is the
// strongest correctness evidence for the message-passing implementation.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "support/checkpoint.h"
#include "util/rng.h"

namespace fg {
namespace {

struct EquivCase {
  const char* graph;
  int n;
  double p_delete;
  int steps;
  uint64_t seed;
};

// gtest_discover_tests keeps the "# GetParam() = ..." comment in each CTest
// name. Without a printer that comment is a byte dump of the struct (the
// `graph` pointer and padding), which differs from run to run.
void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << c.graph << " n=" << c.n << " p_delete=" << c.p_delete << " steps=" << c.steps
      << " seed=" << c.seed;
}

Graph build_graph(const std::string& kind, int n, Rng& rng) {
  if (kind == "star") return make_star(n);
  if (kind == "path") return make_path(n);
  if (kind == "cycle") return make_cycle(n);
  if (kind == "grid") return make_grid(n / 6, 6);
  if (kind == "er") return make_erdos_renyi(n, 5.0 / n, rng);
  if (kind == "ba") return make_barabasi_albert(n, 2, rng);
  if (kind == "complete") return make_complete(n);
  ADD_FAILURE() << "unknown graph kind";
  return Graph(1);
}

class EngineEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EngineEquivalence, IdenticalTopologyOnRandomSchedule) {
  const EquivCase& c = GetParam();
  Rng rng(c.seed);
  Graph g0 = build_graph(c.graph, c.n, rng);
  ForgivingGraph central(g0);
  dist::DistForgivingGraph distributed(g0);

  for (int step = 0; step < c.steps; ++step) {
    bool del = central.healed().alive_count() > 2 && rng.next_bool(c.p_delete);
    if (del) {
      auto alive = central.healed().alive_nodes();
      NodeId v = rng.pick(alive);
      central.remove(v);
      distributed.remove(v);
    } else {
      auto alive = central.healed().alive_nodes();
      rng.shuffle(alive);
      int want = static_cast<int>(rng.next_int(1, 3));
      alive.resize(static_cast<size_t>(std::min<int>(want, static_cast<int>(alive.size()))));
      NodeId a = central.insert(alive);
      NodeId b = distributed.insert(alive);
      ASSERT_EQ(a, b);
    }
    ASSERT_TRUE(central.healed().same_topology(distributed.image()))
        << "diverged at step " << step << " (" << (del ? "delete" : "insert") << ")";
  }
  central.validate();
  distributed.validate();
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, EngineEquivalence,
    ::testing::Values(EquivCase{"star", 17, 1.0, 14, 1}, EquivCase{"star", 33, 0.7, 30, 2},
                      EquivCase{"path", 30, 0.8, 25, 3}, EquivCase{"cycle", 24, 0.9, 20, 4},
                      EquivCase{"er", 40, 0.6, 45, 5}, EquivCase{"er", 60, 0.75, 60, 6},
                      EquivCase{"ba", 50, 0.65, 55, 7}, EquivCase{"grid", 36, 0.8, 30, 8},
                      EquivCase{"complete", 12, 0.9, 9, 9}, EquivCase{"er", 30, 0.4, 70, 10},
                      EquivCase{"ba", 35, 1.0, 32, 11}, EquivCase{"path", 50, 0.5, 70, 12}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      const auto& c = info.param;
      return std::string(c.graph) + "_n" + std::to_string(c.n) + "_s" +
             std::to_string(c.seed);
    });

TEST(EngineEquivalence, HubChainCollapse) {
  // Deleting a chain of hubs whose RTs repeatedly merge: the hardest case
  // for plan/representative agreement between the engines.
  Graph g0 = make_star(20);
  for (NodeId v = 1; v < 20; v += 3) g0.add_edge(v, (v % 19) + 1 == v ? v - 1 : (v % 19) + 1);
  ForgivingGraph central(g0);
  dist::DistForgivingGraph distributed(g0);
  for (NodeId v = 0; v < 15; ++v) {
    central.remove(v);
    distributed.remove(v);
    ASSERT_TRUE(central.healed().same_topology(distributed.image())) << "at " << v;
  }
  central.validate();
  distributed.validate();
}

// Contract C4 at the byte level: in kGlobalPlan mode the distributed engine
// commits through the plan's arena reservation and merge_region, exactly as
// the centralized engine does, so the two hold the same base image — arena
// layout, tombstones, slot tables, multiplicities and epoch — after every
// op, not just the same topology. Multi-region waves are the case that
// tells an on-demand arena apart: it interleaves the regions' anchor leaves
// and helpers differently from the reserved ranges.
TEST(DistEquivalence, GlobalPlanBaseImageBytesMatchCentralized) {
  constexpr int kNodes = 300;
  constexpr int kOps = 120;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Graph g0 = make_sparse_random(kNodes, 5.0, rng);
    ForgivingGraph central(g0);
    dist::DistForgivingGraph distributed(g0, dist::MergeMode::kGlobalPlan);
    std::vector<NodeId> alive = g0.alive_nodes();
    int multi_region_waves = 0;
    for (int op = 0; op < kOps; ++op) {
      if (alive.size() > 40 && rng.next_bool(0.5)) {
        const auto want = static_cast<size_t>(rng.next_int(1, 12));
        std::vector<NodeId> wave;
        while (wave.size() < want) {
          const size_t j = static_cast<size_t>(rng.next_below(alive.size()));
          wave.push_back(alive[j]);
          alive[j] = alive.back();
          alive.pop_back();
        }
        central.delete_batch(wave);
        distributed.delete_batch(wave);
        if (distributed.last_repair_cost().regions > 1) ++multi_region_waves;
      } else {
        std::vector<NodeId> ends = alive;
        rng.shuffle(ends);
        ends.resize(static_cast<size_t>(rng.next_int(1, 3)));
        const NodeId a = central.insert(ends);
        ASSERT_EQ(a, distributed.insert(ends));
        alive.push_back(a);
      }
      // Compared as one bool: a failure names the op, not a byte dump.
      const bool same =
          support::checkpoint(central) == support::checkpoint(distributed.core());
      ASSERT_TRUE(same) << "seed " << seed << ": base images diverged at op " << op;
    }
    EXPECT_GT(multi_region_waves, 0) << "seed " << seed;
    central.validate();
    distributed.validate();
  }
}

}  // namespace
}  // namespace fg
