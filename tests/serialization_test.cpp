// Checkpoint/restore of the Forgiving Graph engine through its one state
// format, the fgsnap base image: a restored instance must be observationally
// identical to the original — same topology, same G', same invariants, and
// (the strong part) the same behaviour under every future operation.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "fg/forgiving_graph.h"
#include "graph/generators.h"
#include "support/checkpoint.h"
#include "util/rng.h"

namespace fg {
namespace {

using support::checkpoint;

ForgivingGraph roundtrip(const ForgivingGraph& fg) {
  std::string error;
  std::optional<ForgivingGraph> copy = support::restore(checkpoint(fg), &error);
  EXPECT_TRUE(copy) << error;
  return std::move(copy).value();  // throws, failing the test, if restore failed
}

TEST(Serialization, FreshEngineRoundTrips) {
  ForgivingGraph fg(make_cycle(8));
  ForgivingGraph copy = roundtrip(fg);
  copy.validate();
  EXPECT_TRUE(copy.healed().same_topology(fg.healed()));
  EXPECT_TRUE(copy.gprime().same_topology(fg.gprime()));
}

TEST(Serialization, AfterDeletionsRoundTrips) {
  ForgivingGraph fg(make_star(17));
  fg.remove(0);
  fg.remove(3);
  ForgivingGraph copy = roundtrip(fg);
  copy.validate();
  EXPECT_TRUE(copy.healed().same_topology(fg.healed()));
  EXPECT_TRUE(copy.gprime().same_topology(fg.gprime()));
  for (NodeId v = 1; v <= 16; ++v) {
    if (v != 3) {
      EXPECT_EQ(copy.helper_count(v), fg.helper_count(v));
    }
  }
}

TEST(Serialization, FutureOperationsIdentical) {
  // The decisive test: after restore, the same operation sequence must give
  // bit-identical topologies (the restored forest drives the same merges).
  Rng rng(41);
  Graph g0 = make_erdos_renyi(40, 0.15, rng);
  ForgivingGraph fg(g0);
  for (int i = 0; i < 15; ++i) {
    auto alive = fg.healed().alive_nodes();
    fg.remove(rng.pick(alive));
  }
  ForgivingGraph copy = roundtrip(fg);
  copy.validate();

  Rng future(99);
  for (int i = 0; i < 12; ++i) {
    auto alive = fg.healed().alive_nodes();
    if (alive.size() <= 2) break;
    if (future.next_bool(0.3)) {
      auto nbrs = alive;
      future.shuffle(nbrs);
      nbrs.resize(2);
      NodeId a = fg.insert(nbrs);
      NodeId b = copy.insert(nbrs);
      ASSERT_EQ(a, b);
    } else {
      NodeId v = future.pick(alive);
      fg.remove(v);
      copy.remove(v);
    }
    ASSERT_TRUE(fg.healed().same_topology(copy.healed())) << "diverged at step " << i;
  }
  fg.validate();
  copy.validate();
}

TEST(Serialization, ChurnedEngineRoundTrips) {
  Rng rng(7);
  Graph g0 = make_barabasi_albert(30, 2, rng);
  ForgivingGraph fg(g0);
  for (int i = 0; i < 25; ++i) {
    auto alive = fg.healed().alive_nodes();
    if (rng.next_bool(0.6) && alive.size() > 2) {
      fg.remove(rng.pick(alive));
    } else {
      rng.shuffle(alive);
      alive.resize(std::min<size_t>(3, alive.size()));
      fg.insert(alive);
    }
  }
  ForgivingGraph copy = roundtrip(fg);
  copy.validate();
  EXPECT_TRUE(copy.healed().same_topology(fg.healed()));
}

TEST(Serialization, SaveIsDeterministic) {
  ForgivingGraph fg(make_star(9));
  fg.remove(0);
  EXPECT_EQ(checkpoint(fg), checkpoint(fg));
  EXPECT_EQ(checkpoint(roundtrip(fg)), checkpoint(fg));
}

}  // namespace
}  // namespace fg
