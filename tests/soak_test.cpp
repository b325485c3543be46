// Soak tests: longer adversarial schedules than the unit suites, exercising
// deep RT merge chains, large churn, and the interplay of all modules. Kept
// within a few seconds total; the benches cover the large scales.
#include <gtest/gtest.h>

#include <numeric>

#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "fg/healer_service.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "haft/haft.h"
#include "harness/metrics.h"
#include "util/rng.h"

namespace fg {
namespace {

TEST(Soak, CentralizedLongChurn) {
  Rng rng(0xC0FFEE);
  Graph g0 = make_erdos_renyi(300, 8.0 / 300, rng);
  ForgivingGraph fg(g0);
  for (int step = 0; step < 1200; ++step) {
    auto alive = fg.healed().alive_nodes();
    if (alive.size() > 30 && rng.next_bool(0.62)) {
      fg.remove(rng.pick(alive));
    } else {
      rng.shuffle(alive);
      alive.resize(std::min<size_t>(static_cast<size_t>(rng.next_int(1, 4)), alive.size()));
      fg.insert(alive);
    }
    if (step % 200 == 199) {
      ASSERT_TRUE(is_connected(fg.healed())) << "step " << step;
      ASSERT_LE(fg.max_degree_ratio(), 4.0) << "step " << step;
    }
  }
  fg.validate();
  Rng srng(1);
  auto s = sample_stretch(fg.healed(), fg.gprime(), 24, srng);
  EXPECT_EQ(s.broken_pairs, 0);
  EXPECT_LE(s.max_stretch, std::max(1, haft::ceil_log2(fg.gprime().node_capacity())));
}

TEST(Soak, GrindAStarToDust) {
  // Delete every node of a big star one by one; the RT must absorb every
  // deletion while staying a haft of logarithmic depth.
  ForgivingGraph fg(make_star(513));
  Rng rng(77);
  while (fg.healed().alive_count() > 2) {
    auto alive = fg.healed().alive_nodes();
    fg.remove(rng.pick(alive));
    ASSERT_TRUE(is_connected(fg.healed()));
    ASSERT_LE(fg.max_degree_ratio(), 4.0);
  }
  fg.validate();
}

TEST(Soak, DistributedEquivalenceLongRun) {
  Rng rng(0xBEEF);
  Graph g0 = make_barabasi_albert(120, 2, rng);
  ForgivingGraph central(g0);
  dist::DistForgivingGraph distributed(g0);
  for (int step = 0; step < 220; ++step) {
    auto alive = central.healed().alive_nodes();
    if (alive.size() > 10 && rng.next_bool(0.7)) {
      NodeId v = rng.pick(alive);
      central.remove(v);
      distributed.remove(v);
    } else {
      rng.shuffle(alive);
      alive.resize(std::min<size_t>(2, alive.size()));
      central.insert(alive);
      distributed.insert(alive);
    }
    if (step % 40 == 39) {
      ASSERT_TRUE(central.healed().same_topology(distributed.image())) << "step " << step;
    }
  }
  EXPECT_TRUE(central.healed().same_topology(distributed.image()));
  central.validate();
  distributed.validate();
}

TEST(Soak, ChurnStreamThroughHealerService) {
  // The serving loop under a longer churn stream, with the sampled
  // guardrail as the oracle: every k-th wave's certificate is re-derived
  // and checked from first principles by src/cert (which never links the
  // engine), and the structural invariants are re-validated at the end.
  // The generator mirrors the alive pool the way bench/churn_common.h does, so
  // no delete is ever dropped and no insert rejected.
  Rng rng(0x50AC);
  const int n = 300;
  Graph g0 = make_sparse_random(n, 5.0, rng);
  HealerConfig config;
  config.wave_size = 16;
  config.certify_every = 5;
  HealerService service(g0, config);
  int64_t alerts = 0;
  service.set_alert([&alerts](int64_t, const std::string&) { ++alerts; });

  std::vector<NodeId> pool(static_cast<size_t>(n));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = static_cast<NodeId>(n);
  for (int step = 0; step < 4000; ++step) {
    if (pool.size() > 32 && rng.next_bool(0.55)) {
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

  const HealerStats& stats = service.stats();
  EXPECT_EQ(stats.ops, 4000);
  EXPECT_EQ(stats.dropped_deletes, 0);
  EXPECT_EQ(stats.rejected_inserts, 0);
  EXPECT_GT(stats.waves, 100);
  EXPECT_EQ(stats.certified_waves, (stats.waves + 4) / 5);
  EXPECT_EQ(stats.cert_rejections, 0);
  EXPECT_EQ(alerts, 0);
  EXPECT_EQ(stats.stale_replans, 0);

  service.engine().validate();
  ASSERT_TRUE(is_connected(service.engine().healed()));
  EXPECT_LE(service.engine().max_degree_ratio(), 4.0);
}

TEST(Soak, StageWiseGrind) {
  Rng rng(0xABBA);
  dist::DistForgivingGraph net(make_erdos_renyi(150, 8.0 / 150, rng),
                               dist::MergeMode::kStageWise);
  for (int step = 0; step < 120; ++step) {
    Graph img = net.image();
    auto alive = img.alive_nodes();
    if (alive.size() <= 12) break;
    net.remove(rng.pick(alive));
  }
  net.validate();
  ASSERT_TRUE(is_connected(net.image()));
  auto d = degree_stats(net.image(), net.gprime());
  EXPECT_LE(d.max_ratio, 4.0);
}

}  // namespace
}  // namespace fg
