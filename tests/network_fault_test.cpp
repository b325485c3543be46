// Message-level fault injection for the distributed engine
// (net::DeliveryPolicy drop/dup knobs) and the checkpoint seam into the
// self-stabilizer.
//
// The paper's model promises reliable eventual delivery; these tests push
// past it. The repair commits its structure through the shared
// core::StructuralCore at DAG-construction time, so losing or duplicating
// protocol messages must never lose structure: under any mix of drops,
// duplicates, delays, and reordering, the healed image stays bit-identical
// to the centralized engine (kGlobalPlan) and every emitted wave
// certificate still ACCEPTs. A dropped message only leaves its DAG
// dependents undispatched; a duplicate only re-delivers into an
// already-satisfied dependency count.
//
// The last tests cover the recovery seams around the network: a corrupted
// replica restored from a distributed checkpoint (its base image) is healed
// by fg::Stabilizer, and a stale plan — the one fault the pipeline must
// refuse rather than absorb — dies on the core's admission check.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cert/certificate.h"
#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "fg/stabilizer.h"
#include "fuzz/corruptor.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "support/checkpoint.h"
#include "util/rng.h"

namespace fg {
namespace {

class FaultSeeds : public ::testing::TestWithParam<uint64_t> {};

// Drops + duplicates + delays + reordering, all at once: topology tracks
// the centralized engine step for step, and the dist engine's certificates
// (structure and Lemma-4 cost claim) keep ACCEPTing.
TEST_P(FaultSeeds, DropAndDupKeepTopologyAndCertificates) {
  Rng rng(31);
  Graph g0 = make_erdos_renyi(40, 0.15, rng);
  ForgivingGraph central(g0);
  dist::DistForgivingGraph net(g0);
  net::DeliveryPolicy policy;
  policy.seed = GetParam();
  policy.max_extra_delay = 1;
  policy.shuffle = true;
  policy.drop_one_in = 6;
  policy.dup_one_in = 4;
  net.set_delivery_policy(policy);
  harness::CertificateCollector sink;
  net.set_certificate_sink(&sink);

  for (int i = 0; i < 16; ++i) {
    auto alive = central.healed().alive_nodes();
    NodeId v = rng.pick(alive);
    central.remove(v);
    net.remove(v);
    ASSERT_TRUE(central.healed().same_topology(net.image()))
        << "diverged at step " << i << " under seed " << GetParam();
  }
  net.validate();
  ASSERT_EQ(sink.certs.size(), 16u);
  for (size_t w = 0; w < sink.certs.size(); ++w) {
    cert::CheckResult res = cert::check(sink.certs[w]);
    EXPECT_TRUE(res.ok) << "wave " << w << ": " << res.diagnostic;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSeeds,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

// Drop every 2nd / duplicate every 2nd message — far beyond any plausible
// fault rate — and batched multi-victim waves still converge connected.
TEST(NetworkFault, ExtremeFaultRatesStillConverge) {
  Rng rng(47);
  dist::DistForgivingGraph net(make_barabasi_albert(36, 2, rng));
  net::DeliveryPolicy policy;
  policy.seed = 7;
  policy.max_extra_delay = 2;
  policy.shuffle = true;
  policy.drop_one_in = 2;
  policy.dup_one_in = 2;
  net.set_delivery_policy(policy);

  for (int wave = 0; wave < 6; ++wave) {
    auto alive = net.image().alive_nodes();
    if (alive.size() <= 4) break;
    rng.shuffle(alive);
    std::vector<NodeId> victims(alive.begin(), alive.begin() + 2);
    net.delete_batch(victims);
    net.validate();
    ASSERT_TRUE(is_connected(net.image())) << "wave " << wave;
  }
}

// Traffic accounting is send-side (Lemma 4 counts what processors emit):
// a drop suppresses its DAG dependents, so it can only remove sends; a
// duplicate is delivery-side noise an already-satisfied dependency absorbs,
// so it changes nothing the stats can see. Neither touches the topology.
TEST(NetworkFault, DropRemovesTrafficDupIsInvisible) {
  auto run = [](int drop, int dup) {
    dist::DistForgivingGraph net(make_star(49));
    net::DeliveryPolicy policy;
    policy.seed = 11;
    policy.drop_one_in = drop;
    policy.dup_one_in = dup;
    net.set_delivery_policy(policy);
    net.remove(0);
    return net;
  };
  dist::DistForgivingGraph clean = run(0, 0);
  dist::DistForgivingGraph dropped = run(5, 0);
  dist::DistForgivingGraph duped = run(0, 5);
  EXPECT_LT(dropped.last_repair_cost().messages,
            clean.last_repair_cost().messages);
  EXPECT_EQ(duped.last_repair_cost().messages,
            clean.last_repair_cost().messages);
  EXPECT_TRUE(clean.image().same_topology(dropped.image()));
  EXPECT_TRUE(clean.image().same_topology(duped.image()));
}

// The recovery seam across engines: checkpoint a churned distributed
// replica (its base image), restore it into the centralized engine, corrupt
// the restored copy, and let the stabilizer bring it back — clean audit,
// valid invariants, certificate ACCEPTed.
TEST(NetworkFault, CorruptedReplicaCheckpointStabilizes) {
  Rng rng(53);
  dist::DistForgivingGraph net(make_erdos_renyi(44, 0.14, rng));
  net::DeliveryPolicy policy;
  policy.seed = 3;
  policy.shuffle = true;
  policy.drop_one_in = 8;
  policy.dup_one_in = 8;
  net.set_delivery_policy(policy);
  for (int i = 0; i < 8; ++i) {
    auto alive = net.image().alive_nodes();
    net.remove(rng.pick(alive));
  }

  std::string error;
  std::optional<ForgivingGraph> restored =
      support::restore(support::checkpoint(net.core()), &error);
  ASSERT_TRUE(restored) << error;
  ForgivingGraph& replica = *restored;
  replica.validate();
  ASSERT_TRUE(replica.healed().same_topology(net.image()));
  ASSERT_EQ(support::checkpoint(replica), support::checkpoint(net.core()));

  fuzz::CorruptionLog log = fuzz::corrupt(replica, 53, 4);
  ASSERT_GT(log.applied, 0);
  Stabilizer stabilizer(replica);
  if (stabilizer.audit().clean()) {
    replica.validate();  // cancelling mutations: cross-check, nothing to heal
    return;
  }
  harness::CertificateCollector sink;
  replica.set_certificate_sink(&sink);
  RecoveryStats recovery = stabilizer.stabilize();
  replica.set_certificate_sink(nullptr);
  EXPECT_TRUE(recovery.recovered);
  ASSERT_EQ(sink.certs.size(), 1u);
  EXPECT_TRUE(stabilizer.audit().clean());
  replica.validate();
  cert::CheckResult res = cert::check(sink.certs.front());
  EXPECT_TRUE(res.ok) << res.diagnostic;
}

// The one fault the pipeline refuses instead of absorbing: a plan whose
// core mutated since planning. The admission check must die loudly, not
// commit garbage.
TEST(NetworkFaultDeathTest, CommittingAStalePlanDies) {
  ForgivingGraph fg(make_star(16));
  NodeId first = 3;
  core::RepairPlan plan = fg.plan_delete_batch({&first, 1});
  fg.remove(5);  // any mutation stales the outstanding plan
  EXPECT_DEATH(fg.commit_delete_batch(plan), "committing a stale plan");
}

}  // namespace
}  // namespace fg
