// Certificates as a property-test oracle: every adversary factory profile,
// on randomized schedules, against both engines — each committed wave's
// certificate must pass the independent checker (src/cert), with the
// serialized bytes surviving a parse round-trip, and the centralized
// engine's certificate bytes must be identical at every shard/commit worker
// count (contract C4 extended from checkpoints to certificates,
// docs/CERTIFICATES.md).
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "cert/certificate.h"
#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "harness/trace.h"
#include "heal/healer.h"
#include "util/rng.h"

namespace fg {
namespace {

Graph build_graph(const std::string& kind, int n, Rng& rng) {
  if (kind == "star") return make_star(n);
  if (kind == "path") return make_path(n);
  if (kind == "er") return make_erdos_renyi(n, 7.0 / n, rng);
  if (kind == "ba") return make_barabasi_albert(n, 2, rng);
  ADD_FAILURE() << "unknown graph kind " << kind;
  return Graph(1);
}

/// Sink that runs the checker on every certificate as it is emitted and
/// keeps the structural bytes for cross-run comparison.
class CheckingSink final : public harness::CertificateSink {
 public:
  explicit CheckingSink(std::string label) : label_(std::move(label)) {}

  void on_certificate(const cert::WaveCertificate& c) override {
    cert::CheckResult direct = cert::check(c);
    EXPECT_TRUE(direct.ok) << label_ << ": " << direct.diagnostic;

    // The serialized bytes must parse back and still check: the text format
    // loses nothing the checker needs.
    std::stringstream ss;
    c.save(ss);
    cert::StreamResult round = cert::check_stream(ss);
    EXPECT_TRUE(round.ok) << label_ << " (round-trip): " << round.diagnostic;
    EXPECT_EQ(round.waves_checked, 1) << label_;

    structural += c.structural_text();
    ++waves;
  }

  std::string structural;
  int waves = 0;

 private:
  std::string label_;
};

void replay_on_dist(const Trace& t, dist::DistForgivingGraph* net) {
  for (const Action& a : t.actions()) {
    switch (a.kind) {
      case Action::Kind::kInsert:
        net->insert(a.neighbors);
        break;
      case Action::Kind::kDelete:
        net->remove(a.target);
        break;
      case Action::Kind::kBatchDelete:
        net->delete_batch(a.targets);
        break;
    }
  }
}

struct OracleCase {
  const char* graph;
  int n;
  const char* adversary;  ///< A make_adversary factory profile.
  int steps;
  uint64_t seed;
};

// gtest_discover_tests keeps the "# GetParam() = ..." comment in each CTest
// name. Without a printer that comment is a byte dump of the struct (the
// `graph` pointer and padding), which differs from run to run.
void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.graph << " n=" << c.n << " adversary=" << c.adversary << " steps=" << c.steps
      << " seed=" << c.seed;
}

class CertificateOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CertificateOracle, EveryWaveCertifiesOnBothEngines) {
  const OracleCase& c = GetParam();
  Rng rng(c.seed);
  Graph g0 = build_graph(c.graph, c.n, rng);

  // Record the schedule on the centralized engine with emission live.
  ForgivingGraphHealer recorded(g0);
  CheckingSink recorded_sink("centralized w=1");
  recorded.engine().set_certificate_sink(&recorded_sink);
  auto adversary = make_adversary(c.adversary);
  Trace t = record_run(recorded, *adversary, c.steps, rng);
  ASSERT_GE(t.size(), 1u);
  ASSERT_GE(recorded_sink.waves, 1) << "schedule deleted nothing";

  // Sharded replays: certificates byte-identical at every worker count.
  for (int workers : {2, 4}) {
    ForgivingGraphHealer replayed(g0);
    CheckingSink sink("centralized w=" + std::to_string(workers));
    replayed.engine().set_certificate_sink(&sink);
    replayed.engine().set_shard_workers(workers);
    replayed.engine().set_commit_workers(workers);
    t.replay(replayed);
    EXPECT_EQ(sink.waves, recorded_sink.waves);
    EXPECT_EQ(sink.structural, recorded_sink.structural)
        << c.graph << "/" << c.adversary
        << " certificate bytes diverged with workers=" << workers;
  }

  // Distributed engine, both merge modes. kGlobalPlan additionally matches
  // the centralized structural bytes (same topology by construction);
  // kStageWise may associate differently but must still certify.
  {
    dist::DistForgivingGraph net(g0, dist::MergeMode::kGlobalPlan);
    CheckingSink sink("dist kGlobalPlan");
    net.set_certificate_sink(&sink);
    replay_on_dist(t, &net);
    EXPECT_EQ(sink.waves, recorded_sink.waves);
    EXPECT_EQ(sink.structural, recorded_sink.structural)
        << c.graph << "/" << c.adversary << " dist certificates diverged";
  }
  {
    dist::DistForgivingGraph net(g0, dist::MergeMode::kStageWise);
    CheckingSink sink("dist kStageWise");
    net.set_certificate_sink(&sink);
    replay_on_dist(t, &net);
    EXPECT_EQ(sink.waves, recorded_sink.waves);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, CertificateOracle,
    ::testing::Values(OracleCase{"er", 60, "random-delete", 25, 11},
                      OracleCase{"er", 60, "cut-vertex", 20, 12},
                      OracleCase{"ba", 60, "maxdeg-delete", 22, 13},
                      OracleCase{"ba", 50, "helper-load", 20, 14},
                      OracleCase{"er", 60, "churn:0.6", 30, 15},
                      OracleCase{"star", 40, "star-attack", 3, 16},
                      OracleCase{"er", 50, "build-and-burn:4", 16, 17},
                      OracleCase{"er", 80, "batch:4", 10, 18},
                      OracleCase{"path", 90, "regions:4", 8, 19}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      const auto& c = info.param;
      std::string adv(c.adversary);
      for (char& ch : adv)
        if (ch == ':' || ch == '-' || ch == '.') ch = '_';
      return std::string(c.graph) + "_" + adv + "_s" + std::to_string(c.seed);
    });

TEST(CertificateOracle, SinkCanBeDetached) {
  // nullptr disables emission again; waves committed while detached are
  // simply not certified (wave indices keep counting committed waves).
  ForgivingGraph network(make_star(9));
  harness::CertificateCollector collector;
  network.set_certificate_sink(&collector);
  network.remove(0);
  ASSERT_EQ(collector.certs.size(), 1u);
  EXPECT_EQ(collector.certs[0].wave, 0);
  network.set_certificate_sink(nullptr);
  network.remove(1);
  EXPECT_EQ(collector.certs.size(), 1u);
}

TEST(CertificateOracle, CostClaimPresentOnlyOnDistCertificates) {
  Graph g0 = make_star(17);
  ForgivingGraph central(g0);
  harness::CertificateCollector cc;
  central.set_certificate_sink(&cc);
  central.remove(0);
  ASSERT_EQ(cc.certs.size(), 1u);
  EXPECT_FALSE(cc.certs[0].cost.present);

  dist::DistForgivingGraph net(g0);
  harness::CertificateCollector dc;
  net.set_certificate_sink(&dc);
  net.remove(0);
  ASSERT_EQ(dc.certs.size(), 1u);
  ASSERT_TRUE(dc.certs[0].cost.present);
  EXPECT_EQ(dc.certs[0].cost.deleted_degree, 16);
  EXPECT_GT(dc.certs[0].cost.messages, 0);
  // The cost line is the only engine-specific part of the bytes.
  EXPECT_EQ(cc.certs[0].structural_text(), dc.certs[0].structural_text());
}

}  // namespace
}  // namespace fg
