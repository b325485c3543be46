// Cross-engine certificate equivalence: over a shard_determinism-style
// trace corpus, the centralized engine, the sharded-concurrent engine, and
// the distributed engine under MergeMode::kGlobalPlan must emit the *same
// certificates* — byte-identical structural text, wave by wave. The
// certificate layer normalizes every engine-private detail away (arena
// handles become preorder-local indices, the dist cost line is excluded by
// structural_text()), so any divergence here is a real topology
// difference between engines, localized to the first differing wave.
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
  if (kind == "grid") return make_grid(n / 6, 6);
  if (kind == "er") return make_erdos_renyi(n, 7.0 / n, rng);
  if (kind == "ba") return make_barabasi_albert(n, 2, rng);
  ADD_FAILURE() << "unknown graph kind";
  return Graph(1);
}

/// Per-wave structural bytes of every certificate an engine emitted.
std::vector<std::string> waves_of(const harness::CertificateCollector& c) {
  std::vector<std::string> out;
  out.reserve(c.certs.size());
  for (const cert::WaveCertificate& w : c.certs) out.push_back(w.structural_text());
  return out;
}

/// Compare two engines' certificate streams wave by wave, naming the first
/// wave that differs (a whole-stream EXPECT_EQ would drown the diff).
void expect_same_waves(const std::vector<std::string>& ref,
                       const std::vector<std::string>& got,
                       const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label << ": wave count differs";
  for (size_t w = 0; w < ref.size(); ++w) {
    ASSERT_EQ(ref[w], got[w]) << label << ": first divergence at wave " << w;
  }
}

struct CorpusCase {
  const char* graph;
  int n;
  const char* adversary;
  int steps;
  uint64_t seed;
};

// gtest_discover_tests keeps the "# GetParam() = ..." comment in each CTest
// name. Without a printer that comment is a byte dump of the struct (the
// `graph` pointer and padding), which differs from run to run.
void PrintTo(const CorpusCase& c, std::ostream* os) {
  *os << c.graph << " n=" << c.n << " adversary=" << c.adversary << " steps=" << c.steps
      << " seed=" << c.seed;
}

class CertificateEquivalence : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CertificateEquivalence, ThreeEnginesEmitIdenticalCertificates) {
  const CorpusCase& c = GetParam();
  Rng rng(c.seed);
  Graph g0 = build_graph(c.graph, c.n, rng);

  // Reference: centralized single-threaded engine, schedule recorded.
  ForgivingGraphHealer recorded(g0);
  harness::CertificateCollector reference;
  recorded.engine().set_certificate_sink(&reference);
  auto adversary = make_adversary(c.adversary);
  Trace t = record_run(recorded, *adversary, c.steps, rng);
  ASSERT_GE(t.size(), 1u);
  ASSERT_GE(reference.certs.size(), 1u) << "schedule committed no waves";
  const std::vector<std::string> ref_waves = waves_of(reference);

  // Every certificate the reference emitted passes the independent checker
  // (belt and suspenders on top of certificate_oracle_test).
  for (size_t w = 0; w < reference.certs.size(); ++w) {
    cert::CheckResult res = cert::check(reference.certs[w]);
    ASSERT_TRUE(res.ok) << res.diagnostic;
  }

  // Sharded-concurrent engine, both pipeline sides fanned out.
  {
    ForgivingGraphHealer sharded(g0);
    harness::CertificateCollector got;
    sharded.engine().set_certificate_sink(&got);
    sharded.engine().set_shard_workers(4);
    sharded.engine().set_commit_workers(4);
    t.replay(sharded);
    expect_same_waves(ref_waves, waves_of(got),
                      std::string(c.graph) + "/" + c.adversary + " sharded w=4");
  }

  // Distributed engine under the merge mode that pins the centralized
  // topology (docs/CONCURRENCY.md): same waves, same bytes.
  {
    dist::DistForgivingGraph net(g0, dist::MergeMode::kGlobalPlan);
    harness::CertificateCollector got;
    net.set_certificate_sink(&got);
    for (const Action& a : t.actions()) {
      switch (a.kind) {
        case Action::Kind::kInsert:
          net.insert(a.neighbors);
          break;
        case Action::Kind::kDelete:
          net.remove(a.target);
          break;
        case Action::Kind::kBatchDelete:
          net.delete_batch(a.targets);
          break;
      }
    }
    expect_same_waves(ref_waves, waves_of(got),
                      std::string(c.graph) + "/" + c.adversary + " dist kGlobalPlan");
    // The dist stream carries cost claims the others cannot know; that is
    // the ONLY difference — full save() bytes differ, structural do not.
    for (const cert::WaveCertificate& w : got.certs) EXPECT_TRUE(w.cost.present);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CertificateEquivalence,
    ::testing::Values(CorpusCase{"er", 120, "batch:6", 8, 1},
                      CorpusCase{"ba", 100, "regions:3", 10, 4},
                      CorpusCase{"grid", 96, "batch:4", 8, 5},
                      CorpusCase{"path", 140, "regions:6", 6, 7},
                      CorpusCase{"star", 100, "batch:4", 8, 8},
                      CorpusCase{"er", 100, "churn:0.7", 30, 9}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      const auto& c = info.param;
      std::string adv(c.adversary);
      for (char& ch : adv)
        if (ch == ':' || ch == '-' || ch == '.') ch = '_';
      return std::string(c.graph) + "_" + adv + "_s" + std::to_string(c.seed);
    });

}  // namespace
}  // namespace fg
