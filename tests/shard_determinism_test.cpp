// Contract C4 for the sharded pipeline: healers are deterministic given the
// schedule, and the shard workers must not be able to break that. A trace
// recorded against a single-threaded engine must replay *bit-identically* —
// identical checkpoints, which pin the virtual-forest arena node for node,
// not merely the same topology — on a sharded-concurrent engine, across a
// corpus of adversaries and graph families, and under every worker count.
// Runs in Release and Debug through the regular CI matrix, and under
// ThreadSanitizer through the tsan preset (the concurrency satellite gate).
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "fg/forgiving_graph.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "harness/trace.h"
#include "heal/healer.h"
#include "support/checkpoint.h"
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

using support::checkpoint;

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

class ShardDeterminism : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(ShardDeterminism, ConcurrentReplayIsBitIdentical) {
  const CorpusCase& c = GetParam();
  Rng rng(c.seed);
  Graph g0 = build_graph(c.graph, c.n, rng);

  // Record the schedule on a single-threaded engine.
  ForgivingGraphHealer recorded(g0);
  auto adversary = make_adversary(c.adversary);
  Trace t = record_run(recorded, *adversary, c.steps, rng);
  ASSERT_GE(t.size(), 1u);
  std::vector<uint8_t> reference = checkpoint(recorded.engine());

  // The trace round-trips through the text format (r lines included).
  std::stringstream ss;
  t.save(ss);
  Trace loaded = Trace::load(ss);
  ASSERT_EQ(loaded.size(), t.size());

  // Replay on sharded-concurrent engines: every worker count must land on
  // the byte-identical checkpoint — on the plan side (set_shard_workers),
  // on the break side (set_break_workers, whose BreakEffects stitch
  // serializes every shared-state write in region id order), and on the
  // commit side (set_commit_workers), whose arena-id reservation is what
  // makes concurrent region merges schedule-independent (contract C4,
  // docs/CONCURRENCY.md). The replay also re-checks every wave's recorded
  // region assignment (trace `r` lines).
  for (int workers : {1, 2, 4, 8}) {
    ForgivingGraphHealer replayed(g0);
    replayed.engine().set_shard_workers(workers);
    replayed.engine().set_commit_workers(workers);
    replayed.engine().set_break_workers(workers);
    loaded.replay(replayed);
    ASSERT_EQ(reference, checkpoint(replayed.engine()))
        << c.graph << "/" << c.adversary << " diverged with workers=" << workers;
    replayed.engine().validate();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ShardDeterminism,
    ::testing::Values(CorpusCase{"er", 120, "batch:6", 8, 1},
                      CorpusCase{"er", 150, "regions:4", 8, 2},
                      CorpusCase{"ba", 120, "batch:5", 8, 3},
                      CorpusCase{"ba", 100, "regions:3", 10, 4},
                      CorpusCase{"grid", 96, "batch:4", 8, 5},
                      CorpusCase{"grid", 120, "regions:5", 6, 6},
                      CorpusCase{"path", 140, "regions:6", 6, 7},
                      CorpusCase{"star", 100, "batch:4", 8, 8},
                      CorpusCase{"er", 100, "churn:0.7", 30, 9},
                      CorpusCase{"er", 90, "random-delete", 30, 10}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      const auto& c = info.param;
      std::string adv(c.adversary);
      for (char& ch : adv)
        if (ch == ':' || ch == '-' || ch == '.') ch = '_';
      return std::string(c.graph) + "_" + adv + "_s" + std::to_string(c.seed);
    });

TEST(ShardDeterminism, BreakWorkersBitIdenticalAcrossSplits) {
  // The acceptance matrix of the parallel break: plan workers {1,4} ×
  // break workers {1,2,4} × commit workers {1,2,4} × both RegionSplit
  // modes must land on the byte-identical checkpoint AND emit
  // byte-identical certificates (C4 extended to the break fan-out). The
  // plan axis runs the plan fan-out on the same shared pool as break and
  // merge. Each split mode heals a different structure, so each compares
  // against its own all-ones reference.
  Rng rng(55);
  Graph g0 = make_erdos_renyi(140, 7.0 / 140, rng);
  const std::vector<std::vector<NodeId>> waves = {
      {4, 41, 77, 110}, {9, 52, 96}, {15, 16, 60, 121, 133}};

  for (core::RegionSplit split :
       {core::RegionSplit::kPerRegion, core::RegionSplit::kGlobal}) {
    std::vector<uint8_t> ref_checkpoint;
    std::string ref_certs;
    for (int pw : {1, 4}) {
      for (int bw : {1, 2, 4}) {
        for (int cw : {1, 2, 4}) {
          ForgivingGraph fg(g0);
          fg.set_region_split(split);
          fg.set_shard_workers(pw);
          fg.set_break_workers(bw);
          fg.set_commit_workers(cw);
          std::ostringstream certs;
          harness::CertificateWriter writer(certs);
          fg.set_certificate_sink(&writer);
          for (const auto& wave : waves) fg.delete_batch(wave);
          fg.validate();
          if (pw == 1 && bw == 1 && cw == 1) {
            ref_checkpoint = checkpoint(fg);
            ref_certs = certs.str();
            ASSERT_FALSE(ref_certs.empty());
          } else {
            EXPECT_EQ(ref_checkpoint, checkpoint(fg))
                << "checkpoint diverged at plan=" << pw << " break=" << bw << " commit=" << cw;
            EXPECT_EQ(ref_certs, certs.str()) << "certificate bytes diverged at plan=" << pw
                                              << " break=" << bw << " commit=" << cw;
          }
        }
      }
    }
  }
}

TEST(ShardDeterminism, MixedScheduleWithInsertions) {
  // Hand-built schedule interleaving insertions, single deletions, and
  // batch waves — the action mix record_run can produce from any source.
  Rng rng(77);
  Graph g0 = make_erdos_renyi(80, 7.0 / 80, rng);
  ForgivingGraph single(g0);
  ForgivingGraph sharded(g0);
  sharded.set_shard_workers(4);
  sharded.set_commit_workers(4);
  sharded.set_break_workers(4);

  auto both_insert = [&](std::vector<NodeId> nbrs) {
    NodeId a = single.insert(nbrs);
    NodeId b = sharded.insert(nbrs);
    ASSERT_EQ(a, b);
  };
  auto both_batch = [&](std::vector<NodeId> wave) {
    single.delete_batch(wave);
    sharded.delete_batch(wave);
  };

  both_batch({3, 40, 71});
  both_insert({0, 17});
  single.remove(17);
  sharded.remove(17);
  both_batch({5, 6, 50});
  both_insert({2, 30, 60});
  both_batch({22, 23});
  EXPECT_EQ(checkpoint(single), checkpoint(sharded));
  single.validate();
  sharded.validate();
}

}  // namespace
}  // namespace fg
