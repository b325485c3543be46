// The healer-service battery: contract C4 extended to the serving loop.
//
// The service at any worker count must be an exact refinement of the
// one-worker reference: the same seeded churn stream produces
// byte-identical engine checkpoints AND byte-identical sampled-certificate
// streams, because worker counts are pure scheduling choices — the op
// stream alone decides what commits (src/fg/healer_service.h). Each wave
// heals inside the push() that fills it, and malformed inserts are
// rejected at ingest, never applied. On top of that, the epoch-gated
// admission path is driven through its test seam: a mutation landing
// between plan and commit must be detected and re-planned, never
// committed — the core's FG_CHECK death is the wall the gate keeps the
// service from hitting.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "cert/certificate.h"
#include "fg/healer_service.h"
#include "fg/stabilizer.h"
#include "graph/generators.h"
#include "support/checkpoint.h"
#include "util/rng.h"

namespace fg {
namespace {

using support::checkpoint;

/// Seeded mixed churn stream over a pool mirror (the bench driver's scheme
/// in miniature): every delete victim leaves the pool when generated and
/// every insert's future id joins it, so the stream is valid by
/// construction and fully determined by (n, ops, seed).
std::vector<ChurnOp> make_stream(int n, int ops, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> pool(static_cast<size_t>(n));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = static_cast<NodeId>(n);

  std::vector<ChurnOp> stream;
  stream.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    if (pool.size() > 16 && rng.next_bool(0.5)) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      stream.push_back(ChurnOp::Delete(victim));
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      stream.push_back(ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
  }
  return stream;
}

struct ServiceRun {
  std::vector<uint8_t> checkpoint;
  std::string cert_bytes;
  HealerStats stats;
};

ServiceRun run_service(const Graph& g0, const std::vector<ChurnOp>& ops,
                       HealerConfig config,
                       core::RegionSplit split = core::RegionSplit::kPerRegion) {
  HealerService service(g0, config);
  service.engine().set_region_split(split);
  std::ostringstream certs;
  service.set_certificate_stream(&certs);
  int64_t alerts = 0;
  service.set_alert([&alerts](int64_t, const std::string&) { ++alerts; });
  VectorChurnStream stream(ops);
  service.run(stream);
  EXPECT_EQ(alerts, 0);
  EXPECT_EQ(service.stats().cert_rejections, 0);
  return ServiceRun{checkpoint(service.engine()), certs.str(), service.stats()};
}

// ---------------------------------------------------------------------------
// Worker-count equivalence.

HealerConfig with_workers(HealerConfig config, int workers) {
  config.plan_workers = workers;
  config.commit_workers = workers;
  config.break_workers = workers;
  return config;
}

// Workers {2, 4} against the one-worker reference; the workers = 1 case is
// a second, independent one-worker run (run-to-run determinism).
class HealerServiceEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(HealerServiceEquivalence, PipelinedMatchesSerialByteIdentically) {
  const int workers = GetParam();
  Rng rng(9001);
  Graph g0 = make_sparse_random(400, 5.0, rng);
  std::vector<ChurnOp> ops = make_stream(400, 3000, 0xFEED);

  HealerConfig config;
  config.wave_size = 16;
  config.certify_every = 8;
  ServiceRun reference = run_service(g0, ops, config);
  ASSERT_GT(reference.stats.waves, 10);
  ASSERT_GT(reference.stats.certified_waves, 2);
  ASSERT_FALSE(reference.cert_bytes.empty());

  ServiceRun wide = run_service(g0, ops, with_workers(config, workers));

  // Byte-identical engine state AND certificate stream: the worker count
  // is invisible in everything the serving loop emits.
  EXPECT_EQ(reference.checkpoint, wide.checkpoint)
      << "checkpoint diverged at " << workers << " workers";
  EXPECT_EQ(reference.cert_bytes, wide.cert_bytes)
      << "certificate stream diverged at " << workers << " workers";
  EXPECT_EQ(reference.stats.waves, wide.stats.waves);
  EXPECT_EQ(reference.stats.deletes, wide.stats.deletes);
  EXPECT_EQ(reference.stats.inserts, wide.stats.inserts);
  EXPECT_EQ(reference.stats.dropped_deletes, wide.stats.dropped_deletes);
  EXPECT_EQ(reference.stats.certified_waves, wide.stats.certified_waves);
  EXPECT_EQ(wide.stats.stale_replans, 0);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, HealerServiceEquivalence,
                         ::testing::Values(1, 2, 4));

TEST(HealerService, BreakWorkersBitIdenticalAcrossSplits) {
  // The fan-outs through the full serving loop: workers {2,4} (plan, break
  // and commit alike) × both RegionSplit modes must produce byte-identical
  // checkpoints AND byte-identical sampled-certificate streams to one
  // worker (C4 extended to the break phase). Each split heals a different
  // structure, so each compares against its own one-worker reference.
  Rng rng(9002);
  Graph g0 = make_sparse_random(300, 5.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 1500, 0xBEEF);

  for (core::RegionSplit split :
       {core::RegionSplit::kPerRegion, core::RegionSplit::kGlobal}) {
    HealerConfig config;
    config.wave_size = 16;
    config.certify_every = 8;
    ServiceRun reference = run_service(g0, ops, config, split);
    ASSERT_GT(reference.stats.certified_waves, 1);

    for (int workers : {2, 4}) {
      ServiceRun wide = run_service(g0, ops, with_workers(config, workers), split);
      EXPECT_EQ(reference.checkpoint, wide.checkpoint)
          << "checkpoint diverged at workers=" << workers;
      EXPECT_EQ(reference.cert_bytes, wide.cert_bytes)
          << "certificate stream diverged at workers=" << workers;
      EXPECT_EQ(wide.stats.stale_replans, 0);
    }
  }
}

// Fixed small substrate for the hand-written streams below.
Graph make_test_substrate() {
  Rng rng(5);
  return make_sparse_random(64, 4.0, rng);
}

TEST(HealerService, DuplicateAndDeadDeletesDropConsistently) {
  // Duplicates inside one forming wave and deletes of long-dead victims
  // must be dropped by the same rule at every worker count — drops are
  // decided at ingest time, when every earlier wave has already committed.
  Graph g0 = make_test_substrate();
  std::vector<ChurnOp> ops;
  for (NodeId v : {NodeId{3}, NodeId{3}, NodeId{7}, NodeId{9}, NodeId{11}})
    ops.push_back(ChurnOp::Delete(v));  // 3 repeats inside the window
  for (NodeId v : {NodeId{3}, NodeId{7}})
    ops.push_back(ChurnOp::Delete(v));  // long dead by now
  ops.push_back(ChurnOp::Insert({NodeId{20}, NodeId{21}}));

  HealerConfig config;
  config.wave_size = 4;
  ServiceRun reference = run_service(g0, ops, config);
  EXPECT_EQ(reference.stats.dropped_deletes, 3);
  EXPECT_EQ(reference.stats.deletes, 4);

  for (int workers : {2, 4}) {
    ServiceRun wide = run_service(g0, ops, with_workers(config, workers));
    EXPECT_EQ(wide.stats.dropped_deletes, 3) << workers << " workers";
    EXPECT_EQ(wide.stats.deletes, 4) << workers << " workers";
    EXPECT_EQ(reference.checkpoint, wide.checkpoint) << workers << " workers";
  }
}

TEST(HealerService, WaveCommitsInsideThePushThatFillsIt) {
  Graph g0 = make_test_substrate();
  HealerConfig config;
  config.wave_size = 4;
  HealerService service(g0, config);
  for (NodeId v = 0; v < 4; ++v) service.push(ChurnOp::Delete(v));

  // No flush: the fourth delete's push() healed the wave before returning.
  EXPECT_EQ(service.stats().waves, 1);
  EXPECT_EQ(service.stats().deletes, config.wave_size);
  for (NodeId v = 0; v < 4; ++v) EXPECT_FALSE(service.engine().is_alive(v));
  service.engine().validate();

  // An insert pushed next applies at once: nothing is buffered.
  const NodeId fresh = static_cast<NodeId>(service.engine().healed().node_capacity());
  service.push(ChurnOp::Insert({NodeId{20}, NodeId{21}}));
  EXPECT_EQ(service.stats().inserts, 1);
  EXPECT_TRUE(service.engine().is_alive(fresh));
}

TEST(HealerService, FlushHealsThePartialTrailingWave) {
  Rng rng(6);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  HealerService service(g0, config);
  for (NodeId v = 0; v < 5; ++v) service.push(ChurnOp::Delete(v));
  service.flush();
  EXPECT_EQ(service.stats().waves, 2);  // one full wave + the trailing 1
  EXPECT_EQ(service.stats().deletes, 5);
  service.engine().validate();
}

// ---------------------------------------------------------------------------
// Epoch-gated admission.

TEST(HealerService, StaleAdmissionReplansInsteadOfCommitting) {
  Rng rng(7);
  Graph g0 = make_sparse_random(128, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  HealerService service(g0, config);

  // The seam fires between snapshot and commit; an insert through engine()
  // bumps the mutation epoch without touching any planned victim.
  int64_t hooked_wave = -1;
  service.set_admission_hook([&](int64_t wave) {
    if (wave != 0 || hooked_wave != -1) return;
    hooked_wave = wave;
    std::vector<NodeId> neighbors{NodeId{60}, NodeId{61}};
    service.engine().insert(neighbors);
  });

  for (NodeId v = 0; v < 8; ++v) service.push(ChurnOp::Delete(v));
  service.flush();

  EXPECT_EQ(hooked_wave, 0);
  EXPECT_EQ(service.stats().stale_replans, 1);
  EXPECT_EQ(service.stats().waves, 2);
  EXPECT_EQ(service.stats().deletes, 8);  // the re-planned wave committed whole
  EXPECT_EQ(service.stats().dropped_deletes, 0);
  for (NodeId v = 0; v < 8; ++v) EXPECT_FALSE(service.engine().is_alive(v));
  service.engine().validate();
}

TEST(HealerService, StaleAdmissionRevalidatesKilledVictims) {
  Rng rng(8);
  Graph g0 = make_sparse_random(128, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  HealerService service(g0, config);

  // The intervening mutation is itself a deletion of one of the wave's own
  // victims: the gate must drop the now-dead victim and re-plan the rest.
  bool fired = false;
  service.set_admission_hook([&](int64_t wave) {
    if (wave != 0 || fired) return;
    fired = true;
    service.engine().remove(NodeId{2});
  });

  for (NodeId v = 0; v < 4; ++v) service.push(ChurnOp::Delete(v));
  service.flush();

  EXPECT_TRUE(fired);
  EXPECT_EQ(service.stats().stale_replans, 1);
  EXPECT_EQ(service.stats().dropped_deletes, 1);  // victim 2 died externally
  EXPECT_EQ(service.stats().deletes, 3);
  for (NodeId v = 0; v < 4; ++v) EXPECT_FALSE(service.engine().is_alive(v));
  service.engine().validate();
}

TEST(HealerService, QueuedVictimKilledThroughEngineIsDropped) {
  // engine() may be mutated between calls into the service. A queued victim
  // killed through it is dropped when its wave heals; planning it would
  // abort in the core ("deleting a dead or unknown processor").
  Rng rng(10);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 2;
  HealerService service(g0, config);
  service.push(ChurnOp::Delete(NodeId{5}));
  service.engine().remove(NodeId{5});
  service.push(ChurnOp::Delete(NodeId{7}));

  EXPECT_EQ(service.stats().waves, 1);
  EXPECT_EQ(service.stats().deletes, 1);
  EXPECT_EQ(service.stats().dropped_deletes, 1);
  EXPECT_EQ(service.stats().stale_replans, 0);
  EXPECT_FALSE(service.engine().is_alive(NodeId{7}));
  service.engine().validate();
}

TEST(HealerService, WaveOfKilledVictimsOnlyCommitsNothing) {
  // Every queued victim died through engine(): the wave counts, like the
  // epoch gate's empty wave, but nothing is planned or committed.
  Rng rng(11);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 2;
  HealerService service(g0, config);
  service.push(ChurnOp::Delete(NodeId{5}));
  service.engine().remove(NodeId{5});
  const uint64_t epoch = service.engine().mutation_epoch();
  service.flush();

  EXPECT_EQ(service.engine().mutation_epoch(), epoch);
  EXPECT_EQ(service.stats().waves, 1);
  EXPECT_EQ(service.stats().deletes, 0);
  EXPECT_EQ(service.stats().dropped_deletes, 1);
  service.engine().validate();
}

TEST(HealerServiceDeathTest, ForcedStaleCommitDiesWithoutTheGate) {
  // What the admission gate protects against: bypass the service and drive
  // the engine's plan/commit split directly — a mutation between the two
  // hits the core's FG_CHECK wall. The service turns this death into the
  // re-plan counted by the tests above.
  Rng rng(9);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerService service(g0);
  std::vector<NodeId> wave{NodeId{1}, NodeId{2}};
  core::RepairPlan plan = service.engine().plan_delete_batch(wave);
  service.push(ChurnOp::Insert({NodeId{10}, NodeId{11}}));  // epoch bump
  EXPECT_DEATH(service.engine().commit_delete_batch(plan), "stale plan");
}

// ---------------------------------------------------------------------------
// Sampled certificate guardrail.

TEST(HealerService, GuardrailSamplesEveryKthWaveAndTeesValidCertificates) {
  Rng rng(10);
  Graph g0 = make_sparse_random(256, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(256, 800, 0xCAFE);

  HealerConfig config;
  config.wave_size = 8;
  config.certify_every = 3;
  HealerService service(g0, config);
  std::ostringstream certs;
  service.set_certificate_stream(&certs);
  VectorChurnStream stream(ops);
  service.run(stream);

  const HealerStats& stats = service.stats();
  ASSERT_GT(stats.waves, 6);
  // Waves 0, 3, 6, ... are sampled.
  EXPECT_EQ(stats.certified_waves, (stats.waves + 2) / 3);
  EXPECT_EQ(stats.cert_rejections, 0);

  // The teed stream is a valid fgcheck input: every certificate parses,
  // passes the first-principles checker, and carries the engine's
  // sequential certified-wave ordinal (the k-th sampled wave is stamped k,
  // whatever service wave it sampled).
  std::istringstream in(certs.str());
  int64_t parsed = 0;
  for (;;) {
    cert::WaveCertificate c;
    bool eof = false;
    cert::CheckResult pr = cert::parse(in, &c, &eof);
    if (eof) break;
    ASSERT_TRUE(pr.ok) << pr.diagnostic;
    EXPECT_EQ(c.wave, parsed);
    cert::CheckResult cr = cert::check(c);
    EXPECT_TRUE(cr.ok) << cr.diagnostic;
    ++parsed;
  }
  EXPECT_EQ(parsed, stats.certified_waves);
}

TEST(HealerService, GuardrailOffEmitsNothing) {
  Rng rng(11);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  config.certify_every = 0;
  HealerService service(g0, config);
  std::ostringstream certs;
  service.set_certificate_stream(&certs);
  for (NodeId v = 0; v < 12; ++v) service.push(ChurnOp::Delete(v));
  service.flush();
  EXPECT_EQ(service.stats().certified_waves, 0);
  EXPECT_TRUE(certs.str().empty());
}

// ---------------------------------------------------------------------------
// Sampled audit guardrail (self-stabilizing recovery in the serving loop).

TEST(HealerService, AuditGuardrailDetectsAlertsAndRecovers) {
  Rng rng(13);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  config.audit_every = 1;
  HealerService service(g0, config);

  std::vector<std::string> alerts;
  service.set_alert([&alerts](int64_t, const std::string& what) {
    alerts.push_back(what);
  });

  // Corrupt derived state (an image multiplicity, away from the wave's
  // victims) between snapshot and commit. The injection bumps the mutation
  // epoch, so the admission gate re-plans; the post-commit audit then finds
  // the drift and the stabilizer repairs it in-loop.
  bool fired = false;
  service.set_admission_hook([&](int64_t wave) {
    if (wave != 0 || fired) return;
    fired = true;
    service.engine().core().inject_multiplicity_bump(NodeId{50}, NodeId{51});
  });

  for (NodeId v = 0; v < 8; ++v) service.push(ChurnOp::Delete(v));
  service.flush();

  EXPECT_TRUE(fired);
  const HealerStats& stats = service.stats();
  EXPECT_EQ(stats.waves, 2);
  EXPECT_EQ(stats.audits, 2);  // audit_every=1 samples every wave
  EXPECT_GT(stats.audit_violations, 0);
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.cert_rejections, 0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts.front().rfind("audit: ", 0), 0u) << alerts.front();

  // The loop left a clean engine behind: audit and validate both agree.
  Stabilizer stabilizer(service.engine());
  EXPECT_TRUE(stabilizer.audit().clean());
  service.engine().validate();
}

TEST(HealerService, GuardrailTeesCertificatesInOrdinalOrderAcrossRecovery) {
  // Every wave is certified and audited; wave 0's audit finds injected
  // drift and recovers, emitting a recovery certificate of its own. The
  // sampled certificate of wave 0 must reach the stream before that
  // recovery certificate, so the teed ordinals ascend (0, 1, 2).
  Rng rng(13);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  config.certify_every = 1;
  config.audit_every = 1;
  HealerService service(g0, config);
  std::ostringstream certs;
  service.set_certificate_stream(&certs);

  bool fired = false;
  service.set_admission_hook([&](int64_t wave) {
    if (wave != 0 || fired) return;
    fired = true;
    service.engine().core().inject_multiplicity_bump(NodeId{50}, NodeId{51});
  });

  for (NodeId v = 0; v < 8; ++v) service.push(ChurnOp::Delete(v));
  service.flush();
  ASSERT_TRUE(fired);
  ASSERT_EQ(service.stats().recoveries, 1);
  EXPECT_EQ(service.stats().cert_rejections, 0);

  std::istringstream in(certs.str());
  std::vector<int64_t> ordinals;
  for (;;) {
    cert::WaveCertificate c;
    bool eof = false;
    cert::CheckResult pr = cert::parse(in, &c, &eof);
    if (eof) break;
    ASSERT_TRUE(pr.ok) << pr.diagnostic;
    cert::CheckResult cr = cert::check(c);
    EXPECT_TRUE(cr.ok) << "ordinal " << c.wave << ": " << cr.diagnostic;
    ordinals.push_back(c.wave);
  }
  // Two sampled deletion waves plus one recovery wave.
  EXPECT_EQ(ordinals, (std::vector<int64_t>{0, 1, 2}));
}

TEST(HealerService, AuditGuardrailQuietOnCleanChurn) {
  Rng rng(14);
  Graph g0 = make_sparse_random(128, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(128, 400, 0xD00D);
  HealerConfig config;
  config.wave_size = 8;
  config.audit_every = 4;
  ServiceRun run = run_service(g0, ops, config);  // asserts zero alerts
  ASSERT_GT(run.stats.waves, 8);
  EXPECT_EQ(run.stats.audits, (run.stats.waves + 3) / 4);
  EXPECT_EQ(run.stats.audit_violations, 0);
  EXPECT_EQ(run.stats.recoveries, 0);
}

// ---------------------------------------------------------------------------
// Ingest validation: a malformed insert is rejected, never applied.

/// Pushes `bad` into a service whose nodes 5 and 6 are dead: the insert must
/// leave the engine untouched, count one rejection, raise one alert that
/// names the fault, and leave the service serving.
void expect_insert_rejected(std::vector<NodeId> bad, const std::string& fault) {
  Graph g0 = make_test_substrate();
  HealerConfig config;
  config.wave_size = 2;
  HealerService service(g0, config);
  std::vector<std::string> alerts;
  service.set_alert([&alerts](int64_t, const std::string& what) {
    alerts.push_back(what);
  });
  service.push(ChurnOp::Delete(NodeId{5}));
  service.push(ChurnOp::Delete(NodeId{6}));
  ASSERT_FALSE(service.engine().is_alive(NodeId{5}));
  const std::vector<uint8_t> before = checkpoint(service.engine());

  service.push(ChurnOp::Insert(std::move(bad)));
  EXPECT_EQ(service.stats().ops, 3);
  EXPECT_EQ(service.stats().rejected_inserts, 1);
  EXPECT_EQ(service.stats().inserts, 0);
  EXPECT_EQ(checkpoint(service.engine()), before);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts.front().rfind("insert: ", 0), 0u) << alerts.front();
  EXPECT_NE(alerts.front().find(fault), std::string::npos) << alerts.front();

  service.push(ChurnOp::Insert({NodeId{20}, NodeId{21}}));
  EXPECT_EQ(service.stats().inserts, 1);
  EXPECT_EQ(alerts.size(), 1u);
  service.engine().validate();
}

TEST(HealerService, RejectsInsertWithDeadNeighbour) {
  expect_insert_rejected({NodeId{20}, NodeId{5}}, "neighbour 5 is dead");
}

TEST(HealerService, RejectsInsertWithOutOfRangeNeighbour) {
  expect_insert_rejected({NodeId{20}, NodeId{64000}}, "neighbour 64000 is dead or out of range");
  expect_insert_rejected({NodeId{-1}, NodeId{20}}, "neighbour -1 is dead or out of range");
}

TEST(HealerService, RejectsInsertWithRepeatedNeighbour) {
  expect_insert_rejected({NodeId{21}, NodeId{20}, NodeId{21}}, "neighbour 21 repeated");
}

TEST(HealerService, RunReportsIngestedOpCount) {
  Rng rng(12);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerService service(g0);
  std::vector<ChurnOp> ops = make_stream(64, 100, 13);
  VectorChurnStream stream(ops);
  EXPECT_EQ(service.run(stream), 100);
  EXPECT_EQ(service.stats().ops, 100);
}

}  // namespace
}  // namespace fg
