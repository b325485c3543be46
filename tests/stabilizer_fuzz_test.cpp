// The corruption-fuzzer oracle (docs/SELF_STABILIZATION.md).
//
// Every case is one loop of the self-stabilization contract on a seeded,
// fully deterministic substrate:
//
//   corrupt -> audit (must see the fault) -> stabilize -> audit (clean,
//   fixed point) -> validate() -> recovery certificate ACCEPTed by
//   cert::check, cert::check_stream, and the standalone fgcheck binary ->
//   healed-image connectivity restored.
//
// The audit is also cross-checked in the other direction: whenever it
// reports clean, the core's FG_CHECK-fatal validate() must agree — a
// false-clean audit dies here instead of slipping through.
//
// CorpusReplay pins the committed seed corpus (tests/data/corruption/):
// any seed that ever fails gets minimized and committed there, so the
// regression replays in every lane, sanitizers included.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cert/certificate.h"
#include "fg/forgiving_graph.h"
#include "fg/stabilizer.h"
#include "fuzz/corruptor.h"
#include "graph/algorithms.h"
#include "harness/certificate.h"
#include "support/checkpoint.h"

namespace fg {
namespace {

using support::checkpoint;

std::string cert_bytes(const cert::WaveCertificate& c) {
  std::ostringstream os;
  c.save(os);
  return os.str();
}

/// One oracle loop. Appends the recovery certificate's canonical bytes to
/// `cert_stream` (when recovery ran) so callers can batch-audit with the
/// fgcheck binary.
void run_oracle(uint64_t seed, int mutations, std::string* cert_stream = nullptr) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " mutations=" + std::to_string(mutations));
  ForgivingGraph fg = fuzz::make_substrate(seed);
  const bool was_connected = is_connected(fg.healed());

  fuzz::CorruptionLog log = fuzz::corrupt(fg, seed, mutations);
  ASSERT_GT(log.applied, 0) << "corruptor found no target";
  SCOPED_TRACE("corruption: " + log.description);

  Stabilizer stabilizer(fg);
  AuditReport before = stabilizer.audit();
  // A single mutation of a legal engine always leaves a detectable
  // violation; independent mutations can in principle cancel back to a
  // legal state, which validate() cross-checks below.
  if (log.applied == 1) {
    EXPECT_FALSE(before.clean());
  }
  if (before.clean()) {
    fg.validate();
    return;
  }

  harness::CertificateCollector sink;
  fg.set_certificate_sink(&sink);
  RecoveryStats recovery = stabilizer.stabilize();
  fg.set_certificate_sink(nullptr);
  EXPECT_TRUE(recovery.recovered);
  ASSERT_EQ(sink.certs.size(), 1u);

  AuditReport after = stabilizer.audit();
  EXPECT_TRUE(after.clean()) << "not a fixed point: " << after.summary();
  fg.validate();
  EXPECT_EQ(is_connected(fg.healed()), was_connected);

  cert::CheckResult checked = cert::check(sink.certs.front());
  EXPECT_TRUE(checked.ok) << checked.diagnostic;
  const std::string bytes = cert_bytes(sink.certs.front());
  std::istringstream is(bytes);
  cert::StreamResult stream = cert::check_stream(is);
  EXPECT_TRUE(stream.ok) << stream.diagnostic;
  EXPECT_FALSE(stream.malformed);
  EXPECT_EQ(stream.waves_checked, 1);
  if (cert_stream != nullptr) cert_stream->append(bytes);
}

// The CI fuzz-smoke gate: 500 seeded cases across every substrate family
// and 1..4 simultaneous faults, zero oracle failures. Deterministic, so a
// failure here is a replayable seed to minimize into the corpus.
TEST(StabilizerFuzz, SmokeSeedRange) {
  for (uint64_t seed = 0; seed < 500; ++seed)
    run_oracle(seed, 1 + static_cast<int>(seed % 4));
}

// Every mutation family, applied alone, must be visible to the audit and
// recoverable — no fault kind relies on co-occurring damage to be found.
TEST(StabilizerFuzz, EveryMutationKindDetectedAndRecovered) {
  for (int k = 0; k < fuzz::kMutationKinds; ++k) {
    const auto kind = static_cast<fuzz::MutationKind>(k);
    SCOPED_TRACE(fuzz::mutation_kind_name(kind));
    int exercised = 0;
    for (uint64_t seed = 0; seed < 8; ++seed) {
      ForgivingGraph fg = fuzz::make_substrate(seed);
      fuzz::CorruptionLog log = fuzz::corrupt_one(fg, seed, kind);
      if (log.applied == 0) continue;  // no target in this substrate
      ++exercised;
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " corruption: " + log.description);
      Stabilizer stabilizer(fg);
      EXPECT_FALSE(stabilizer.audit().clean());
      RecoveryStats recovery = stabilizer.stabilize();
      EXPECT_TRUE(recovery.recovered);
      EXPECT_TRUE(stabilizer.audit().clean());
      fg.validate();
    }
    EXPECT_GT(exercised, 0) << "kind never applicable across the seed range";
  }
}

// Same seed, same everything: substrate checkpoint, corruption log,
// post-recovery checkpoint, certificate bytes.
TEST(StabilizerFuzz, SameSeedReplaysByteIdentically) {
  auto run = [](uint64_t seed, std::vector<uint8_t>* ckpt, std::string* cert,
                std::string* log_out) {
    ForgivingGraph fg = fuzz::make_substrate(seed);
    fuzz::CorruptionLog log = fuzz::corrupt(fg, seed, 3);
    harness::CertificateCollector sink;
    fg.set_certificate_sink(&sink);
    Stabilizer stabilizer(fg);
    RecoveryStats recovery = stabilizer.stabilize();
    fg.set_certificate_sink(nullptr);
    ASSERT_TRUE(recovery.recovered);
    ASSERT_EQ(sink.certs.size(), 1u);
    *ckpt = checkpoint(fg);
    *cert = cert_bytes(sink.certs.front());
    *log_out = log.description;
  };
  std::vector<uint8_t> ckpt_a, ckpt_b;
  std::string cert_a, log_a, cert_b, log_b;
  run(42, &ckpt_a, &cert_a, &log_a);
  run(42, &ckpt_b, &cert_b, &log_b);
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(ckpt_a, ckpt_b);
  EXPECT_EQ(cert_a, cert_b);
}

// Replay the committed corpus: every minimized regression seed, plus the
// deep multi-fault pile-ups the smoke range doesn't reach.
TEST(StabilizerFuzz, CorpusReplay) {
  const std::filesystem::path dir =
      std::filesystem::path(FG_REPO_DIR) / "tests" / "data" / "corruption";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  int cases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".txt") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.is_open());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      uint64_t seed = 0;
      int mutations = 0;
      ASSERT_TRUE(static_cast<bool>(fields >> seed >> mutations))
          << "bad corpus line: " << line;
      run_oracle(seed, mutations);
      ++cases;
    }
  }
  EXPECT_GE(cases, 20);
}

// The standalone verifier must accept recovery certificates at the process
// level (exit 0) — the same independence argument as for deletion waves.
TEST(StabilizerFuzz, FgcheckBinaryAcceptsRecoveryCertificates) {
  std::string stream;
  for (uint64_t seed = 0; seed < 24; ++seed) run_oracle(seed, 2, &stream);
  ASSERT_FALSE(stream.empty());
  const std::string path = testing::TempDir() + "/recovery_certs.txt";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open());
    out << stream;
  }
  const std::string cmd =
      std::string(FG_FGCHECK_BIN) + " " + path + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace fg
