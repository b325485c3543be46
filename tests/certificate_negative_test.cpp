// Negative paths of the certificate checker, plus the pinned golden corpus.
//
// The corpus under tests/data/certs/ is committed byte-for-byte (like
// golden_output_test.cpp): the engines must regenerate it exactly for a
// fixed deterministic schedule, and the checker must accept it. Each
// corruption case then forges one section of a valid certificate and
// asserts the checker rejects it with the expected rule in a localized
// diagnostic — the guarantees tools/fgcheck gives about engine output mean
// nothing unless every forgery is actually caught.
//
// Regenerate the fixtures after a deliberate repair-algorithm change with
// FG_UPDATE_GOLDENS=1 (and say so in the commit); an unexplained diff here
// is a determinism regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cert/certificate.h"
#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "fg/healer_service.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "util/rng.h"

namespace fg {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(FG_REPO_DIR) + "/tests/data/certs/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.is_open()) << "missing fixture " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// The fixed schedule both golden streams are recorded from: star hub
// deletion, a batch wave, an insertion, one more deletion. Deterministic —
// no RNG anywhere.
template <class Engine>
void run_golden_schedule(Engine* e) {
  e->remove(0);
  e->delete_batch(std::vector<NodeId>{1, 2});
  e->insert(std::vector<NodeId>{3, 4});
  e->remove(5);
}

std::string generate_stream(bool dist_engine) {
  std::ostringstream os;
  harness::CertificateWriter writer(os);
  Graph g0 = make_star(9);
  if (dist_engine) {
    dist::DistForgivingGraph net(g0);
    net.set_certificate_sink(&writer);
    run_golden_schedule(&net);
  } else {
    ForgivingGraph network(g0);
    network.set_certificate_sink(&writer);
    run_golden_schedule(&network);
  }
  return os.str();
}

void expect_pinned(const std::string& name, const std::string& generated) {
  const std::string path = fixture_path(name);
  if (std::getenv("FG_UPDATE_GOLDENS") != nullptr) {
    std::ofstream f(path);
    f << generated;
    GTEST_SKIP() << "updated " << path;
  }
  EXPECT_EQ(read_file(path), generated) << name << " drifted";
}

TEST(CertificateGolden, CentralizedStreamIsPinned) {
  expect_pinned("golden_central.cert", generate_stream(/*dist_engine=*/false));
}

TEST(CertificateGolden, DistStreamIsPinned) {
  expect_pinned("golden_dist.cert", generate_stream(/*dist_engine=*/true));
}

TEST(CertificateGolden, CorpusValidates) {
  for (const char* name : {"golden_central.cert", "golden_dist.cert"}) {
    std::istringstream is(read_file(fixture_path(name)));
    cert::StreamResult res = cert::check_stream(is);
    EXPECT_TRUE(res.ok) << name << ": " << res.diagnostic;
    EXPECT_EQ(res.waves_checked, 3) << name;
  }
}

/// FNV-1a (64-bit) over a byte string: pins a stream too large to commit.
uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

// The two streams above come from make_star(9): one small RT per wave. This
// pin covers the bytes of deep, multi-region waves at service scale — a
// seeded churn stream (the bench/churn_common.h generator, inlined) through
// HealerService with every wave certified, teed and re-checked offline.
TEST(CertificateGolden, ServiceStreamDigestIsPinned) {
  constexpr int kNodes = 4096;
  constexpr int kOps = 2000;
  Rng rng(17);
  Graph g0 = make_sparse_random(kNodes, 8.0, rng);
  HealerConfig config;
  config.certify_every = 1;
  HealerService service(g0, config);
  std::ostringstream tee;
  service.set_certificate_stream(&tee);

  std::vector<NodeId> pool(static_cast<size_t>(kNodes));
  for (NodeId v = 0; v < kNodes; ++v) pool[static_cast<size_t>(v)] = v;
  NodeId next_id = kNodes;
  for (int i = 0; i < kOps; ++i) {
    if (pool.size() > 64 && rng.next_bool(0.5)) {
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
  ASSERT_EQ(service.stats().cert_rejections, 0);

  const std::string stream = tee.str();
  {
    std::istringstream is(stream);
    cert::StreamResult res = cert::check_stream(is);
    ASSERT_TRUE(res.ok) << res.diagnostic;
    EXPECT_EQ(res.waves_checked, service.stats().certified_waves);
  }
  size_t largest_rt = 0;
  int regions = 0;
  {
    std::istringstream is(stream);
    cert::WaveCertificate c;
    bool eof = false;
    while (cert::parse(is, &c, &eof).ok && !eof)
      for (const cert::RegionCert& rc : c.regions) {
        largest_rt = std::max(largest_rt, rc.nodes.size());
        ++regions;
      }
  }
  EXPECT_GE(largest_rt, 1000u) << "the stream no longer reaches a deep RT";
  EXPECT_GT(regions, static_cast<int>(service.stats().certified_waves))
      << "the stream no longer splits waves into several regions";
  EXPECT_EQ(fnv1a(stream), 8235632626532799063ULL)
      << "service certificate stream drifted (" << stream.size() << " bytes)";
}

// ---------------------------------------------------------------------------
// Programmatic corruption of each certificate section. The base certificate
// is the dist fixture's first wave (it has regions, anchors, degrees,
// stretch witnesses, AND a cost claim — every section represented).

cert::WaveCertificate parse_first_golden_wave() {
  std::istringstream is(read_file(fixture_path("golden_dist.cert")));
  cert::WaveCertificate c;
  bool eof = false;
  cert::CheckResult res = cert::parse(is, &c, &eof);
  EXPECT_TRUE(res.ok) << res.diagnostic;
  EXPECT_FALSE(eof);
  EXPECT_TRUE(cert::check(c).ok);
  // Every section the corruptions below target must be populated.
  EXPECT_FALSE(c.regions.empty());
  EXPECT_FALSE(c.regions[0].nodes.empty());
  EXPECT_FALSE(c.regions[0].image_edges.empty());
  EXPECT_FALSE(c.regions[0].anchors.empty());
  EXPECT_FALSE(c.degrees.empty());
  EXPECT_FALSE(c.stretch.empty());
  EXPECT_TRUE(c.cost.present);
  return c;
}

void expect_rejected(const cert::WaveCertificate& c, const std::string& rule,
                     const std::string& label) {
  cert::CheckResult res = cert::check(c);
  ASSERT_FALSE(res.ok) << label << ": forgery not detected";
  EXPECT_NE(res.diagnostic.find(rule), std::string::npos)
      << label << " misdiagnosed as: " << res.diagnostic;
  // Localization: every diagnostic names the wave it rejects.
  EXPECT_NE(res.diagnostic.find("wave "), std::string::npos) << res.diagnostic;

  // The text path agrees with the in-memory path: serialize and re-check.
  std::stringstream ss;
  c.save(ss);
  cert::StreamResult stream = cert::check_stream(ss);
  ASSERT_FALSE(stream.ok) << label << ": forgery survived serialization";
  EXPECT_EQ(stream.diagnostic, res.diagnostic) << label;
  // A forgery is a checker-rule rejection, not a parse failure: fgcheck
  // must exit 1 for it, never 2.
  EXPECT_FALSE(stream.malformed) << label;
}

TEST(CertificateNegative, DegreeClaimOffByOne) {
  cert::WaveCertificate c = parse_first_golden_wave();
  // Push one surviving node one past the Theorem-1.1 accounting bound.
  cert::DegreeClaim& d = c.degrees.front();
  ASSERT_GT(d.gprime, 0);
  d.g_after = c.degree_constant * d.gprime + 1;
  expect_rejected(c, "degree", "degree off-by-one");
}

TEST(CertificateNegative, DegreeDeltaExceedsWaveEdges) {
  cert::WaveCertificate c = parse_first_golden_wave();
  // Within the constant, but claiming more growth than the wave's new
  // incident image edges can explain.
  cert::DegreeClaim& d = c.degrees.front();
  d.gprime = 1000;  // defuse the 4x rule; the delta rule must still fire
  d.g_after = d.g_before + static_cast<int>(c.facts.size()) +
              static_cast<int>(c.regions[0].image_edges.size()) + 10;
  expect_rejected(c, "degree", "unexplained degree growth");
}

TEST(CertificateNegative, DroppedRtEdge) {
  cert::WaveCertificate c = parse_first_golden_wave();
  c.regions[0].image_edges.pop_back();
  expect_rejected(c, "image-edges", "dropped RT edge");
}

TEST(CertificateNegative, ForgedRtLink) {
  cert::WaveCertificate c = parse_first_golden_wave();
  // Point a non-root node's parent at itself: link symmetry breaks.
  for (cert::RtNode& n : c.regions[0].nodes) {
    if (n.parent < 0) continue;
    n.parent = (n.parent + 1) % static_cast<int>(c.regions[0].nodes.size());
    break;
  }
  expect_rejected(c, "rt-structure", "forged RT link");
}

TEST(CertificateNegative, AnchorWithoutLeaf) {
  cert::WaveCertificate c = parse_first_golden_wave();
  c.regions[0].anchors.front().first += 1000;
  expect_rejected(c, "anchors", "anchor without a leaf");
}

TEST(CertificateNegative, TruncatedWitnessPath) {
  cert::WaveCertificate c = parse_first_golden_wave();
  ASSERT_GE(c.stretch.front().path.size(), 2u);
  c.stretch.front().path.pop_back();
  expect_rejected(c, "stretch", "truncated witness path");
}

TEST(CertificateNegative, InflatedRoundBudget) {
  cert::WaveCertificate c = parse_first_golden_wave();
  c.cost.rounds = 1 << 20;
  expect_rejected(c, "cost", "inflated round budget");
}

TEST(CertificateNegative, VictimAssignedToUnknownRegion) {
  cert::WaveCertificate c = parse_first_golden_wave();
  ASSERT_FALSE(c.assign.empty());
  c.assign[0] = static_cast<int>(c.regions.size());
  expect_rejected(c, "partition", "bad region assignment");
}

TEST(CertificateNegative, VictimListedAsSurvivor) {
  cert::WaveCertificate c = parse_first_golden_wave();
  ASSERT_FALSE(c.victims.empty());
  c.degrees.push_back(cert::DegreeClaim{c.victims[0], 1, 1, 1});
  expect_rejected(c, "degree", "victim listed as survivor");
}

TEST(CertificateNegative, DuplicateImageEdgeOutOfOrder) {
  cert::WaveCertificate c = parse_first_golden_wave();
  // Repeat the last claimed edge at the front: the copy is not adjacent to
  // its twin in the claimed order.
  std::vector<std::pair<NodeId, NodeId>>& edges = c.regions[0].image_edges;
  ASSERT_GE(edges.size(), 2u);
  edges.insert(edges.begin(), edges.back());
  expect_rejected(c, "image-edges: duplicate claimed image edge",
                  "duplicate image edge out of order");
}

TEST(CertificateNegative, ExtraImageEdgeIsNamed) {
  cert::WaveCertificate c = parse_first_golden_wave();
  // Two owners of the witness that no RT edge joins.
  std::vector<std::pair<NodeId, NodeId>>& edges = c.regions[0].image_edges;
  const std::pair<NodeId, NodeId> extra{1, 8};
  ASSERT_EQ(std::count(edges.begin(), edges.end(), extra), 0);
  edges.push_back(extra);
  expect_rejected(c, "image-edges: claimed edges differ from the RT witness image at (1, 8)",
                  "extra image edge");
}

TEST(CertificateNegative, DegreeClaimListedTwiceOutOfOrder) {
  cert::WaveCertificate c = parse_first_golden_wave();
  // Repeat the first (smallest) claim at the end of the sorted section.
  ASSERT_GE(c.degrees.size(), 2u);
  const NodeId node = c.degrees.front().node;
  c.degrees.push_back(c.degrees.front());
  expect_rejected(c, "degree: node " + std::to_string(node) + " listed twice",
                  "degree claim listed twice");
}

TEST(CertificateNegative, AnchorOwnerMissingFromDegrees) {
  cert::WaveCertificate c = parse_first_golden_wave();
  const NodeId owner = c.regions[0].anchors.back().first;
  auto it = std::find_if(c.degrees.begin(), c.degrees.end(),
                         [owner](const cert::DegreeClaim& d) { return d.node == owner; });
  ASSERT_NE(it, c.degrees.end());
  c.degrees.erase(it);
  expect_rejected(c, "region 0: degree: anchor owner " + std::to_string(owner) +
                         " missing from the degree section",
                  "anchor owner without a degree claim");
}

TEST(CertificateNegative, RtFactOutsideRegionImage) {
  cert::WaveCertificate c = parse_first_golden_wave();
  // A normalized, unrepeated fact crediting region 0 with an edge its RT
  // image does not have.
  const std::pair<NodeId, NodeId> forged{1, 8};
  ASSERT_EQ(std::count(c.regions[0].image_edges.begin(),
                       c.regions[0].image_edges.end(), forged),
            0);
  c.facts.push_back(cert::EdgeFact{forged.first, forged.second,
                                   cert::EdgeFact::Kind::kRtWave, 0});
  expect_rejected(c, "stretch: edge fact (1, 8) is not an image edge of region 0",
                  "rt fact outside the region image");
}

TEST(CertificateNegative, RepeatedVictimReportsFirstRepeat) {
  cert::WaveCertificate c = parse_first_golden_wave();
  // victims [v0, 50, 50, v0]: the first repeat in list order is 50, although
  // v0 < 50 repeats too.
  ASSERT_EQ(c.victims.size(), 1u);
  ASSERT_LT(c.victims[0], 50);
  for (NodeId v : {50, 50, c.victims[0]}) {
    c.victims.push_back(v);
    c.assign.push_back(0);
  }
  expect_rejected(c, "partition: victim 50 repeated", "repeated victim");
}

TEST(CertificateNegative, AssignLengthDiffersFromVictims) {
  // The parser never builds such a certificate, so the in-memory path must
  // reject it itself, before any rule reads a victim by assign position.
  for (const bool longer : {true, false}) {
    cert::WaveCertificate c = parse_first_golden_wave();
    ASSERT_FALSE(c.assign.empty());
    if (longer)
      c.assign.insert(c.assign.end(), {99, 99, 99});
    else
      c.assign.pop_back();
    const std::string want = std::string("partition: assign list ") +
                             (longer ? "longer" : "shorter") + " than the victim count";
    cert::CheckResult res = cert::check(c);
    ASSERT_FALSE(res.ok) << want;
    EXPECT_NE(res.diagnostic.find(want), std::string::npos) << res.diagnostic;
    EXPECT_EQ(res.diagnostic.rfind("wave ", 0), 0u) << res.diagnostic;
    // The text path stops at the parser's own partition diagnostic.
    std::stringstream ss;
    c.save(ss);
    cert::StreamResult stream = cert::check_stream(ss);
    ASSERT_FALSE(stream.ok);
    EXPECT_TRUE(stream.malformed);
    EXPECT_NE(stream.diagnostic.find(std::string("assign line ") +
                                     (longer ? "longer" : "shorter") +
                                     " than the victim count"),
              std::string::npos)
        << stream.diagnostic;
  }
}

// ---------------------------------------------------------------------------
// Text-level corruption: things a struct mutation cannot express.

TEST(CertificateNegative, BadVersionLine) {
  std::string text = read_file(fixture_path("golden_central.cert"));
  ASSERT_EQ(text.rfind("fgcert 1\n", 0), 0u);
  text.replace(0, 8, "fgcert 2");
  std::istringstream is(text);
  cert::StreamResult res = cert::check_stream(is);
  ASSERT_FALSE(res.ok);
  EXPECT_TRUE(res.malformed);
  EXPECT_NE(res.diagnostic.find("version"), std::string::npos) << res.diagnostic;
}

TEST(CertificateNegative, TruncatedStream) {
  std::string text = read_file(fixture_path("golden_central.cert"));
  // Cut the stream mid-certificate: drop everything from the last "end".
  size_t cut = text.rfind("end\n");
  ASSERT_NE(cut, std::string::npos);
  std::istringstream is(text.substr(0, cut));
  cert::StreamResult res = cert::check_stream(is);
  ASSERT_FALSE(res.ok);
  EXPECT_TRUE(res.malformed);
  EXPECT_NE(res.diagnostic.find("format"), std::string::npos) << res.diagnostic;
  // The two intact leading certificates still counted.
  EXPECT_EQ(res.waves_checked, 2);
}

TEST(CertificateNegative, GarbageLine) {
  std::string text = read_file(fixture_path("golden_central.cert"));
  size_t pos = text.find("degrees ");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "garbage here\n");
  std::istringstream is(text);
  cert::StreamResult res = cert::check_stream(is);
  ASSERT_FALSE(res.ok);
  EXPECT_TRUE(res.malformed);
}

// ---------------------------------------------------------------------------
// The fgcheck contract (tools/fgcheck.cpp): exit 0 = every stream ACCEPTed,
// exit 1 = a checker rule rejected a well-formed stream, exit 2 = a stream
// that would not even parse. StreamResult.malformed carries the 1-vs-2
// distinction out of cert::check_stream; over several inputs fgcheck
// reports the most severe outcome.

/// A stream that parses cleanly but fails a checker rule (inflated cost).
std::string rejected_stream_text() {
  cert::WaveCertificate c = parse_first_golden_wave();
  c.cost.rounds = 1 << 20;
  std::ostringstream os;
  c.save(os);
  return os.str();
}

/// A stream that fails to parse (unsupported version line).
std::string malformed_stream_text() {
  std::string text = read_file(fixture_path("golden_central.cert"));
  EXPECT_EQ(text.rfind("fgcert 1\n", 0), 0u);
  text.replace(0, 8, "fgcert 2");
  return text;
}

TEST(CertificateNegative, MalformedFlagSeparatesParseFromRuleFailures) {
  {
    std::istringstream is(read_file(fixture_path("golden_central.cert")));
    cert::StreamResult res = cert::check_stream(is);
    ASSERT_TRUE(res.ok) << res.diagnostic;
    EXPECT_FALSE(res.malformed);
  }
  {
    std::istringstream is(rejected_stream_text());
    cert::StreamResult res = cert::check_stream(is);
    ASSERT_FALSE(res.ok);
    EXPECT_FALSE(res.malformed) << "rule rejection misreported as parse "
                                   "failure: " << res.diagnostic;
  }
  {
    std::istringstream is(malformed_stream_text());
    cert::StreamResult res = cert::check_stream(is);
    ASSERT_FALSE(res.ok);
    EXPECT_TRUE(res.malformed) << "parse failure misreported as rule "
                                  "rejection: " << res.diagnostic;
  }
}

TEST(CertificateNegative, FgcheckExitCodesPinned) {
  auto write_stream = [](const std::string& name, const std::string& content) {
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream out(path);
    EXPECT_TRUE(out.is_open());
    out << content;
    return path;
  };
  const std::string good =
      write_stream("fgcheck_good.cert", read_file(fixture_path("golden_central.cert")));
  const std::string rejected =
      write_stream("fgcheck_rejected.cert", rejected_stream_text());
  const std::string malformed =
      write_stream("fgcheck_malformed.cert", malformed_stream_text());

  auto fgcheck = [](const std::vector<std::string>& paths) {
    std::string cmd(FG_FGCHECK_BIN);
    for (const std::string& p : paths) cmd += " " + p;
    cmd += " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    EXPECT_NE(status, -1);
    return WEXITSTATUS(status);
  };
  EXPECT_EQ(fgcheck({good}), 0);
  EXPECT_EQ(fgcheck({rejected}), 1);
  EXPECT_EQ(fgcheck({malformed}), 2);
  // Several inputs: the most severe outcome wins, independent of order.
  EXPECT_EQ(fgcheck({good, rejected}), 1);
  EXPECT_EQ(fgcheck({rejected, good}), 1);
  EXPECT_EQ(fgcheck({good, rejected, malformed}), 2);
  EXPECT_EQ(fgcheck({malformed, rejected, good}), 2);
}

}  // namespace
}  // namespace fg
