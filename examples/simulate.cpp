// Parameterizable simulation driver — run any (graph x adversary x healer)
// combination from the command line and get the paper's success metrics.
//
//   $ ./examples/simulate [--certify[=FILE]] [--snapshot=PATH] [graph] [n] [healer] [adversary] [steps] [seed]
//
// Defaults: er 512 forgiving random-delete 300 1.
// Graphs:     star path cycle grid er ba tree
// Healers:    forgiving forgiving-tree none line star binary-tree kary:<k>
// Adversaries: random-delete cut-vertex maxdeg-delete helper-load star-attack
//              churn:<p_delete> build-and-burn:<fanout> batch:<k> regions:<k>
//
// An unknown graph kind, healer or adversary (or a bad parameter, such as
// kary:1 or churn:2) is named on stderr and exits 2.
//
// --certify emits one repair certificate per committed deletion wave
// (docs/CERTIFICATES.md) — to FILE if given, else to stdout after the run —
// ready to pipe through the standalone verifier: ./fgcheck FILE. Only the
// forgiving healer has waves to certify.
//
// --snapshot=PATH keeps a durable snapshot of the run (docs/SNAPSHOTS.md):
// PATH.base gets the initial base image, PATH.log one CRC-framed delta
// record per committed repair wave. Inspect or verify the pair with the
// standalone tool: ./fgsnap verify PATH.base PATH.log. Forgiving healer
// only (the baselines have no structural core to snapshot).
//
// Set FG_CSV=1 to get CSV alongside the table.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "fg/snapshot_writer.h"

#include "adversary/adversary.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "harness/experiment.h"
#include "haft/haft.h"
#include "heal/forgiving_tree.h"
#include "heal/healer.h"
#include "util/table.h"

namespace {

fg::Graph build(const std::string& kind, int n, fg::Rng& rng) {
  using namespace fg;
  if (kind == "star") return make_star(n);
  if (kind == "path") return make_path(n);
  if (kind == "cycle") return make_cycle(n);
  if (kind == "grid") {
    int side = 1;
    while (side * side < n) ++side;
    return make_grid(side, side);
  }
  if (kind == "er") return make_erdos_renyi(n, 8.0 / n, rng);
  if (kind == "ba") return make_barabasi_albert(n, 2, rng);
  if (kind == "tree") return make_random_tree(n, rng);
  std::cerr << "unknown graph kind: " << kind << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fg;
  bool certify = false;
  std::string certify_file;
  std::string snapshot_path;
  int arg0 = 1;
  while (argc > arg0 && std::string(argv[arg0]).rfind("--", 0) == 0) {
    std::string flag = argv[arg0];
    if (flag.rfind("--certify", 0) == 0) {
      certify = true;
      if (flag.size() > 10 && flag[9] == '=') certify_file = flag.substr(10);
    } else if (flag.rfind("--snapshot=", 0) == 0 && flag.size() > 11) {
      snapshot_path = flag.substr(11);
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return 2;
    }
    ++arg0;
  }
  auto arg = [&](int i, const char* dflt) {
    return argc > arg0 + i ? std::string(argv[arg0 + i]) : std::string(dflt);
  };
  std::string graph = arg(0, "er");
  int n = std::atoi(arg(1, "512").c_str());
  std::string healer_name = arg(2, "forgiving");
  std::string adversary_name = arg(3, "random-delete");
  int steps = std::atoi(arg(4, "300").c_str());
  uint64_t seed = std::strtoull(arg(5, "1").c_str(), nullptr, 10);

  Rng rng(seed);
  Graph g0 = build(graph, n, rng);
  auto healer = make_healer(healer_name, g0);
  if (healer == nullptr) {
    std::cerr << "unknown healer or bad parameter: " << healer_name << "\n";
    return 2;
  }
  auto adversary = make_adversary(adversary_name);
  if (adversary == nullptr) {
    std::cerr << "unknown adversary or bad parameter: " << adversary_name << "\n";
    return 2;
  }

  std::ostringstream cert_buf;
  harness::CertificateWriter cert_writer(cert_buf);
  if (certify) {
    auto* fgh = dynamic_cast<ForgivingGraphHealer*>(healer.get());
    if (fgh == nullptr) {
      std::cerr << "--certify requires the forgiving healer\n";
      return 2;
    }
    fgh->engine().set_certificate_sink(&cert_writer);
  }

  std::unique_ptr<SnapshotWriter> snapshot;
  ForgivingGraphHealer* snap_healer = nullptr;
  if (!snapshot_path.empty()) {
    snap_healer = dynamic_cast<ForgivingGraphHealer*>(healer.get());
    if (snap_healer == nullptr) {
      std::cerr << "--snapshot requires the forgiving healer\n";
      return 2;
    }
    snapshot = std::make_unique<SnapshotWriter>(snapshot_path + ".base",
                                                snapshot_path + ".log", 0);
    std::string err;
    if (!snapshot->begin(snap_healer->engine().core(), 0, 0, &err)) {
      std::cerr << "--snapshot: " << err << "\n";
      return 2;
    }
    snap_healer->engine().core().set_delta_recorder(snapshot.get());
  }

  std::cout << "simulate: graph=" << graph << " n=" << n << " healer=" << healer->name()
            << " adversary=" << adversary->name() << " steps=" << steps
            << " seed=" << seed << "\n\n";

  RunConfig cfg;
  cfg.max_steps = steps;
  cfg.sample_every = std::max(1, steps / 8);
  cfg.stretch_sources = 24;
  auto res = run_experiment(*healer, *adversary, cfg, rng);

  Table t{"step", "alive", "n seen", "max deg ratio", "max stretch", "avg stretch",
          "bound", "components"};
  auto row = [&](const Sample& s) {
    t.add(s.step, s.alive, s.total_inserted, fmt(s.degree.max_ratio),
          fmt(s.stretch.max_stretch), fmt(s.stretch.avg_stretch),
          std::max(1, haft::ceil_log2(std::max(2, s.total_inserted))), s.components);
  };
  for (const auto& s : res.timeline) row(s);
  row(res.final);
  t.print(std::cout);

  std::cout << "\nworst over run: degree ratio " << fmt(res.worst_degree_ratio)
            << ", stretch " << fmt(res.worst_stretch) << ", broken pairs "
            << res.broken_pairs_total << " (" << res.deletions << " deletions, "
            << res.insertions << " insertions)\n";

  if (snapshot != nullptr) {
    snap_healer->engine().core().set_delta_recorder(nullptr);
    if (!snapshot->maintain(snap_healer->engine().core())) {
      std::cerr << "--snapshot: " << snapshot->take_error() << "\n";
      return 2;
    }
    std::cout << "\nsnapshot: " << snapshot_path << ".base + " << snapshot_path
              << ".log (" << snapshot->waves()
              << " wave deltas; verify with: fgsnap verify " << snapshot_path
              << ".base " << snapshot_path << ".log)\n";
  }

  if (certify) {
    const std::string certs = cert_buf.str();
    if (certify_file.empty()) {
      std::cout << "\n" << certs;
    } else {
      std::ofstream out(certify_file);
      if (!out) {
        std::cerr << "--certify: cannot write " << certify_file << "\n";
        return 2;
      }
      out << certs;
      std::cout << "\ncertificates: " << certify_file
                << " (verify with: fgcheck " << certify_file << ")\n";
    }
  }
  return 0;
}
