// Healer-service quickstart: sustained churn through the serving loop,
// then a crash-and-resume through the durable snapshot subsystem.
//
// The HealerService wraps the plan/commit pipeline in a long-running loop:
// deletions chop into repair waves, each wave heals with one delete_batch
// inside the push() that fills it, a malformed insert is rejected at
// ingest, and every k-th wave emits a certificate that the
// first-principles checker re-validates in-process (docs/DESIGN.md,
// "Healer service").
//
// Part two replays the same op stream against a service that keeps durable
// snapshots (docs/SNAPSHOTS.md), "kills" it two thirds of the way through
// by destroying it mid-stream, restores a fresh service from the on-disk
// base + delta log, audits the restored core (fg::Stabilizer), re-pushes
// the stream from the restore cursor — and shows the resumed checkpoint
// byte-identical to the uninterrupted run's.
//
//   $ ./examples/healer_service_quickstart
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "fg/healer_service.h"
#include "fg/snapshot_writer.h"
#include "fg/stabilizer.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "snap/snapshot.h"
#include "util/rng.h"

namespace {

/// The engine's complete state as base-image bytes (docs/SNAPSHOTS.md).
std::vector<uint8_t> checkpoint(const fg::HealerService& service) {
  fg::snap::BaseImage image;
  service.engine().core().to_base_image(&image);
  return fg::snap::encode_base(image);
}

}  // namespace

int main() {
  using namespace fg;

  // A 256-node random substrate, waves of 8 deletions, every 4th wave
  // certified and checked by the sampled guardrail. Both commit fan-outs
  // (break scripts and region merges) run on 2 pool workers — any worker
  // count heals the identical structure (contract C4), so the knobs are
  // pure wall-clock tuning.
  Rng rng(7);
  HealerConfig config;
  config.wave_size = 8;
  config.certify_every = 4;
  config.commit_workers = 2;
  config.break_workers = 2;
  Graph g0 = make_sparse_random(256, 4.0, rng);

  // A little churn stream, generated up front so part two can replay it.
  // The generator mirrors the alive set itself: it removes victims the
  // moment their delete is generated (and adds each insert's future id,
  // which the engine assigns sequentially), so every op is valid when the
  // service applies it.
  std::vector<ChurnOp> ops;
  std::vector<NodeId> pool(256);
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = 256;
  for (int i = 0; i < 300; ++i) {
    if (pool.size() > 32 && rng.next_bool(0.5)) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      ops.push_back(ChurnOp::Delete(victim));
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      ops.push_back(ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
  }

  HealerService service(g0, config);
  service.set_alert([](int64_t wave, const std::string& diagnostic) {
    std::cerr << "alert at wave " << wave << ": " << diagnostic << '\n';
  });
  for (const ChurnOp& op : ops) service.push(op);
  service.flush();  // heal the trailing partial wave

  const HealerStats& stats = service.stats();
  std::cout << "ingested " << stats.ops << " ops: " << stats.inserts
            << " inserts, " << stats.deletes << " deletes healed in "
            << stats.waves << " waves\n";
  std::cout << "guardrail: " << stats.certified_waves << " waves certified, "
            << stats.cert_rejections << " rejected\n";
  std::cout << "p50 repair latency " << stats.latency_percentile(50.0)
            << " ms, still connected = " << std::boolalpha
            << is_connected(service.engine().healed()) << '\n';
  const std::vector<uint8_t> reference = checkpoint(service);

  // ---- Part two: crash mid-stream, resume from the durable snapshot. ----
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "fg_quickstart").string();
  HealerConfig durable = config;
  durable.snapshot_every = 8;  // rotate the base every 8 waves
  durable.snapshot_path = prefix;
  {
    HealerService doomed(g0, durable);
    for (size_t i = 0; i < (2 * ops.size()) / 3; ++i) doomed.push(ops[i]);
    // No flush: destroyed with a partial wave still forming. Whatever
    // PATH.base + PATH.log hold at this instant is the crash image.
  }

  core::StructuralCore restored;
  SnapshotRestore res =
      restore_snapshot(prefix + ".base", prefix + ".log", &restored);
  if (!res.ok) {
    std::cerr << "restore failed: " << res.error << '\n';
    return 1;
  }
  std::cout << "\nrestored wave " << res.waves << " (cursor " << res.cursor
            << " of " << ops.size() << " ops"
            << (res.truncated ? ", torn tail dropped" : "") << ")";

  // Audit before serving resumes (docs/SNAPSHOTS.md, "restore-audit flow").
  HealerService resumed(std::move(restored), res.waves, res.cursor, durable);
  Stabilizer stabilizer(resumed.engine());
  std::cout << ", audit " << (stabilizer.audit().clean() ? "clean" : "DIRTY")
            << '\n';

  // Catch up: re-push the stream from the restore cursor.
  for (size_t i = res.cursor; i < ops.size(); ++i) resumed.push(ops[i]);
  resumed.flush();
  std::cout << "resumed checkpoint "
            << (checkpoint(resumed) == reference ? "matches" : "DIVERGES FROM")
            << " the uninterrupted run (" << resumed.stats().waves
            << " total waves)\n";
  return checkpoint(resumed) == reference ? 0 : 1;
}
