// Shared sustained-churn driver for the healer service: one op-stream
// generator + service loop used by bench/churn_service.cpp (the standalone
// flag-driven driver) and bench/repair_path.cpp (the tracked R6 rows in
// BENCH_repair_path.json), so the tracked numbers and the exploratory runs
// can never drift apart.
//
// The generator maintains its own alive-id pool mirroring the stream's
// effects: a victim leaves the pool the moment its delete op is generated
// (so no later op can reference it) and every insert's future id is
// appended (ids are assigned sequentially by the engine), which keeps every
// generated op valid when the service applies it.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "fg/healer_service.h"
#include "graph/generators.h"
#include "snap/snapshot.h"
#include "util/check.h"
#include "util/rng.h"

namespace fg {

struct ChurnDriverConfig {
  int nodes = 1 << 20;          ///< Substrate size (>= 10^6 at the default).
  int64_t ops = 2'000'000;      ///< Stream length (inserts + deletes).
  double delete_ratio = 0.5;    ///< P(delete); 0.5 keeps the alive count stable.
  double avg_degree = 8.0;      ///< Mean degree of the seed graph.
  uint64_t seed = 42;
  HealerConfig service;         ///< Wave size, guardrail sampling, workers.
};

struct ChurnDriverResult {
  double build_ms = 0.0;        ///< Seed graph + engine construction.
  double elapsed_ms = 0.0;      ///< The op loop, push to flush.
  double ops_per_sec = 0.0;
  double p50_ms = 0.0;          ///< Per-wave repair latency percentiles.
  double p99_ms = 0.0;
  HealerStats stats;            ///< Final service counters (copied).
  // Memory once the stream has drained.
  int64_t arena_rows = 0;       ///< Virtual-forest arena rows, tombstones included.
  int64_t live_rows = 0;        ///< Live forest rows.
  double rss_mb = 0.0;          ///< Resident set (VmRSS; 0 where /proc is absent).
  uint64_t base_bytes = 0;      ///< Size of the base image a snapshot would write.
};

/// The process's resident set in MB, from /proc/self/status (0 if absent).
inline double resident_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

/// Generate the churn stream: `cfg.ops` ops, each handed to `push`, drawn
/// from `rng` (already used to build the seed graph of `cfg.nodes` nodes).
template <class Push>
void for_each_churn_op(const ChurnDriverConfig& cfg, Rng& rng, Push&& push) {
  std::vector<NodeId> pool(static_cast<size_t>(cfg.nodes));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = static_cast<NodeId>(cfg.nodes);
  for (int64_t i = 0; i < cfg.ops; ++i) {
    // Never churn the substrate below a floor: the guarantees are about a
    // large network under churn, not about grinding it to dust.
    if (pool.size() > 64 && rng.next_bool(cfg.delete_ratio)) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      push(ChurnOp::Delete(victim));
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      push(ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
  }
}

/// `attach`, when set, is called on the freshly built service before the
/// first op (a bench installs a delta recorder on its core there).
inline ChurnDriverResult run_churn_driver(
    const ChurnDriverConfig& cfg, std::ostream* cert_stream = nullptr,
    HealerService::AlertFn alert = nullptr,
    const std::function<void(HealerService&)>& attach = nullptr) {
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };

  Rng rng(cfg.seed);
  ChurnDriverResult result;

  Clock::time_point t_build = Clock::now();
  Graph g0 = make_sparse_random(cfg.nodes, cfg.avg_degree, rng);
  HealerService service(g0, cfg.service);
  if (cert_stream != nullptr) service.set_certificate_stream(cert_stream);
  if (alert) service.set_alert(std::move(alert));
  result.build_ms = ms_since(t_build);
  if (attach) attach(service);

  Clock::time_point t0 = Clock::now();
  for_each_churn_op(cfg, rng, [&service](const ChurnOp& op) { service.push(op); });
  service.flush();
  result.elapsed_ms = ms_since(t0);

  result.stats = service.stats();
  // The pool mirror is exact: no op is dropped or rejected.
  FG_CHECK(result.stats.dropped_deletes == 0 && result.stats.rejected_inserts == 0);
  result.ops_per_sec =
      result.elapsed_ms > 0.0 ? 1000.0 * static_cast<double>(cfg.ops) / result.elapsed_ms : 0.0;
  result.p50_ms = result.stats.latency_percentile(50.0);
  result.p99_ms = result.stats.latency_percentile(99.0);

  // The resident set is read before the base image below is built, so it
  // counts the service, not the measurement.
  const VirtualForest& forest = service.engine().forest();
  result.arena_rows = forest.arena_size();
  result.live_rows = forest.live_count();
  result.rss_mb = resident_mb();
  snap::BaseImage image;
  service.engine().core().to_base_image(&image);
  result.base_bytes = snap::encode_base(image).size();
  return result;
}

}  // namespace fg
