// Shared pieces of the service benchmark (fgperf): workload table, seeded
// input generation, the one knob adapter, the structural digest, and the
// in-memory span recorder the traced passes use.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/healer_service.h"
#include "graph/graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One workload: substrate, stream shape, and the service knobs it sets.
/// A zero knob means "leave the shipped HealerConfig default".
struct Workload {
  std::string name;
  int nodes = 0;             ///< Substrate size (make_sparse_random, mean degree 8).
  int64_t ops = 0;           ///< Stream length (inserts + deletes).
  int burst = 0;             ///< 0: 50/50 interleaved churn; else alternating bursts.
  int wave_size = 0;         ///< Victims per wave.
  int workers = 0;           ///< Fanned out to all three worker knobs.
  int certify_every = 0;     ///< Certificate sampling period (waves).
  int audit_every = 0;       ///< Stabilizer audit period (waves).
  int snapshot_every = 0;    ///< Base rotation period (a delta every wave).
  /// Stream repetitions every run makes: fixed, so two commits are
  /// measured by the same estimator however fast each runs, and enough
  /// for >= 1000 pooled waves (ten beyond the traced run's heal p99).
  int reps = 1;
};

/// The workload table (BENCHMARK.json records the same parameters). With
/// `tiny` the sizes shrink to a self-test scale; the knobs stay.
bool find_workload(const std::string& name, bool tiny, Workload* out);

/// The seeded inputs: the substrate and the whole op stream, generated
/// before any clock starts. Every op is valid when applied in stream order:
/// a victim leaves the generator's alive pool the moment its delete is
/// emitted, and each insert's id (assigned sequentially) joins it.
struct Inputs {
  fg::Graph g0;
  std::vector<fg::ChurnOp> ops;
  int64_t deletes = 0;
};
Inputs make_inputs(const Workload& w, uint64_t seed);

/// The only place the benchmark writes HealerConfig fields.
fg::HealerConfig service_config(const Workload& w, const std::string& snapshot_path);

/// FNV-1a over the canonical base-image bytes of `core` (wave and cursor
/// left zero): equal digests mean byte-identical structure.
uint64_t digest(const fg::core::StructuralCore& core);

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);

/// One span name's time in a traced pass.
struct SpanTotal {
  double total_ms = 0.0;
  /// The name's summed duration per wave it occurred in: one entry per
  /// certificate for the two emission spans of a sampled wave.
  std::vector<double> wave_ms;
};

/// What a traced pass measured.
struct PassResult {
  uint64_t digest = 0;
  double stream_ms = 0.0;   ///< First op to the end of the final wave.
  double covered_ms = 0.0;  ///< Sum of all spans' self times.
  std::map<std::string, SpanTotal> totals;
  int64_t waves = 0;
  /// Structural counts, summed over waves.
  int64_t regions = 0, events = 0, pieces = 0, anchors = 0, steps = 0, edge_flips = 0;
  double largest_region_work = 0.0, region_work = 0.0;
  double forest_live_share = 0.0;
  int64_t cert_rejections = 0, dirty_audits = 0, snapshot_errors = 0;
  double cert_bytes = 0.0;      ///< Median saved size of a sampled certificate.
  double delta_bytes = 0.0;     ///< Log bytes appended per wave (mean).
  double base_bytes = 0.0;      ///< Size of the last base image written.
};

/// Phase pass: a serial replica of the service's wave loop built from the
/// core's public phase functions (recorded-effects break and merge), with
/// the guardrail calls at the workload's sampling periods. `snapshot_path`
/// is where its own snapshot files go when the workload records them.
PassResult phase_pass(const Inputs& in, const fg::HealerConfig& cfg,
                      const std::string& snapshot_path, bool trace,
                      const std::string& span_path);

/// Module pass: the same loop through ShardedForest::plan / execute at the
/// workload's worker count.
PassResult module_pass(const Inputs& in, const fg::HealerConfig& cfg);

/// Recover pass: the public pieces of restore_snapshot timed one by one,
/// `reps` times over the same files. The digest is taken after the inserts
/// past the files' resume cursor are applied, so it compares with the e2e
/// run's.
struct RecoverResult {
  bool ok = false;
  uint64_t digest = 0;
  double read_ms = 0.0, decode_ms = 0.0, scan_ms = 0.0, from_base_ms = 0.0,
         replay_ms = 0.0;
};
RecoverResult recover_pass(const Inputs& in, const std::string& base_path,
                           const std::string& log_path, int reps);

}  // namespace perfbench
