// fgperf: the service benchmark. One client thread feeds fg::HealerService
// a pre-generated, seeded op stream in a closed loop (push() is synchronous)
// and measures the end-to-end metrics with tracing off; --trace 1 instead
// attributes the time with traced replicas of the same stream (bench.h).
// The correctness gate runs outside every timed region, and the last line
// of standard output is one JSON object (perfbench/README.md). The workload
// table fixes how many repetitions a run makes; --seconds is required by the
// benchmark's command interface but sets nothing.
//
//   fgperf --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//          [--tiny] [--flip-log-byte]
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "cert/certificate.h"
#include "fg/healer_service.h"
#include "fg/snapshot_writer.h"
#include "fg/stabilizer.h"
#include "snap/snapshot.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch;  ///< Span dumps of traced runs.
  std::string run_dir;  ///< This run's snapshot files, removed at exit.
  bool tiny = false;
  bool flip_log_byte = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--tiny") {
      a->tiny = true;
    } else if (flag == "--flip-log-byte") {
      a->flip_log_byte = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--scratch") {
      a->scratch = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0 && (a->trace == 0 || a->trace == 1) &&
         !a->scratch.empty();
}

/// Correctness gate: every failed check is named on stderr and counted.
struct Gate {
  int64_t failed_checks = 0;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed_checks;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
};

/// Constructions made only to time setup, on top of one per repetition.
constexpr int kExtraSetups = 8;

/// Restores timed for recover_s after each repetition.
constexpr int kRestoresPerRep = 2;

/// The process's resident set, from /proc/self/status (0 if unreadable).
double rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

/// One repetition of the e2e stream against a freshly constructed service.
struct Rep {
  double setup_s = 0.0;
  double stream_s = 0.0;
  double rss_mb = 0.0;  ///< Resident set once flush() returned.
  std::vector<double> heal_ms;   ///< Per deletion, stream order.
  std::vector<double> push_us;   ///< Per push() call.
  std::vector<double> stall_ms;  ///< push() calls that retired a wave.
  int64_t unhealed_max = 0;
  int64_t alerts = 0;
  fg::HealerStats stats;
  uint64_t digest = 0;  ///< Of the drained service's core.
};

/// Runs the stream; leaves the drained service in *svc for the gate.
Rep run_rep(const Inputs& in, const fg::HealerConfig& cfg,
            std::unique_ptr<fg::HealerService>* svc) {
  Rep rep;
  rep.heal_ms.reserve(static_cast<size_t>(in.deletes));
  rep.push_us.reserve(in.ops.size());
  std::vector<Clock::time_point> pushed;  // push() start of each delete
  pushed.reserve(static_cast<size_t>(in.deletes));

  // Return the heap earlier services freed to the kernel, so the resident
  // set read after the stream holds as little of them as possible.
  malloc_trim(0);
  Clock::time_point s0 = Clock::now();
  *svc = std::make_unique<fg::HealerService>(in.g0, cfg);
  rep.setup_s = ms_between(s0, Clock::now()) / 1000.0;
  fg::HealerService& service = **svc;
  // The service keeps the callback, so it owns its counter.
  auto alerts = std::make_shared<int64_t>(0);
  service.set_alert([alerts](int64_t wave, const std::string& diagnostic) {
    ++*alerts;
    std::cerr << "ALERT: wave " << wave << ": " << diagnostic << "\n";
  });

  size_t covered = 0;
  int64_t waves = 0;
  auto settle = [&](Clock::time_point now) {
    const fg::HealerStats& st = service.stats();
    for (; static_cast<int64_t>(covered) < st.deletes; ++covered)
      rep.heal_ms.push_back(ms_between(pushed[covered], now));
    rep.unhealed_max =
        std::max(rep.unhealed_max, static_cast<int64_t>(pushed.size() - covered));
  };

  Clock::time_point t0 = Clock::now();
  for (const fg::ChurnOp& op : in.ops) {
    Clock::time_point a = Clock::now();
    if (op.kind == fg::ChurnOp::Kind::kDelete) pushed.push_back(a);
    service.push(op);
    Clock::time_point b = Clock::now();
    rep.push_us.push_back(ms_between(a, b) * 1000.0);
    if (service.stats().waves != waves) {
      waves = service.stats().waves;
      rep.stall_ms.push_back(ms_between(a, b));
    }
    settle(b);
  }
  service.flush();
  Clock::time_point t1 = Clock::now();
  settle(t1);
  rep.stream_s = ms_between(t0, t1) / 1000.0;
  rep.rss_mb = rss_mb();
  rep.stats = service.stats();
  rep.alerts = *alerts;
  return rep;
}

/// Flip one byte in the middle of the delta log (or of the base when the
/// log holds no record): the recover check must then fail.
void flip_byte(const std::string& base_path, const std::string& log_path) {
  std::error_code ec;
  std::string path = fs::file_size(log_path, ec) > fg::snap::kMagicLen + 16 ? log_path : base_path;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  auto size = static_cast<std::streamoff>(fs::file_size(path, ec));
  f.seekg(size / 2);
  char c = 0;
  f.get(c);
  f.seekp(size / 2);
  f.put(static_cast<char>(c ^ 0x5a));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Per-repetition checks: the guardrail counters and every op applied.
/// Returns the ops counted as failed: not applied, or deleted in a wave
/// whose sampled certificate was rejected.
int64_t gate_rep(const Rep& rep, int64_t ops, int wave_size, Gate& gate) {
  const fg::HealerStats& st = rep.stats;
  gate.expect(rep.alerts == 0, "alert callback never fired");
  gate.expect(st.cert_rejections == 0, "every sampled certificate passed cert::check");
  gate.expect(st.ops == ops && st.inserts + st.deletes == ops, "every op applied");
  return (ops - st.inserts - st.deletes) + st.cert_rejections * wave_size;
}

/// Streams the inputs through `reps` freshly constructed services. Every
/// repetition replays the same inputs, so all must land on one digest
/// (C4); the audit and the degree bound are checked on the last. After
/// each repetition `drained` (if set) gets the drained service and may drop
/// it. Adds the failed ops to *failed.
std::vector<Rep> run_reps(
    const Inputs& in, const fg::HealerConfig& cfg, int reps, Gate& gate, int64_t* failed,
    const std::function<void(const Rep&, std::unique_ptr<fg::HealerService>&)>& drained) {
  const int64_t ops = static_cast<int64_t>(in.ops.size());
  std::vector<Rep> out;
  std::unique_ptr<fg::HealerService> svc;
  for (int r = 0; r < reps; ++r) {
    svc.reset();
    out.push_back(run_rep(in, cfg, &svc));
    Rep& rep = out.back();
    rep.digest = digest(svc->engine().core());
    *failed += gate_rep(rep, ops, cfg.wave_size, gate);
    std::cerr << "rep " << r << ": setup " << rep.setup_s << " s, stream " << rep.stream_s
              << " s, heal p50 " << percentile(rep.heal_ms, 50.0) << " ms, rss " << rep.rss_mb
              << " MB\n";
    if (r + 1 == reps) {
      gate.expect(fg::audit(svc->engine().core()).clean(), "final audit clean");
      gate.expect(svc->engine().max_degree_ratio() <= fg::cert::kDegreeConstant,
                  "max degree ratio within kDegreeConstant");
    }
    if (drained) drained(rep, svc);
  }
  gate.expect(std::all_of(out.begin(), out.end(),
                          [&](const Rep& rep) { return rep.digest == out.front().digest; }),
              "digest identical across repetitions of one seed");
  return out;
}

int run_e2e(const Args& args, const Workload& w) {
  Gate gate;
  const std::string snap_path = args.run_dir + "/e2e";
  const fg::HealerConfig cfg = service_config(w, snap_path);

  const Inputs in = make_inputs(w, args.seed);
  const int64_t ops = static_cast<int64_t>(in.ops.size());

  // Extra constructions, so setup_s is a median of several samples.
  std::vector<double> setup_s;
  for (int k = 0; k < kExtraSetups; ++k) {
    Clock::time_point s0 = Clock::now();
    fg::HealerService probe(in.g0, cfg);
    setup_s.push_back(ms_between(s0, Clock::now()) / 1000.0);
  }

  // After every repetition: kill, then recover. Spreading the restores
  // over the run samples the host at several moments, as the repetitions
  // do. Without a snapshot guardrail the benchmark writes one base image of
  // the final state itself, so every workload measures the same restore
  // path (base, plus the delta tail where there is one).
  const std::string base = snap_path + ".base", log = snap_path + ".log";
  const fg::HealerConfig resume_cfg = service_config(w, args.run_dir + "/resumed");
  std::vector<double> recover_s;
  auto kill_and_recover = [&](const Rep& rep, std::unique_ptr<fg::HealerService>& svc) {
    if (cfg.snapshot_every == 0) {
      fg::snap::BaseImage image;
      svc->engine().core().to_base_image(&image);
      image.wave = static_cast<uint64_t>(svc->stats().waves);
      image.cursor = static_cast<uint64_t>(svc->stats().ops);
      std::string err;
      gate.expect(fg::snap::write_file_atomic(base, fg::snap::encode_base(image), &err),
                  "base image written: " + err);
      std::error_code ec;
      fs::remove(log, ec);
    }
    svc.reset();
    if (args.flip_log_byte) flip_byte(base, log);

    for (int k = 0; k < kRestoresPerRep; ++k) {
      Clock::time_point t0 = Clock::now();
      fg::core::StructuralCore core;
      fg::SnapshotRestore res = fg::restore_snapshot(base, log, &core);
      if (!res.ok) {
        gate.expect(false, "restore_snapshot: " + res.error);
        return;
      }
      fg::HealerService resumed(std::move(core), res.waves, res.cursor, resume_cfg);
      recover_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
      std::cerr << "restore " << k << ": " << recover_s.back() << " s\n";
      gate.expect(!res.truncated, "snapshot log restored without a torn tail");
      if (k == 0) {
        // The files reflect the stream up to the last committed wave's
        // cursor; re-pushing the rest (inserts after that wave) must land
        // on the live digest.
        gate.expect(res.cursor <= in.ops.size(), "resume cursor within the stream");
        for (size_t i = res.cursor; i < in.ops.size(); ++i) resumed.push(in.ops[i]);
        resumed.flush();
        gate.expect(digest(resumed.engine().core()) == rep.digest,
                    "restored digest equals the live digest");
      }
    }
  };

  int64_t failed = 0;
  const std::vector<Rep> reps = run_reps(in, cfg, w.reps, gate, &failed, kill_and_recover);

  // ops_per_sec and heal_p50_ms come from the fastest repetition: on a
  // shared host other tenants only ever add time, so the least-disturbed
  // repetition is the steadiest estimate. rss_mb is the first
  // repetition's, since later ones also hold heap earlier services left
  // behind. setup_s and recover_s are medians: restore times vary so much
  // within a run that the fastest one moved more between runs than the
  // median did.
  const Rep& best = *std::min_element(
      reps.begin(), reps.end(), [](const Rep& a, const Rep& b) { return a.stream_s < b.stream_s; });
  for (const Rep& rep : reps) setup_s.push_back(rep.setup_s);
  gate.expect(reps.front().rss_mb > 0.0, "resident set read from /proc/self/status");
  failed += gate.failed_checks;
  const bool correct = gate.failed_checks == 0 && failed == 0;
  print_result(correct, ops * w.reps, failed,
               {{"ops_per_sec", static_cast<double>(ops) / best.stream_s, "ops/s"},
                {"heal_p50_ms", percentile(best.heal_ms, 50.0), "ms"},
                {"setup_s", percentile(setup_s, 50.0), "s"},
                {"rss_mb", reps.front().rss_mb, "MB"},
                {"recover_s", percentile(recover_s, 50.0), "s"}});
  return correct ? 0 : 1;
}

int run_traced(const Args& args, const Workload& w) {
  Gate gate;
  const Inputs in = make_inputs(w, args.seed);
  const fg::HealerConfig cfg = service_config(w, args.run_dir + "/e2e");
  const int64_t ops = static_cast<int64_t>(in.ops.size());

  // The e2e reference: the workload's untraced repetitions, samples pooled.
  int64_t failed = 0;
  const std::vector<Rep> reps = run_reps(in, cfg, w.reps, gate, &failed, nullptr);
  const uint64_t e2e_digest = reps.back().digest;
  Rep pooled;
  std::vector<double> stream_s;
  for (const Rep& rep : reps) {
    stream_s.push_back(rep.stream_s);
    for (std::vector<double> Rep::*v : {&Rep::heal_ms, &Rep::push_us, &Rep::stall_ms})
      (pooled.*v).insert((pooled.*v).end(), (rep.*v).begin(), (rep.*v).end());
    pooled.unhealed_max = std::max(pooled.unhealed_max, rep.unhealed_max);
    pooled.alerts += rep.alerts;
    pooled.stats.stale_replans += rep.stats.stale_replans;
  }

  // Phase pass, spans off then on; module pass; recover pass.
  const std::string phase_snap = args.run_dir + "/phase";
  PassResult quiet = phase_pass(in, cfg, phase_snap, false, "");
  PassResult ph = phase_pass(in, cfg, phase_snap, true,
                             args.scratch + "/spans-" + args.workload + ".tsv");
  PassResult mod = module_pass(in, cfg);
  gate.expect(quiet.digest == e2e_digest, "untraced phase pass lands on the e2e digest");
  gate.expect(ph.digest == e2e_digest, "phase pass lands on the e2e digest");
  gate.expect(mod.digest == e2e_digest, "module pass lands on the e2e digest");
  gate.expect(ph.cert_rejections == 0, "phase-pass certificates pass cert::check");
  gate.expect(ph.dirty_audits == 0 && quiet.dirty_audits == 0, "phase-pass audits clean");
  gate.expect(ph.snapshot_errors == 0 && quiet.snapshot_errors == 0, "phase-pass snapshots written");
  const double coverage = ph.covered_ms / ph.stream_ms;
  gate.expect(coverage >= 0.95, "phase-pass spans cover >= 95% of its wall clock");

  RecoverResult rec;
  if (cfg.snapshot_every > 0) {
    rec = recover_pass(in, phase_snap + ".base", phase_snap + ".log", args.tiny ? 2 : 3);
    gate.expect(rec.ok, "recover pass restored the phase pass's snapshot");
    gate.expect(rec.digest == e2e_digest, "recover pass lands on the e2e digest");
  }

  auto total = [&](const PassResult& p, const char* name) {
    auto it = p.totals.find(name);
    return it == p.totals.end() ? 0.0 : it->second.total_ms;
  };
  auto p50 = [&](const PassResult& p, const char* name) {
    auto it = p.totals.find(name);
    return it == p.totals.end() ? 0.0 : percentile(it->second.wave_ms, 50.0);
  };
  const double waves = static_cast<double>(std::max<int64_t>(1, ph.waves));
  const double wave_ms = total(ph, "healer_service.wave");
  const double plan_commit = total(ph, "core.partition") + total(ph, "core.plan_region") +
                             total(ph, "core.break") + total(ph, "core.break_stitch") +
                             total(ph, "core.merge") + total(ph, "core.merge_stitch");
  const double module_ms = total(mod, "sharded_forest.plan") + total(mod, "sharded_forest.execute");

  std::vector<Metric> m = {
      {"healer_service.heal_p90_ms", percentile(pooled.heal_ms, 90.0), "ms"},
      {"healer_service.heal_p99_ms", percentile(pooled.heal_ms, 99.0), "ms"},
      {"healer_service.push_p50_us", percentile(pooled.push_us, 50.0), "us"},
      {"healer_service.stall_p99_ms", percentile(pooled.stall_ms, 99.0), "ms"},
      {"healer_service.unhealed_max", static_cast<double>(pooled.unhealed_max), "count"},
      {"healer_service.loop_overhead_share",
       1.0 - quiet.stream_ms / (percentile(stream_s, 50.0) * 1000.0), "ratio"},
      {"healer_service.stale_replans", static_cast<double>(pooled.stats.stale_replans), "count"},
      {"healer_service.alerts", static_cast<double>(pooled.alerts), "count"},
      {"sharded_forest.regions_per_wave", static_cast<double>(ph.regions) / waves, "count"},
      {"sharded_forest.region_skew", ph.largest_region_work / std::max(1.0, ph.region_work), "ratio"},
      {"sharded_forest.parallel_share",
       (total(ph, "core.plan_region") + total(ph, "core.break") + total(ph, "core.merge")) /
           std::max(1e-9, wave_ms), "ratio"},
      {"sharded_forest.plan_ms", total(mod, "sharded_forest.plan"), "ms"},
      {"sharded_forest.execute_ms", total(mod, "sharded_forest.execute"), "ms"},
      {"sharded_forest.fanout_speedup", plan_commit / std::max(1e-9, module_ms), "x"},
  };
  for (const char* phase : {"insert", "partition", "plan_region", "break", "break_stitch",
                            "merge", "merge_stitch"}) {
    std::string name = std::string("core.") + phase;
    m.push_back({name + "_ms", total(ph, name.c_str()), "ms"});
    m.push_back({name + "_share", total(ph, name.c_str()) / ph.stream_ms, "ratio"});
  }
  m.push_back({"core.events_per_wave", static_cast<double>(ph.events) / waves, "count"});
  m.push_back({"core.pieces_per_wave", static_cast<double>(ph.pieces) / waves, "count"});
  m.push_back({"core.anchors_per_wave", static_cast<double>(ph.anchors) / waves, "count"});
  m.push_back({"core.forest_live_share", ph.forest_live_share, "ratio"});
  m.push_back({"haft.merge_steps_per_wave", static_cast<double>(ph.steps) / waves, "count"});
  m.push_back({"graph.edge_flips_per_wave", static_cast<double>(ph.edge_flips) / waves, "count"});
  for (const char* name : {"harness.cert_emit", "cert.check", "stabilizer.audit",
                           "snapshot_writer.delta", "snapshot_writer.rotate"}) {
    m.push_back({std::string(name) + "_ms", p50(ph, name), "ms"});
    m.push_back({std::string(name) + "_share", total(ph, name) / ph.stream_ms, "ratio"});
  }
  m.push_back({"harness.cert_bytes", ph.cert_bytes, "B"});
  m.push_back({"snap.delta_bytes_per_wave", ph.delta_bytes, "B"});
  m.push_back({"snap.base_bytes", ph.base_bytes, "B"});
  m.push_back({"snap.decode_ms", rec.read_ms + rec.decode_ms + rec.scan_ms, "ms"});
  m.push_back({"core.restore_ms", rec.from_base_ms + rec.replay_ms, "ms"});
  m.push_back({"trace.span_coverage", coverage, "ratio"});
  m.push_back({"trace.overhead_share", ph.stream_ms / quiet.stream_ms - 1.0, "ratio"});

  std::cout << std::hex << "digests e2e=" << e2e_digest << " quiet=" << quiet.digest
            << " phase=" << ph.digest << " module=" << mod.digest;
  if (cfg.snapshot_every > 0) std::cout << " recover=" << rec.digest;
  std::cout << std::dec << "\n";

  failed += gate.failed_checks;
  const bool correct = gate.failed_checks == 0 && failed == 0;
  print_result(correct, ops * w.reps, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: fgperf --workload NAME --seed N --seconds S --trace 0|1 "
                 "--scratch DIR [--tiny] [--flip-log-byte]\n";
    return 2;
  }
  Workload w;
  if (!find_workload(args.workload, args.tiny, &w)) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  args.run_dir = args.scratch + "/run-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(args.run_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.run_dir << ": " << ec.message() << "\n";
    return 2;
  }
  int rc = args.trace == 1 ? run_traced(args, w) : run_e2e(args, w);
  std::filesystem::remove_all(args.run_dir, ec);
  return rc;
}
