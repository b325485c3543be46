// Inputs, the knob adapter, the digest, spans, and the traced passes of the
// service benchmark. Every number here comes from outside the engine: timed
// calls into public functions and public counters.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "cert/certificate.h"
#include "fg/sharded_forest.h"
#include "fg/snapshot_writer.h"
#include "fg/stabilizer.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "snap/snapshot.h"
#include "util/rng.h"

namespace perfbench {

using fg::NodeId;
using fg::VNodeId;
namespace core = fg::core;

bool find_workload(const std::string& name, bool tiny, Workload* out) {
  // churn: the shipped HealerConfig{} on the bench/churn_common.h stream.
  // burst: 256-victim waves split into ~250 disjoint regions, the one
  //        workload where the region fan-out has parallel work.
  // guarded: the churn stream with every guardrail on. Both run the same
  //        130k ops, so the difference between them is the guardrails.
  static const Workload kTable[] = {
      {"churn", 1 << 16, 130'000, 0, 0, 0, 0, 0, 0, 4},
      {"burst", 1 << 20, 262'144, 2048, 256, 3, 0, 0, 0, 4},
      {"guarded", 1 << 16, 130'000, 0, 0, 0, 64, 256, 256, 1},
  };
  for (const Workload& w : kTable) {
    if (w.name != name) continue;
    *out = w;
    if (tiny) {
      out->nodes = w.burst > 0 ? 4096 : 1024;
      out->ops = w.burst > 0 ? 4096 : 6000;
      if (w.burst > 0) out->burst = 512;
    }
    return true;
  }
  return false;
}

Inputs make_inputs(const Workload& w, uint64_t seed) {
  fg::Rng rng(seed);
  Inputs in;
  in.g0 = fg::make_sparse_random(w.nodes, 8.0, rng);
  std::vector<NodeId> pool(static_cast<size_t>(w.nodes));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = static_cast<NodeId>(w.nodes);
  in.ops.reserve(static_cast<size_t>(w.ops));
  for (int64_t i = 0; i < w.ops; ++i) {
    // The bench/churn_common.h stream, floor included: never grind the
    // network to dust.
    if (pool.size() > 64 && (w.burst > 0 ? (i / w.burst) % 2 == 0 : rng.next_bool(0.5))) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      in.ops.push_back(fg::ChurnOp::Delete(victim));
      ++in.deletes;
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      in.ops.push_back(fg::ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
  }
  return in;
}

fg::HealerConfig service_config(const Workload& w, const std::string& snapshot_path) {
  fg::HealerConfig c;
  if (w.wave_size > 0) c.wave_size = w.wave_size;
  if (w.workers > 0) c.plan_workers = c.commit_workers = c.break_workers = w.workers;
  if (w.certify_every > 0) c.certify_every = w.certify_every;
  if (w.audit_every > 0) c.audit_every = w.audit_every;
  if (w.snapshot_every > 0) {
    c.snapshot_every = w.snapshot_every;
    c.snapshot_path = snapshot_path;
  }
  return c;
}

uint64_t digest(const core::StructuralCore& core) {
  fg::snap::BaseImage image;
  core.to_base_image(&image);
  std::vector<uint8_t> bytes = fg::snap::encode_base(image);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = (p / 100.0) * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

// ------------------------------------------------------------------ Spans ---

/// Spans recorded in memory by a traced pass: name, start, end, parent
/// index (-1 for a root), and wave id (-1 before the first wave). With
/// tracing off, open/close read no clock.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  void set_wave(int64_t wave) { wave_ = wave; }

  /// Open a span; returns its index (or -1 with tracing off).
  int open(const char* name);
  void close(int index);
  /// Rename a span once its outcome is known (a maintain() that rotated).
  void rename(int index, const char* name);

  /// Per-name duration totals.
  std::map<std::string, SpanTotal> totals() const;

  /// Sum of all spans' self times (== the roots' summed duration) in ms.
  double covered_ms() const;

  /// Write every span as one tab-separated line.
  bool write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t wave;
  };

  bool on_;
  int64_t wave_ = -1;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// RAII span.
class Span {
 public:
  Span(Spans& spans, const char* name) : spans_(spans), index_(spans.open(name)) {}
  ~Span() { spans_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  int index_;
};

int Spans::open(const char* name) {
  if (!on_) return -1;
  int64_t t = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  int parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back({name, t, t, parent, wave_});
  stack_.push_back(static_cast<int>(records_.size() - 1));
  return stack_.back();
}

void Spans::close(int index) {
  if (index < 0) return;
  Record& r = records_[static_cast<size_t>(index)];
  r.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  stack_.pop_back();
}

void Spans::rename(int index, const char* name) {
  if (index >= 0) records_[static_cast<size_t>(index)].name = name;
}

std::map<std::string, SpanTotal> Spans::totals() const {
  std::map<std::string, SpanTotal> out;
  std::map<std::string, std::map<int64_t, double>> per_wave;
  for (const Record& r : records_) {
    double dur = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    out[r.name].total_ms += dur;
    per_wave[r.name][r.wave] += dur;
  }
  for (auto& [name, waves] : per_wave)
    for (const auto& [wave, ms] : waves) out[name].wave_ms.push_back(ms);
  return out;
}

double Spans::covered_ms() const {
  double sum = 0.0;
  for (const Record& r : records_)
    if (r.parent < 0) sum += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
  return sum;
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "name\tstart_ns\tend_ns\tparent\twave\n";
  for (const Record& r : records_)
    os << r.name << '\t' << r.start_ns << '\t' << r.end_ns << '\t' << r.parent << '\t'
       << r.wave << '\n';
  return static_cast<bool>(os);
}

// ------------------------------------------------------------ the passes ---

int64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(n);
}

/// The recorder the phase pass installs: forwards everything to the
/// SnapshotWriter and times on_wave_committed (the per-wave delta record).
class TimedRecorder final : public core::DeltaRecorder {
 public:
  TimedRecorder(fg::SnapshotWriter& writer, Spans& spans) : writer_(writer), spans_(spans) {}

  void on_insert(NodeId id, std::span<const NodeId> neighbors) override {
    writer_.on_insert(id, neighbors);
  }
  void on_image_touch(NodeId u, NodeId v) override { writer_.on_image_touch(u, v); }
  void on_wave_committed(const core::StructuralCore& core,
                         const core::RepairPlan& plan) override {
    Span s(spans_, "snapshot_writer.delta");
    writer_.on_wave_committed(core, plan);
  }

 private:
  fg::SnapshotWriter& writer_;
  Spans& spans_;
};

/// Feeds the op stream in stream order and hands every full wave (and the
/// trailing partial one) to `heal` with the wave's resume cursor.
template <typename Heal>
void drive(const Inputs& in, int wave_size, core::StructuralCore& core, Spans& spans,
           Heal&& heal) {
  std::vector<NodeId> forming;
  forming.reserve(static_cast<size_t>(wave_size));
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const fg::ChurnOp& op = in.ops[i];
    if (op.kind == fg::ChurnOp::Kind::kInsert) {
      Span s(spans, "core.insert");
      core.insert_node(op.neighbors);
      continue;
    }
    forming.push_back(op.victim);
    if (static_cast<int>(forming.size()) >= wave_size) {
      heal(forming, static_cast<uint64_t>(i + 1));
      forming.clear();
    }
  }
  if (!forming.empty()) heal(forming, static_cast<uint64_t>(in.ops.size()));
}

}  // namespace

PassResult phase_pass(const Inputs& in, const fg::HealerConfig& cfg,
                      const std::string& snapshot_path, bool trace,
                      const std::string& span_path) {
  PassResult out;
  Spans spans(trace);
  core::StructuralCore core(in.g0);

  std::unique_ptr<fg::SnapshotWriter> writer;
  std::unique_ptr<TimedRecorder> timed;
  const std::string base_path = snapshot_path + ".base", log_path = snapshot_path + ".log";
  if (cfg.snapshot_every > 0) {
    writer = std::make_unique<fg::SnapshotWriter>(base_path, log_path, cfg.snapshot_every);
    std::string err;
    if (!writer->begin(core, 0, 0, &err)) ++out.snapshot_errors;
    timed = std::make_unique<TimedRecorder>(*writer, spans);
    core.set_delta_recorder(timed.get());
  }

  std::vector<core::StructuralCore::BreakEffects> break_fx;
  std::vector<core::StructuralCore::MergeEffects> merge_fx;
  std::vector<double> cert_bytes;
  int64_t delta_bytes = 0;
  int64_t wave = 0;
  long cert_index = 0;

  auto heal = [&](const std::vector<NodeId>& victims, uint64_t cursor) {
    spans.set_wave(wave);
    Span wave_span(spans, "healer_service.wave");
    if (writer) writer->set_cursor(cursor);

    core::RepairPlan plan;
    core::DeletionAnalysis analysis;
    {
      Span s(spans, "core.partition");
      analysis = core.analyze_deletion(victims);
    }
    const size_t regions = analysis.seeds.size();
    plan.regions.resize(regions);
    {
      Span s(spans, "core.plan_region");
      for (size_t r = 0; r < regions; ++r)
        core.plan_region(analysis, static_cast<int>(r), &plan.regions[r]);
    }
    {
      Span s(spans, "core.partition");
      core.finalize_plan(analysis, &plan);
    }

    const bool certify = cfg.certify_every > 0 && wave % cfg.certify_every == 0;
    fg::harness::CertificateBuilder builder;
    if (certify) {
      Span s(spans, "harness.cert_emit");
      builder.begin_wave(core, plan);
    }

    if (break_fx.size() < regions) break_fx.resize(regions);
    if (merge_fx.size() < regions) merge_fx.resize(regions);
    std::vector<std::vector<VNodeId>> pieces(regions);
    {
      Span s(spans, "core.break");
      core.begin_break(plan);
      for (size_t r = 0; r < regions; ++r)
        pieces[r] = core.break_region(plan.regions[r], &break_fx[r]);
    }
    {
      Span s(spans, "core.break_stitch");
      for (size_t r = 0; r < regions; ++r) core.apply_break_effects(plan.regions[r], break_fx[r]);
      core.finish_break(plan);
    }
    {
      Span s(spans, "core.merge");
      for (size_t r = 0; r < regions; ++r)
        core.merge_region(plan.regions[r], std::move(pieces[r]), &merge_fx[r]);
    }
    std::vector<VNodeId> roots(regions, fg::kNoVNode);
    {
      Span s(spans, "core.merge_stitch");
      for (size_t r = 0; r < regions; ++r) roots[r] = core.apply_merge_effects(merge_fx[r]);
      core.check_reservation_settled(plan);
    }

    double largest = 0.0, work = 0.0;
    for (size_t r = 0; r < regions; ++r) {
      const core::RegionPlan& rp = plan.regions[r];
      out.events += static_cast<int64_t>(rp.events.size());
      out.pieces += static_cast<int64_t>(rp.pieces.size());
      out.anchors += static_cast<int64_t>(rp.fresh.size());
      out.steps += static_cast<int64_t>(rp.steps.size());
      out.edge_flips += static_cast<int64_t>(break_fx[r].edge_drops.size() +
                                             merge_fx[r].image_edges.size());
      double wr = static_cast<double>(rp.events.size() + rp.steps.size() + rp.fresh.size());
      largest = std::max(largest, wr);
      work += wr;
    }
    out.regions += static_cast<int64_t>(regions);
    out.largest_region_work += largest;
    out.region_work += work;

    if (core::DeltaRecorder* rec = core.delta_recorder()) {
      int64_t before = file_size_or_zero(log_path);
      rec->on_wave_committed(core, plan);
      delta_bytes += file_size_or_zero(log_path) - before;
    }

    if (certify) {
      fg::cert::WaveCertificate c;
      {
        Span s(spans, "harness.cert_emit");
        c = builder.end_wave(core, plan, cert_index++, roots, nullptr);
      }
      {
        Span s(spans, "cert.check");
        if (!fg::cert::check(c).ok) ++out.cert_rejections;
      }
      std::ostringstream os;
      c.save(os);
      cert_bytes.push_back(static_cast<double>(os.str().size()));
    }
    if (cfg.audit_every > 0 && wave % cfg.audit_every == 0) {
      Span s(spans, "stabilizer.audit");
      if (!fg::audit(core).clean()) ++out.dirty_audits;
    }
    if (writer) {
      int index = spans.open("snapshot_writer.maintain");
      if (!writer->maintain(core)) ++out.snapshot_errors;
      spans.close(index);
      if (file_size_or_zero(log_path) == static_cast<int64_t>(fg::snap::kMagicLen))
        spans.rename(index, "snapshot_writer.rotate");
    }
    ++wave;
  };

  Clock::time_point t0 = Clock::now();
  drive(in, cfg.wave_size, core, spans, heal);
  out.stream_ms = ms_between(t0, Clock::now());

  core.set_delta_recorder(nullptr);
  out.waves = wave;
  out.totals = spans.totals();
  out.covered_ms = spans.covered_ms();
  out.forest_live_share = static_cast<double>(core.forest().live_count()) /
                          std::max(1, core.forest().arena_size());
  out.cert_bytes = percentile(cert_bytes, 50.0);
  out.delta_bytes = wave > 0 ? static_cast<double>(delta_bytes) / static_cast<double>(wave) : 0.0;
  if (writer) out.base_bytes = static_cast<double>(file_size_or_zero(base_path));
  out.digest = digest(core);
  if (trace && !span_path.empty()) spans.write(span_path);
  return out;
}

PassResult module_pass(const Inputs& in, const fg::HealerConfig& cfg) {
  PassResult out;
  Spans spans(true);
  core::StructuralCore core(in.g0);
  fg::ShardedForest shards(cfg.plan_workers);
  shards.set_commit_workers(cfg.commit_workers);
  shards.set_break_workers(cfg.break_workers);

  auto heal = [&](const std::vector<NodeId>& victims, uint64_t) {
    core::RepairPlan plan;
    {
      Span s(spans, "sharded_forest.plan");
      plan = shards.plan(core, victims);
    }
    Span s(spans, "sharded_forest.execute");
    shards.execute(core, plan);
  };
  Clock::time_point t0 = Clock::now();
  drive(in, cfg.wave_size, core, spans, heal);
  out.stream_ms = ms_between(t0, Clock::now());
  out.totals = spans.totals();
  out.digest = digest(core);
  return out;
}

RecoverResult recover_pass(const Inputs& in, const std::string& base_path,
                           const std::string& log_path, int reps) {
  RecoverResult out;
  std::vector<double> read, decode, scan, from_base, replay;
  for (int rep = 0; rep < reps; ++rep) {
    std::string err;
    std::vector<uint8_t> base_bytes, log_bytes;
    fg::snap::BaseImage image;
    fg::snap::LogScan log;
    core::StructuralCore core;
    Clock::time_point t0 = Clock::now();
    bool ok = fg::snap::read_file(base_path, &base_bytes, &err);
    Clock::time_point t1 = Clock::now();
    ok = ok && fg::snap::decode_base(base_bytes, &image, &err);
    Clock::time_point t2 = Clock::now();
    bool have_log = ok && fg::snap::read_file(log_path, &log_bytes, &err);
    ok = ok && (!have_log || fg::snap::scan_log(log_bytes, &log, &err));
    Clock::time_point t3 = Clock::now();
    ok = ok && core::StructuralCore::from_base_image(image, &core, &err);
    Clock::time_point t4 = Clock::now();
    uint64_t cursor = image.cursor;
    for (const fg::snap::WaveDelta& d : log.deltas) {
      if (!ok || d.wave <= image.wave) continue;
      ok = core.apply_wave_delta(d, &err);
      cursor = d.cursor;
    }
    Clock::time_point t5 = Clock::now();
    if (!ok || log.truncated || cursor > in.ops.size()) return out;
    read.push_back(ms_between(t0, t1));
    decode.push_back(ms_between(t1, t2));
    scan.push_back(ms_between(t2, t3));
    from_base.push_back(ms_between(t3, t4));
    replay.push_back(ms_between(t4, t5));
    if (rep > 0) continue;
    // Past the last wave's cursor the stream holds only inserts (a delete
    // would have formed one more wave).
    for (size_t i = cursor; i < in.ops.size(); ++i) {
      if (in.ops[i].kind != fg::ChurnOp::Kind::kInsert) return out;
      core.insert_node(in.ops[i].neighbors);
    }
    out.digest = digest(core);
  }
  out.ok = true;
  out.read_ms = percentile(read, 50.0);
  out.decode_ms = percentile(decode, 50.0);
  out.scan_ms = percentile(scan, 50.0);
  out.from_base_ms = percentile(from_base, 50.0);
  out.replay_ms = percentile(replay, 50.0);
  return out;
}

}  // namespace perfbench
