#include "fg/healer_service.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

#include "cert/certificate.h"
#include "fg/stabilizer.h"
#include "harness/certificate.h"
#include "util/check.h"

namespace fg {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

HealerService::HealerService(const Graph& g0, HealerConfig config)
    : fg_(g0), config_(config) {
  init();
}

HealerService::HealerService(core::StructuralCore&& restored, uint64_t waves_done,
                             uint64_t ops_done, HealerConfig config)
    : fg_(std::move(restored)), config_(config) {
  // Wave indexing and the resume cursor continue from the restore point, so
  // every sampled guardrail (certify_every, audit_every) and every future
  // delta's cursor line up with the uninterrupted run.
  stats_.waves = static_cast<int64_t>(waves_done);
  stats_.ops = static_cast<int64_t>(ops_done);
  init();
}

void HealerService::init() {
  FG_CHECK_MSG(config_.wave_size >= 1, "wave_size must be at least 1");
  FG_CHECK_MSG(config_.certify_every >= 0, "certify_every must be non-negative");
  FG_CHECK_MSG(config_.audit_every >= 0, "audit_every must be non-negative");
  FG_CHECK_MSG(config_.snapshot_every >= 0, "snapshot_every must be non-negative");
  FG_CHECK_MSG(config_.snapshot_every == 0 || !config_.snapshot_path.empty(),
               "snapshot_every needs a snapshot_path");
  fg_.set_shard_workers(config_.plan_workers);
  fg_.set_commit_workers(config_.commit_workers);
  fg_.set_break_workers(config_.break_workers);
  if (config_.snapshot_every > 0) {
    snapshot_ = std::make_unique<SnapshotWriter>(config_.snapshot_path + ".base",
                                                 config_.snapshot_path + ".log",
                                                 config_.snapshot_every);
    std::string err;
    bool wrote = snapshot_->begin(fg_.core(), static_cast<uint64_t>(stats_.waves),
                                  static_cast<uint64_t>(stats_.ops), &err);
    FG_CHECK_MSG(wrote, "snapshot: initial base write failed");
    fg_.core().set_delta_recorder(snapshot_.get());
  }
}

HealerService::~HealerService() {
  if (snapshot_) fg_.core().set_delta_recorder(nullptr);
}

void HealerService::push(const ChurnOp& op) {
  ++stats_.ops;
  if (op.kind == ChurnOp::Kind::kInsert) {
    std::string error = insert_error(op.neighbors);
    if (!error.empty()) {
      ++stats_.rejected_inserts;
      if (alert_) alert_(stats_.waves, "insert: " + error);
      return;
    }
    fg_.insert(op.neighbors);
    ++stats_.inserts;
    return;
  }
  // is_alive is false for ids the engine never created, so the id indexes
  // queued_ once it passes.
  if (!fg_.is_alive(op.victim)) {
    ++stats_.dropped_deletes;
    return;
  }
  const size_t v = static_cast<size_t>(op.victim);
  if (v >= queued_.size()) queued_.resize(v + 1, 0);
  if (queued_[v] != 0) {
    ++stats_.dropped_deletes;
    return;
  }
  forming_.push_back(op.victim);
  queued_[v] = 1;
  if (static_cast<int>(forming_.size()) >= config_.wave_size) heal_wave();
}

void HealerService::flush() {
  if (!forming_.empty()) heal_wave();
}

std::string HealerService::insert_error(const std::vector<NodeId>& neighbors) const {
  // is_alive is false for ids the engine never created, so one test covers
  // dead and out-of-range neighbours alike. The repeat scan is quadratic,
  // like the sorted adjacency inserts insert_node makes for the same list.
  for (auto y = neighbors.begin(); y != neighbors.end(); ++y) {
    if (!fg_.is_alive(*y)) return "neighbour " + std::to_string(*y) + " is dead or out of range";
    if (std::find(neighbors.begin(), y, *y) != y)
      return "neighbour " + std::to_string(*y) + " repeated";
  }
  return {};
}

void HealerService::heal_wave() {
  std::vector<NodeId> victims = std::move(forming_);
  forming_.clear();
  for (NodeId v : victims) queued_[static_cast<size_t>(v)] = 0;
  const int64_t wave = stats_.waves;

  // The wave's resume cursor: every op pushed so far is either applied
  // (inserts), rejected, dropped, committed in an earlier wave, or in THIS
  // wave — so once this wave commits, the state reflects exactly ops
  // [0, cursor).
  if (snapshot_) snapshot_->set_cursor(static_cast<uint64_t>(stats_.ops));

  Clock::time_point t0 = Clock::now();
  // Drop the victims that died since they were queued, counting them:
  // engine() may be mutated between calls into the service (a delete
  // through it kills a queued victim), and planning a dead victim would
  // abort in the core. A wave left empty still counts as a wave.
  const size_t queued = victims.size();
  std::erase_if(victims, [&](NodeId v) { return !fg_.is_alive(v); });
  stats_.dropped_deletes += static_cast<int64_t>(queued - victims.size());
  if (victims.empty()) {
    ++stats_.waves;
    stats_.wave_latency.record_ms(ms_since(t0));
    return;
  }

  // Install the collector around the commit (or the recovery below), then
  // tee and check the one certificate it emitted. Sampled certificates are
  // checked here, before the audit runs, so the teed stream's ordinals
  // ascend.
  auto certify = [&](auto&& emit) {
    harness::CertificateCollector collector;
    fg_.set_certificate_sink(&collector);
    emit();
    fg_.set_certificate_sink(nullptr);
    FG_CHECK(collector.certs.size() == 1);
    const cert::WaveCertificate& c = collector.certs.front();
    if (cert_stream_ != nullptr) c.save(*cert_stream_);
    cert::CheckResult res = cert::check(c);
    if (!res.ok) {
      ++stats_.cert_rejections;
      if (alert_) alert_(wave, res.diagnostic);
    }
  };

  if (config_.certify_every > 0 && wave % config_.certify_every == 0) {
    certify([&] { fg_.delete_batch(victims); });
    ++stats_.certified_waves;
  } else {
    fg_.delete_batch(victims);
  }

  // Self-stabilization guardrail (config_.audit_every): a sampled
  // post-commit audit against I1-I5. On any violation, alert with the
  // report summary and stabilize immediately; the recovery wave's
  // certificate is teed and checked like a sampled deletion wave's.
  if (config_.audit_every > 0 && wave % config_.audit_every == 0) {
    ++stats_.audits;
    Stabilizer stabilizer(fg_);
    AuditReport report = stabilizer.audit();
    if (!report.clean()) {
      stats_.audit_violations += report.total;
      if (alert_) alert_(wave, "audit: " + report.summary());
      certify([&] {
        RecoveryStats recovery = stabilizer.stabilize();
        FG_CHECK(recovery.recovered);
      });
      ++stats_.recoveries;
    }
  }
  stats_.deletes += static_cast<int64_t>(victims.size());
  ++stats_.waves;
  stats_.wave_latency.record_ms(ms_since(t0));

  // Snapshot upkeep: the wave's delta was appended when the commit fired
  // on_wave_committed; rotate to a fresh base when due, or rebase after
  // anything that diverged the mutation epoch from the op stream (the
  // stabilize() recovery above, a mutation through engine() between
  // pushes). Disk failures degrade to an alert, never to a crash — the
  // service keeps healing, the snapshot goes stale.
  if (snapshot_) {
    snapshot_->maintain(fg_.core());
    std::string err = snapshot_->take_error();
    if (!err.empty() && alert_) alert_(wave, "snapshot: " + err);
  }
}

}  // namespace fg
