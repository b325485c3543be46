#include "fg/snapshot_writer.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/prefetch.h"
#include "util/radix_sort.h"

namespace fg {

namespace {

snap::VRow to_vrow(const VirtualForest::VNode& n) {
  snap::VRow r;
  r.owner = static_cast<int32_t>(n.owner);
  r.other = static_cast<int32_t>(n.other);
  r.parent = static_cast<int32_t>(n.parent);
  r.left = static_cast<int32_t>(n.left);
  r.right = static_cast<int32_t>(n.right);
  r.rep = static_cast<int32_t>(n.rep);
  r.height = static_cast<int32_t>(n.height);
  r.leaf_count = n.leaf_count;
  r.is_leaf = n.is_leaf;
  r.alive = n.alive;
  return r;
}

}  // namespace

// ----------------------------------------------------------- SnapshotRecorder

void SnapshotRecorder::begin(const core::StructuralCore& core, uint64_t waves,
                             uint64_t cursor) {
  waves_ = waves;
  cursor_ = cursor;
  expected_epoch_ = core.mutation_epoch();
  needs_rebase_ = false;
  discard_pending();
}

void SnapshotRecorder::rebased(const core::StructuralCore& core) {
  expected_epoch_ = core.mutation_epoch();
  needs_rebase_ = false;
  discard_pending();
}

void SnapshotRecorder::set_waves(uint64_t waves) {
  if (waves == waves_) return;
  waves_ = waves;
  needs_rebase_ = true;
}

void SnapshotRecorder::discard_pending() {
  delta_.inserts.clear();
  touched_mult_.clear();
}

void SnapshotRecorder::on_insert(NodeId id, std::span<const NodeId> neighbors) {
  ++expected_epoch_;
  snap::WaveDelta::Insert& ins = delta_.inserts.emplace_back();
  ins.id = static_cast<uint32_t>(id);
  ins.neighbors.reserve(neighbors.size());
  for (NodeId v : neighbors) ins.neighbors.push_back(static_cast<uint32_t>(v));
}

void SnapshotRecorder::on_image_touch(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  touched_mult_.push_back(slot_key(u, v));
}

void SnapshotRecorder::on_wave_committed(const core::StructuralCore& core,
                                         const core::RepairPlan& plan) {
  // The commit's own epoch bump; recovery waves (rebuild_for_recovery bumps
  // once more before the plan) and out-of-band mutations land past this and
  // force a rebase instead of a delta the core no longer matches. A rebased
  // deletion wave still counts: the base written next reflects it.
  ++expected_epoch_;
  if (!plan.recovery) ++waves_;
  if (plan.recovery || core.mutation_epoch() != expected_epoch_) {
    needs_rebase_ = true;
    expected_epoch_ = core.mutation_epoch();
    discard_pending();
    return;
  }

  snap::WaveDelta& d = delta_;
  d.wave = waves_;
  d.epoch_after = core.mutation_epoch();
  d.cursor = cursor_;
  d.victims.clear();
  for (NodeId v : plan.victims) d.victims.push_back(static_cast<uint32_t>(v));

  const VirtualForest& forest = core.forest();
  d.arena_size_after = static_cast<uint64_t>(forest.arena_size());
  d.forest_live_after = forest.live_count();

  // Touched rows: every break-script handle plus the wave's whole arena
  // reservation (fresh anchor leaves and helpers). Merge-side parent-link
  // rewrites only ever hit piece roots (script events) and new helpers
  // (reservation), so this set is complete. The script handles are rows
  // that existed when the wave was planned, so they all lie below the
  // reservation, which starts at that arena size: only they need sorting.
  //
  // Every lookup below is an independent cache miss (a scattered row; a
  // slot-table or adjacency head, then its entries; an excess cell), so
  // each loop prefetches kAhead keys ahead, heads 2 * kAhead ahead, and the
  // misses overlap instead of queueing.
  constexpr size_t kAhead = 16;
  handles_.clear();
  for (const core::RegionPlan& region : plan.regions)
    for (const core::RegionPlan::Event& e : region.events)
      handles_.push_back(static_cast<uint32_t>(e.h));
  util::radix_sort(&handles_, &scratch32_, /*drop_repeats=*/true);
  FG_CHECK(handles_.empty() || handles_.back() < static_cast<uint32_t>(plan.arena_start));

  const std::vector<VirtualForest::VNode>& rows = forest.dump();
  d.rows.clear();
  slot_keys_.clear();
  auto add_row = [&](uint32_t h) {
    const VirtualForest::VNode& row = rows[h];
    d.rows.push_back({h, to_vrow(row)});
    // Tombstones keep (owner, other), so torn-down rows still name the slot
    // key whose entry the break cleared.
    if (row.owner != kInvalidNode) slot_keys_.push_back(slot_key(row.owner, row.other));
  };
  for (size_t i = 0; i < handles_.size(); ++i) {
    if (i + kAhead < handles_.size()) util::prefetch(&rows[handles_[i + kAhead]]);
    add_row(handles_[i]);
  }
  for (int i = 0; i < plan.arena_total; ++i) add_row(static_cast<uint32_t>(plan.arena_start + i));

  // Final slot values. The keys ascend, so each owner's keys form one run,
  // looked up by one forward walk over its sorted table.
  util::radix_sort(&slot_keys_, &scratch64_, /*drop_repeats=*/true);
  d.slots.clear();
  const core::SlotTable& slots = core.slot_table();
  const size_t nslots = slot_keys_.size();
  for (size_t i = 0; i < nslots;) {
    const NodeId owner = slot_owner(slot_keys_[i]);
    const std::span<const core::SlotTable::Entry> table = slots.entries(owner);
    auto at = table.begin();
    for (; i < nslots && slot_owner(slot_keys_[i]) == owner; ++i) {
      if (i + 2 * kAhead < nslots) slots.prefetch(slot_owner(slot_keys_[i + 2 * kAhead]));
      if (i + kAhead < nslots)
        util::prefetch(slots.entries(slot_owner(slot_keys_[i + kAhead])).data());
      const NodeId other = static_cast<NodeId>(static_cast<uint32_t>(slot_keys_[i]));
      at = std::lower_bound(at, table.end(), other,
                            [](const core::SlotTable::Entry& e, NodeId o) { return e.other < o; });
      const bool present = at != table.end() && at->other == other;
      snap::WaveDelta::SlotOp& op = d.slots.emplace_back();
      op.owner = static_cast<uint32_t>(owner);
      op.other = static_cast<uint32_t>(other);
      op.present = present;
      op.leaf = present ? static_cast<int32_t>(at->leaf) : -1;
      op.helper = present ? static_cast<int32_t>(at->helper) : -1;
    }
  }

  // Final multiplicities, core.image_multiplicity's sum of G's edge (0 or
  // 1) and the excess count, with each u's run walked forward over its
  // sorted image adjacency.
  util::radix_sort(&touched_mult_, &scratch64_, /*drop_repeats=*/true);
  d.mult.clear();
  const Graph& image = core.image();
  const util::FlatCountMap& excess = core.image_excess();
  const size_t nmult = touched_mult_.size();
  for (size_t i = 0; i < nmult;) {
    const NodeId u = slot_owner(touched_mult_[i]);
    const NeighborView adjacent = image.neighbors(u);
    const NodeId* at = adjacent.begin();
    for (; i < nmult && slot_owner(touched_mult_[i]) == u; ++i) {
      if (i + 2 * kAhead < nmult) {
        image.prefetch(slot_owner(touched_mult_[i + 2 * kAhead]));
        excess.prefetch(touched_mult_[i + 2 * kAhead]);
      }
      if (i + kAhead < nmult)
        util::prefetch(image.neighbors(slot_owner(touched_mult_[i + kAhead])).begin());
      const uint64_t key = touched_mult_[i];
      const NodeId v = static_cast<NodeId>(static_cast<uint32_t>(key));
      at = std::lower_bound(at, adjacent.end(), v);
      snap::WaveDelta::MultOp& op = d.mult.emplace_back();
      op.u = static_cast<uint32_t>(u);
      op.v = static_cast<uint32_t>(v);
      op.count = (at != adjacent.end() && *at == v ? 1 : 0) + excess.count(key);
    }
  }

  if (sink_) sink_(d);
  discard_pending();
}

// ------------------------------------------------------------- SnapshotWriter

SnapshotWriter::SnapshotWriter(std::string base_path, std::string log_path,
                               int base_every)
    : base_path_(std::move(base_path)),
      log_path_(std::move(log_path)),
      base_every_(base_every) {
  recorder_.set_sink([this](const snap::WaveDelta& delta) {
    frame_.clear();
    snap::append_delta(&frame_, delta);
    std::string err;
    if (!snap::append_file(log_path_, frame_, &err)) {
      if (error_.empty()) error_ = "delta append failed: " + err;
      return;
    }
    ++waves_since_base_;
  });
}

bool SnapshotWriter::begin(const core::StructuralCore& core, uint64_t waves,
                           uint64_t cursor, std::string* error) {
  recorder_.begin(core, waves, cursor);
  if (!write_base(core)) {
    if (error != nullptr) *error = error_;
    return false;
  }
  return true;
}

bool SnapshotWriter::maintain(const core::StructuralCore& core) {
  bool due = base_every_ > 0 && waves_since_base_ >= base_every_;
  if (recorder_.needs_rebase() || due) {
    if (!write_base(core)) return false;
    recorder_.rebased(core);
  }
  return error_.empty();
}

std::string SnapshotWriter::take_error() {
  std::string err = std::move(error_);
  error_.clear();
  return err;
}

bool SnapshotWriter::write_base(const core::StructuralCore& core) {
  // Streamed straight from the core: a base write holds no BaseImage and
  // no whole-file buffer, so it leaves no tens-of-megabytes transient in
  // the heap every rotation.
  const uint64_t wave = recorder_.waves();
  const uint64_t cursor = recorder_.cursor();
  std::string err;
  if (!snap::write_base_file(
          base_path_,
          [&](snap::BaseEncoder& enc) { core.stream_base_image(&enc, wave, cursor); }, &err)) {
    if (error_.empty()) error_ = "base write failed: " + err;
    return false;
  }
  // Log reset strictly after the base lands: a crash between the two leaves
  // stale records whose wave ids the new base already covers, and
  // restore_snapshot skips those; resetting first could lose waves.
  if (!snap::write_file_atomic(log_path_, snap::encode_log_header(), &err)) {
    if (error_.empty()) error_ = "log reset failed: " + err;
    return false;
  }
  waves_since_base_ = 0;
  return true;
}

// ----------------------------------------------------------- restore_snapshot

SnapshotRestore restore_snapshot(const std::string& base_path,
                                 const std::string& log_path,
                                 core::StructuralCore* out) {
  SnapshotRestore res;

  std::vector<uint8_t> bytes;
  if (!snap::read_file(base_path, &bytes, &res.error)) return res;
  snap::BaseImage image;
  if (!snap::decode_base(bytes, &image, &res.error)) return res;
  if (!core::StructuralCore::from_base_image(image, out, &res.error)) return res;
  res.waves = image.wave;
  res.cursor = image.cursor;

  // A missing log just means no deltas were appended after the base.
  std::vector<uint8_t> log_bytes;
  std::string log_err;
  if (snap::read_file(log_path, &log_bytes, &log_err)) {
    snap::LogScan scan;
    if (!snap::scan_log(log_bytes, &scan, &res.error)) return res;
    res.truncated = scan.truncated;
    if (scan.truncated) res.error = scan.detail;
    for (const snap::WaveDelta& delta : scan.deltas) {
      // A record the base already reflects is a remnant of the crash window
      // between a base write and its log reset: its wave is at or below the
      // base's, or, when the rebase renumbered the waves to the service's
      // count, its epoch is (epochs never repeat).
      if (delta.wave <= res.waves || delta.epoch_after <= image.epoch) continue;
      if (delta.wave != res.waves + 1) {
        res.error = "delta log gap: wave " + std::to_string(delta.wave) +
                    " after wave " + std::to_string(res.waves);
        res.ok = false;
        return res;
      }
      std::string apply_err;
      if (!out->apply_wave_delta(delta, &apply_err)) {
        res.error = "wave " + std::to_string(delta.wave) + ": " + apply_err;
        res.ok = false;
        return res;
      }
      res.waves = delta.wave;
      res.cursor = delta.cursor;
    }
  }

  res.ok = true;
  return res;
}

}  // namespace fg
