// fgsnap — standalone inspector/verifier for Forgiving Graph snapshots.
//
// Usage:
//   fgsnap info BASE [LOG]      print a snapshot summary
//   fgsnap verify BASE [LOG]    verify base image + delta log consistency
//   fgsnap --selftest           run the built-in fixture + corruption table
//
// Exit status 0 iff every input verifies clean; 1 when a file is corrupt
// (bad magic, CRC mismatch, torn delta tail, wave-sequence gap); 2 when a
// file cannot be read at all (or on a usage error). A torn tail is *crash
// recovery* to the engine's restore path but still a finding here: the
// verifier's job is to report that bytes were dropped, and its exit code
// says so.
//
// This binary links src/snap ONLY — no fg:: engine code, not even the graph
// substrate — so it cannot share a defect with the engine that wrote the
// snapshot (the independence argument of docs/SNAPSHOTS.md, mirroring
// fgcheck; the CMake link line is gated by scripts/check_docs.py).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "snap/snapshot.h"

namespace {

using fg::snap::BaseImage;
using fg::snap::LogScan;
using fg::snap::WaveDelta;

/// Load + decode a base file. Exit-class via *status (2 unreadable, 1
/// corrupt); true only when the image decoded clean.
bool load_base(const std::string& path, BaseImage* image, int* status) {
  std::vector<uint8_t> bytes;
  std::string error;
  if (!fg::snap::read_file(path, &bytes, &error)) {
    std::cerr << path << ": " << error << '\n';
    *status = std::max(*status, 2);
    return false;
  }
  if (!fg::snap::decode_base(bytes, image, &error)) {
    std::cerr << path << ": " << error << '\n';
    *status = std::max(*status, 1);
    return false;
  }
  return true;
}

bool load_log(const std::string& path, LogScan* scan, int* status) {
  std::vector<uint8_t> bytes;
  std::string error;
  if (!fg::snap::read_file(path, &bytes, &error)) {
    std::cerr << path << ": " << error << '\n';
    *status = std::max(*status, 2);
    return false;
  }
  if (!fg::snap::scan_log(bytes, scan, &error)) {
    std::cerr << path << ": " << error << '\n';
    *status = std::max(*status, 1);
    return false;
  }
  return true;
}

/// The log's wave ids against the base: records the base already reflects
/// (wave or epoch at or below the base's) are pre-rotation remnants
/// (legal); past it they must be consecutive. Returns the wave the snapshot
/// restores to, or reports the gap.
bool check_sequence(const BaseImage& base, const LogScan& scan,
                    const std::string& log_path, uint64_t* restore_wave) {
  uint64_t wave = base.wave;
  for (const WaveDelta& d : scan.deltas) {
    if (d.wave <= base.wave || d.epoch_after <= base.epoch) continue;
    if (d.wave != wave + 1) {
      std::cerr << log_path << ": wave sequence gap: wave " << d.wave
                << " after wave " << wave << '\n';
      return false;
    }
    wave = d.wave;
  }
  *restore_wave = wave;
  return true;
}

int info(const std::string& base_path, const std::string& log_path) {
  int status = 0;
  BaseImage base;
  if (!load_base(base_path, &base, &status)) return status;
  std::cout << base_path << ": base wave " << base.wave << " epoch " << base.epoch
            << " cursor " << base.cursor << '\n'
            << "  capacity " << base.capacity << " (" << base.dead.size()
            << " dead), " << base.gprime_edges.size() << " G' edge(s)\n"
            << "  forest: " << base.rows.size() << " arena row(s), "
            << base.forest_live << " alive\n"
            << "  " << base.slots.size() << " slot(s), " << base.mult.size()
            << " image-edge multiplicit(ies)\n";
  if (log_path.empty()) return status;

  LogScan scan;
  if (!load_log(log_path, &scan, &status)) return status;
  uint64_t restore_wave = base.wave;
  if (!check_sequence(base, scan, log_path, &restore_wave))
    status = std::max(status, 1);
  std::cout << log_path << ": " << scan.deltas.size() << " delta record(s), "
            << scan.valid_bytes << " consistent byte(s)";
  if (!scan.deltas.empty())
    std::cout << ", waves " << scan.deltas.front().wave << ".."
              << scan.deltas.back().wave;
  std::cout << '\n';
  if (scan.truncated) {
    std::cout << log_path << ": torn tail dropped (" << scan.detail << ")\n";
    status = std::max(status, 1);
  }
  std::cout << "restores to wave " << restore_wave << '\n';
  return status;
}

int verify(const std::string& base_path, const std::string& log_path) {
  int status = 0;
  BaseImage base;
  if (!load_base(base_path, &base, &status)) return status;
  uint64_t restore_wave = base.wave;
  size_t records = 0;
  if (!log_path.empty()) {
    LogScan scan;
    if (!load_log(log_path, &scan, &status)) return status;
    if (!check_sequence(base, scan, log_path, &restore_wave))
      status = std::max(status, 1);
    if (scan.truncated) {
      std::cerr << log_path << ": torn tail dropped (" << scan.detail
                << "); recoverable to wave " << restore_wave << '\n';
      status = std::max(status, 1);
    }
    records = scan.deltas.size();
  }
  if (status == 0)
    std::cout << base_path << ": OK (base wave " << base.wave << " + " << records
              << " delta(s) -> wave " << restore_wave << ")\n";
  return status;
}

// --- Selftest: an embedded fixture plus a corruption table. -----------------

/// A small, format-valid snapshot (the selftest never replays it, so it
/// needs no structural meaning — only canonical encodability).
BaseImage fixture_base() {
  BaseImage b;
  b.wave = 3;
  b.epoch = 17;
  b.cursor = 42;
  b.capacity = 5;
  b.dead = {3};
  b.gprime_edges = {{0, 1}, {0, 3}, {1, 2}, {2, 4}};
  b.forest_live = 2;
  b.rows.resize(3);
  b.rows[0] = {0, 3, -1, -1, -1, 0, 0, 1, true, true};
  b.rows[1] = {2, 1, -1, -1, -1, 1, 0, 1, true, false};
  b.rows[2] = {4, 2, -1, -1, -1, 2, 0, 1, true, true};
  b.slots = {{0, 3, 0, -1}, {4, 2, 2, -1}};
  b.mult = {{0, 1, 1}, {1, 2, 2}};
  return b;
}

WaveDelta fixture_delta(uint64_t wave) {
  WaveDelta d;
  d.wave = wave;
  d.epoch_after = 17 + wave;
  d.cursor = 42 + wave * 10;
  d.inserts.push_back({5, {0, 1}});
  d.victims = {static_cast<uint32_t>(wave % 5)};
  d.arena_size_after = 3 + wave;
  d.forest_live_after = 2;
  d.rows.push_back({2, {4, 2, -1, -1, -1, 2, 0, 1, true, true}});
  d.slots.push_back({4, 2, true, 2, -1});
  d.mult.push_back({1, 2, 1});
  return d;
}

int fail(int* failures, const std::string& msg) {
  std::cerr << "selftest: " << msg << '\n';
  return ++*failures;
}

int selftest() {
  int failures = 0;
  const BaseImage base = fixture_base();
  const std::vector<uint8_t> base_bytes = fg::snap::encode_base(base);

  // Base round-trip: decode(encode(x)) reproduces every field.
  {
    BaseImage back;
    std::string error;
    if (!fg::snap::decode_base(base_bytes, &back, &error)) {
      fail(&failures, "good base rejected: " + error);
    } else if (back.wave != base.wave || back.epoch != base.epoch ||
               back.cursor != base.cursor || back.capacity != base.capacity ||
               back.dead != base.dead || back.gprime_edges != base.gprime_edges ||
               back.forest_live != base.forest_live || back.rows != base.rows ||
               back.slots != base.slots || back.mult != base.mult) {
      fail(&failures, "base round-trip mismatch");
    }
  }

  // Log with three records; remember each record's end offset so the
  // corruption table can aim at exact frames.
  std::vector<uint8_t> log_bytes = fg::snap::encode_log_header();
  std::vector<size_t> record_end;
  for (uint64_t w = 4; w <= 6; ++w) {
    fg::snap::append_delta(&log_bytes, fixture_delta(w));
    record_end.push_back(log_bytes.size());
  }

  {
    LogScan scan;
    std::string error;
    if (!fg::snap::scan_log(log_bytes, &scan, &error)) {
      fail(&failures, "good log rejected: " + error);
    } else if (scan.truncated || scan.deltas.size() != 3 ||
               scan.valid_bytes != log_bytes.size()) {
      fail(&failures, "good log mis-scanned");
    } else {
      const WaveDelta want = fixture_delta(5);
      const WaveDelta& got = scan.deltas[1];
      if (got.wave != want.wave || got.epoch_after != want.epoch_after ||
          got.cursor != want.cursor || got.inserts != want.inserts ||
          got.victims != want.victims || got.rows != want.rows ||
          got.slots != want.slots || got.mult != want.mult)
        fail(&failures, "delta round-trip mismatch");
    }
  }

  // Base corruption table: every class of damage must be detected, with
  // the right diagnostic family.
  struct BaseCorruption {
    const char* label;
    size_t flip;       ///< Byte offset to XOR (npos: truncate instead).
    size_t trunc_to;   ///< New size when flip == npos.
    const char* diag;  ///< Substring the error must contain.
  };
  const size_t npos = static_cast<size_t>(-1);
  const size_t header = fg::snap::kMagicLen + 1 + 24 + 4;  // magic 'B' w/e/c nsec
  const BaseCorruption base_table[] = {
      {"bad magic", 0, 0, "magic"},
      {"wrong record kind", fg::snap::kMagicLen, 0, "not a base record"},
      {"section tag damage", header, 0, "expected section"},
      {"payload bit flip", header + 12 + 2, 0, "CRC mismatch"},
      {"truncated section", npos, base_bytes.size() - 5, "truncated"},
      {"truncated header", npos, fg::snap::kMagicLen + 3, "truncated header"},
  };
  for (const BaseCorruption& c : base_table) {
    std::vector<uint8_t> bad = base_bytes;
    if (c.flip == npos)
      bad.resize(c.trunc_to);
    else
      bad[c.flip] ^= 0x40;
    BaseImage out;
    std::string error;
    if (fg::snap::decode_base(bad, &out, &error)) {
      fail(&failures, std::string("base corruption \"") + c.label + "\" not detected");
    } else if (error.find(c.diag) == std::string::npos) {
      fail(&failures, std::string("base corruption \"") + c.label +
                          "\" misdiagnosed as: " + error);
    }
  }

  // Log corruption table: damage at record k must recover records [0, k)
  // exactly — the torn-tail contract restore_snapshot relies on.
  struct LogCorruption {
    const char* label;
    size_t flip;      ///< Byte offset to XOR (npos: truncate to trunc_to).
    size_t trunc_to;
    size_t survivors; ///< Records the scan must still deliver.
  };
  const LogCorruption log_table[] = {
      {"flip in record 0", fg::snap::kMagicLen + 20, 0, 0},
      {"flip in record 2", record_end[1] + 20, 0, 2},
      {"flip in last CRC", record_end[2] - 1, 0, 2},
      {"torn final append", npos, record_end[2] - 3, 2},
      {"torn first record", npos, fg::snap::kMagicLen + 6, 0},
      {"garbage after log", npos, 0, 3},  // trunc_to 0: append a byte instead
  };
  for (const LogCorruption& c : log_table) {
    std::vector<uint8_t> bad = log_bytes;
    if (c.flip != npos)
      bad[c.flip] ^= 0x40;
    else if (c.trunc_to != 0)
      bad.resize(c.trunc_to);
    else
      bad.push_back(0x5A);
    LogScan scan;
    std::string error;
    if (!fg::snap::scan_log(bad, &scan, &error)) {
      fail(&failures,
           std::string("log corruption \"") + c.label + "\" rejected the header");
    } else if (!scan.truncated) {
      fail(&failures, std::string("log corruption \"") + c.label + "\" not detected");
    } else if (scan.deltas.size() != c.survivors) {
      fail(&failures, std::string("log corruption \"") + c.label + "\": " +
                          std::to_string(scan.deltas.size()) + " survivor(s), want " +
                          std::to_string(c.survivors));
    }
  }

  // A damaged log *header* is front corruption, not a torn tail.
  {
    std::vector<uint8_t> bad = log_bytes;
    bad[2] ^= 0x40;
    LogScan scan;
    std::string error;
    if (fg::snap::scan_log(bad, &scan, &error) ||
        error.find("magic") == std::string::npos)
      fail(&failures, "log header corruption not rejected");
  }

  if (failures == 0) {
    std::cout << "fgsnap selftest: base + 3-record log round-trip, 6 base + 6 log"
                 " corruptions OK\n";
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--selftest") return selftest();
  if (args.size() >= 2 && args.size() <= 3 &&
      (args[0] == "info" || args[0] == "verify")) {
    const std::string log_path = args.size() == 3 ? args[2] : std::string();
    return args[0] == "info" ? info(args[1], log_path) : verify(args[1], log_path);
  }
  std::cerr << "usage: fgsnap info|verify BASE [LOG]\n"
               "       fgsnap --selftest\n";
  return 2;
}
