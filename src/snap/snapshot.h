// The durable snapshot format (version "fgsnap 1"; docs/SNAPSHOTS.md).
//
// The base image is the engine's one state format: checkpoints, restores
// and the suites' byte comparisons all use it. For durability, a full
// *base image* is written rarely (write-then-rename, so a crash never
// leaves a half-written base), plus an append-only *delta log* with one
// CRC-framed record per committed repair wave. Restore decodes the base,
// then replays only the delta tail — O(changes), not O(n); a torn or
// corrupt tail is detected by its frame CRC and dropped, recovering to the
// last consistent wave (scan_log).
//
// Layered like src/cert: this library defines the *format* — encoding,
// decoding, CRC framing, torn-tail recovery — and depends on nothing but
// the standard library. It never links engine code, which is what lets the
// standalone tools/fgsnap verifier audit snapshot files without trusting
// the engine that wrote them (the same independence argument as fgcheck;
// scripts/check_docs.py gates the link line). The engine-side producer and
// consumer (fg::SnapshotWriter, core::StructuralCore::apply_wave_delta)
// live in src/fg and translate structural state to and from these records.
//
// File grammar (all integers little-endian; docs/SNAPSHOTS.md for the full
// field tables):
//
//   base file:   magic, one 'B' record:
//                  'B' wave:u64 epoch:u64 cursor:u64 section_count:u32
//                  then per section: tag:4 bytes, payload_len:u64,
//                  payload, crc32(payload):u32
//   delta log:   magic, then zero or more 'D' records:
//                  'D' wave:u64 payload_len:u64 payload,
//                  crc32(wave, payload_len, payload):u32
//
// Base sections (fixed order): GPRM (G' capacity + edges), LIVE (dead
// processor ids), FRST (virtual-forest arena rows), SLOT (slot-table
// entries), MULT (image-edge multiplicities). Every list is sorted
// canonically, so the bytes are a pure function of the structure — snapshot
// bytes join contract C4 (byte-identical at any break x commit worker
// count; docs/CONCURRENCY.md).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace fg::snap {

/// Format magic, the first bytes of both the base file and the delta log.
/// The version is part of the magic: a reader refuses anything else.
inline constexpr char kMagic[] = "fgsnap 1\n";
inline constexpr size_t kMagicLen = sizeof(kMagic) - 1;  // no trailing NUL

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes`, seeded by `seed`
/// for incremental use (pass the previous call's return value).
uint32_t crc32(std::span<const uint8_t> bytes, uint32_t seed = 0);

/// One virtual-forest arena row, as serialized (mirrors
/// fg::VirtualForest::VNode field for field; -1 handles mean "none").
struct VRow {
  int32_t owner = -1;
  int32_t other = -1;
  int32_t parent = -1;
  int32_t left = -1;
  int32_t right = -1;
  int32_t rep = -1;
  int32_t height = 0;
  int64_t leaf_count = 1;
  bool is_leaf = true;
  bool alive = true;

  bool operator==(const VRow&) const = default;
};

/// A full structural checkpoint: everything StructuralCore needs to restore
/// without recomputing derived state (the SLOT and MULT sections carry the
/// slot tables and the healed image's multiplicities verbatim, so restore
/// installs them instead of rebuilding them from the forest).
struct BaseImage {
  uint64_t wave = 0;    ///< Waves committed when this image was taken.
  uint64_t epoch = 0;   ///< The core's mutation epoch at that point.
  uint64_t cursor = 0;  ///< Stream ops fully reflected (service resume point).

  uint32_t capacity = 0;               ///< G' node capacity (alive + dead).
  std::vector<uint32_t> dead;          ///< Dead processor ids, ascending.
  /// G' edges (u < v), sorted by (u, v) — the canonical adjacency order.
  std::vector<std::pair<uint32_t, uint32_t>> gprime_edges;

  int64_t forest_live = 0;  ///< Alive arena rows (VirtualForest::live_count).
  std::vector<VRow> rows;   ///< The whole arena, tombstones included.

  /// One slot-table entry; sorted by (owner, other).
  struct SlotEntry {
    uint32_t owner = 0;
    int32_t other = -1;
    int32_t leaf = -1;
    int32_t helper = -1;
    bool operator==(const SlotEntry&) const = default;
  };
  std::vector<SlotEntry> slots;

  /// One image-edge multiplicity (u < v, count > 0); sorted by (u, v). The
  /// healed graph G's edge set is exactly these pairs.
  struct MultEntry {
    uint32_t u = 0;
    uint32_t v = 0;
    int32_t count = 0;
    bool operator==(const MultEntry&) const = default;
  };
  std::vector<MultEntry> mult;
};

/// One committed wave's structural changes, final-value semantics: every
/// touched forest row / slot / multiplicity appears once with its
/// post-commit value (0 / absent meaning erased), so replay is idempotent
/// per record and independent of the engine's internal commit schedule.
struct WaveDelta {
  uint64_t wave = 0;         ///< Wave index this delta commits (1-based count).
  uint64_t epoch_after = 0;  ///< Core mutation epoch after the commit.
  uint64_t cursor = 0;       ///< Stream ops fully reflected after this wave.

  /// Insertions applied since the previous record, in stream order. Replay
  /// re-allocates the same ids (ids are consecutive by construction).
  struct Insert {
    uint32_t id = 0;
    std::vector<uint32_t> neighbors;
    bool operator==(const Insert&) const = default;
  };
  std::vector<Insert> inserts;

  /// Processors this wave deleted (alive before, tombstoned after).
  std::vector<uint32_t> victims;

  uint64_t arena_size_after = 0;  ///< Forest arena size after the commit.
  int64_t forest_live_after = 0;  ///< Forest live count after the commit.

  /// Final values of every forest row the wave touched (handles ascending;
  /// includes the wave's whole arena reservation).
  struct Row {
    uint32_t handle = 0;
    VRow row;
    bool operator==(const Row&) const = default;
  };
  std::vector<Row> rows;

  /// Final slot state for every touched (owner, other) key, ascending.
  /// present == false erases; victims' tables are wiped wholesale by the
  /// victims list and need no per-slot ops.
  struct SlotOp {
    uint32_t owner = 0;
    uint32_t other = 0;
    bool present = false;
    int32_t leaf = -1;
    int32_t helper = -1;
    bool operator==(const SlotOp&) const = default;
  };
  std::vector<SlotOp> slots;

  /// Final multiplicity for every touched image-edge key (u < v), sorted;
  /// count == 0 erases the entry (and the G edge with it).
  struct MultOp {
    uint32_t u = 0;
    uint32_t v = 0;
    int32_t count = 0;
    bool operator==(const MultOp&) const = default;
  };
  std::vector<MultOp> mult;
};

// --- Encoding (always succeeds; bytes are canonical). -----------------------

/// Encodes a base file in file order through a bounded buffer, so no
/// caller needs the whole image or the whole file in memory: header(),
/// then each section's begin_*() (its header fields and entry count) and
/// exactly that many entries, GPRM, LIVE, FRST, SLOT, MULT, then finish().
/// StructuralCore::stream_base_image feeds one straight from the engine;
/// encode_base feeds one from a BaseImage. Same content, same bytes.
class BaseEncoder {
 public:
  /// Append the encoding to `*out`.
  explicit BaseEncoder(std::vector<uint8_t>* out);
  /// Write the encoding to the open file `file` (write_base_file).
  explicit BaseEncoder(std::FILE* file);

  void header(uint64_t wave, uint64_t epoch, uint64_t cursor);
  void begin_gprime(uint32_t capacity, uint64_t edges);
  void edge(uint32_t u, uint32_t v);
  void begin_live(uint64_t dead);
  void dead(uint32_t v);
  void begin_forest(uint64_t rows, int64_t forest_live);
  void row(const VRow& r);
  void begin_slots(uint64_t slots);
  void slot(const BaseImage::SlotEntry& e);
  void begin_mult(uint64_t mult);
  void mult(const BaseImage::MultEntry& m);

  /// Flush the buffer. False when a file write failed, a section got a
  /// different number of entries than its begin_*() declared, or not all
  /// five sections were written.
  bool finish();

 private:
  uint8_t* take(size_t n);
  void begin_section(const char tag[4], uint64_t payload_bytes, uint64_t entries);
  void end_section();
  void entry();
  void flush();

  std::vector<uint8_t>* out_ = nullptr;
  std::FILE* file_ = nullptr;
  std::vector<uint8_t> buf_;
  size_t used_ = 0;
  size_t crc_from_ = 0;  ///< Buffer offset of the open section's unsummed bytes.
  uint32_t crc_ = 0;     ///< The open section's payload CRC so far.
  uint64_t left_ = 0;    ///< Entries the open section still expects.
  int sections_ = 0;
  bool in_section_ = false;
  bool ok_ = true;
};

/// The complete base file: magic + one 'B' record with per-section CRCs.
std::vector<uint8_t> encode_base(const BaseImage& image);

/// The delta log's file header (just the magic).
std::vector<uint8_t> encode_log_header();

/// Append one CRC-framed 'D' record to `out` (append-only log discipline:
/// the frame is self-delimiting, so a torn append is detectable).
void append_delta(std::vector<uint8_t>* out, const WaveDelta& delta);

// --- Decoding (never aborts; malformed input returns false + a message). ----

/// Parse a base file. On failure returns false and sets *error (bad magic,
/// truncated section, section CRC mismatch, out-of-range counts).
bool decode_base(std::span<const uint8_t> bytes, BaseImage* out,
                 std::string* error);

/// Result of scanning a delta log: the longest consistent record prefix.
struct LogScan {
  std::vector<WaveDelta> deltas;  ///< Consistent records, in file order.
  size_t valid_bytes = 0;         ///< File offset past the last good record.
  bool truncated = false;         ///< A torn/corrupt tail was dropped.
  std::string detail;             ///< Why the tail was dropped (if truncated).
};

/// Scan a delta log, recovering across a torn tail: records are consumed
/// while their frames and CRCs hold; the first bad frame ends the scan with
/// truncated = true (crash recovery, not an error). Returns false only for
/// a malformed log *header* (missing/bad magic) — that is corruption at the
/// front, not a torn append, and the caller must treat the log as invalid.
bool scan_log(std::span<const uint8_t> bytes, LogScan* out, std::string* error);

// --- File helpers (crash-consistency rules; docs/SNAPSHOTS.md). -------------

/// Read a whole file: one read sized from its length, then on to EOF.
/// False + *error if unreadable.
bool read_file(const std::string& path, std::vector<uint8_t>* out,
               std::string* error);

/// Write a file atomically: write `path + ".tmp"`, flush, rename over
/// `path`. A crash mid-write leaves the old file intact — a reader never
/// observes a half-written base image.
bool write_file_atomic(const std::string& path, std::span<const uint8_t> bytes,
                       std::string* error);

/// Write a base file to `path` with write_file_atomic's discipline, its
/// content streamed by `fill` into a file-backed BaseEncoder: the whole
/// file is never in memory at once.
bool write_base_file(const std::string& path,
                     const std::function<void(BaseEncoder&)>& fill, std::string* error);

/// Append bytes to `path` (creating it). A crash mid-append leaves a torn
/// tail that scan_log detects and drops — the append-only half of the
/// crash-consistency contract.
bool append_file(const std::string& path, std::span<const uint8_t> bytes,
                 std::string* error);

}  // namespace fg::snap
