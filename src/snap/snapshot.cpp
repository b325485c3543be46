#include "snap/snapshot.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define FG_SNAP_CLMUL 1
#else
#define FG_SNAP_CLMUL 0
#endif

namespace fg::snap {

namespace {

/// CRC-32 lookup tables (IEEE 802.3 reflected polynomial 0xEDB88320),
/// generated once at static-init time. Eight tables for the slicing-by-8
/// sweep: a base image is tens of megabytes and every restore checksums
/// all of it, so the byte-at-a-time loop was the dominant decode cost.
struct CrcTable {
  std::array<std::array<uint32_t, 256>, 8> t{};
  bool clmul = false;  ///< The CPU has carry-less multiply (crc32_clmul).
  CrcTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
      for (int j = 1; j < 8; ++j)
        t[static_cast<size_t>(j)][i] =
            (t[static_cast<size_t>(j - 1)][i] >> 8) ^
            t[0][t[static_cast<size_t>(j - 1)][i] & 0xFFu];
#if FG_SNAP_CLMUL
    __builtin_cpu_init();
    clmul = __builtin_cpu_supports("pclmul");
#endif
  }
};
const CrcTable kCrc;

#if FG_SNAP_CLMUL
/// CRC-32 by carry-less multiplication, the bit-reflected folding of Intel's
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ" (2009):
/// four 128-bit lanes fold across each 64-byte block, the lanes fold into
/// one, and a Barrett reduction takes it to 32 bits. Every constant is
/// x^k mod P, bit-reflected: k1/k2 fold 512 bits, k3/k4 128 bits, k5 64
/// bits, then mu = x^64 / P and P itself. `c` is the running register
/// (seed already inverted); `n` is a multiple of 16, at least 64.
/// Bit-identical to the table recurrence, which takes the tail.
__attribute__((target("pclmul"))) __m128i clmul_fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

__attribute__((target("pclmul"))) uint32_t crc32_clmul(uint32_t c, const uint8_t* p,
                                                       size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i mu_p = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);
  auto load = [](const uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(clmul_fold(x0, k1k2), load(p));
    x1 = _mm_xor_si128(clmul_fold(x1, k1k2), load(p + 16));
    x2 = _mm_xor_si128(clmul_fold(x2, k1k2), load(p + 32));
    x3 = _mm_xor_si128(clmul_fold(x3, k1k2), load(p + 48));
  }
  __m128i x = _mm_xor_si128(clmul_fold(x0, k3k4), x1);
  x = _mm_xor_si128(clmul_fold(x, k3k4), x2);
  x = _mm_xor_si128(clmul_fold(x, k3k4), x3);
  for (; n >= 16; p += 16, n -= 16) x = _mm_xor_si128(clmul_fold(x, k3k4), load(p));

  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32 by Barrett.
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
                    _mm_srli_si128(x, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_p, 0x00);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(t, x), 4)));
}
#endif

/// Sequential little-endian writer over bytes already sized for what it
/// writes. Every field is fixed-width, so the encoders compute a record's
/// (append_delta) or an entry's (BaseEncoder) byte count first, size the
/// buffer once and write through this cursor with no per-field growth
/// check. append_delta ends with check_end, so a length that disagrees with
/// the fields written aborts instead of framing a malformed record.
class Writer {
 public:
  explicit Writer(uint8_t* at) : at_(at) {}

  uint8_t* at() const { return at_; }

  void u8(uint8_t v) { *at_++ = v; }
  void u32(uint32_t v) { store(v); }
  void u64(uint64_t v) { store(v); }
  void i32(int32_t v) { store(static_cast<uint32_t>(v)); }
  void i64(int64_t v) { store(static_cast<uint64_t>(v)); }
  void bytes(const void* p, size_t n) {
    std::memcpy(at_, p, n);
    at_ += n;
  }

 private:
  template <typename T>
  void store(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(at_, &v, sizeof v);
    } else {
      for (size_t i = 0; i < sizeof v; ++i) at_[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    at_ += sizeof v;
  }

  uint8_t* at_;
};

void check_end(const Writer& w, const uint8_t* end) {
  if (w.at() == end) return;
  std::fputs("fg::snap: record length disagrees with its fields\n", stderr);
  std::abort();
}

/// Bounds-checked sequential reader. Every get_* reports underrun through
/// ok(); decoders check once per logical unit, never per field.
class Reader {
 public:
  Reader(std::span<const uint8_t> bytes, size_t at = 0) : bytes_(bytes), at_(at) {}

  bool ok() const { return ok_; }
  size_t at() const { return at_; }
  size_t left() const { return bytes_.size() - at_; }

  bool take(size_t n) {
    if (!ok_ || left() < n) return fail();
    at_ += n;
    return true;
  }

  uint8_t get_u8() {
    if (!ok_ || left() < 1) return fail(), 0;
    return bytes_[at_++];
  }

  uint32_t get_u32() {
    if (!ok_ || left() < 4) return fail(), 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes_[at_++]) << (8 * i);
    return v;
  }

  uint64_t get_u64() {
    if (!ok_ || left() < 8) return fail(), 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes_[at_++]) << (8 * i);
    return v;
  }

  int32_t get_i32() { return static_cast<int32_t>(get_u32()); }
  int64_t get_i64() { return static_cast<int64_t>(get_u64()); }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }

  std::span<const uint8_t> bytes_;
  size_t at_ = 0;
  bool ok_ = true;
};

// --- Row and record payload codecs. -----------------------------------------

constexpr size_t kRowBytes = 7 * 4 + 8 + 1;  // 6 handles + height, leaf_count, flags
constexpr size_t kSlotOpBytes = 4 + 4 + 1 + 4 + 4;  // owner, other, present, leaf, helper
constexpr size_t kMultBytes = 4 + 4 + 4;              // u, v, count

void put_row(Writer* w, const VRow& r) {
  w->i32(r.owner);
  w->i32(r.other);
  w->i32(r.parent);
  w->i32(r.left);
  w->i32(r.right);
  w->i32(r.rep);
  w->i32(r.height);
  w->i64(r.leaf_count);
  w->u8(static_cast<uint8_t>((r.is_leaf ? 1 : 0) | (r.alive ? 2 : 0)));
}

VRow get_row(Reader* r) {
  VRow row;
  row.owner = r->get_i32();
  row.other = r->get_i32();
  row.parent = r->get_i32();
  row.left = r->get_i32();
  row.right = r->get_i32();
  row.rep = r->get_i32();
  row.height = r->get_i32();
  row.leaf_count = r->get_i64();
  uint8_t flags = r->get_u8();
  row.is_leaf = (flags & 1) != 0;
  row.alive = (flags & 2) != 0;
  return row;
}

/// A counted list's element count, sanity-bounded by what the remaining
/// bytes could possibly hold (min_elem_bytes per element) so a corrupt
/// count can never drive a multi-gigabyte allocation.
bool get_count(Reader* r, size_t min_elem_bytes, uint64_t* out) {
  uint64_t n = r->get_u64();
  if (!r->ok() || n > r->left() / (min_elem_bytes == 0 ? 1 : min_elem_bytes))
    return false;
  *out = n;
  return true;
}

bool check_magic(Reader* r) {
  if (r->left() < kMagicLen) return false;
  const uint8_t* want = reinterpret_cast<const uint8_t*>(kMagic);
  for (size_t i = 0; i < kMagicLen; ++i)
    if (r->get_u8() != want[i]) return false;
  return r->ok();
}

bool set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}


/// The exact byte length put_delta_payload writes for `d`.
size_t delta_payload_bytes(const WaveDelta& d) {
  size_t n = 4 * 8;  // epoch_after, cursor, arena_size_after, forest_live_after
  n += 8;
  for (const WaveDelta::Insert& ins : d.inserts) n += 4 + 4 + 4 * ins.neighbors.size();
  n += 8 + 4 * d.victims.size();
  n += 8 + (4 + kRowBytes) * d.rows.size();
  n += 8 + kSlotOpBytes * d.slots.size();
  n += 8 + kMultBytes * d.mult.size();
  return n;
}

void put_delta_payload(Writer* w, const WaveDelta& d) {
  w->u64(d.epoch_after);
  w->u64(d.cursor);
  w->u64(d.arena_size_after);
  w->i64(d.forest_live_after);
  w->u64(d.inserts.size());
  for (const WaveDelta::Insert& ins : d.inserts) {
    w->u32(ins.id);
    w->u32(static_cast<uint32_t>(ins.neighbors.size()));
    for (uint32_t v : ins.neighbors) w->u32(v);
  }
  w->u64(d.victims.size());
  for (uint32_t v : d.victims) w->u32(v);
  w->u64(d.rows.size());
  for (const WaveDelta::Row& row : d.rows) {
    w->u32(row.handle);
    put_row(w, row.row);
  }
  w->u64(d.slots.size());
  for (const WaveDelta::SlotOp& s : d.slots) {
    w->u32(s.owner);
    w->u32(s.other);
    w->u8(s.present ? 1 : 0);
    w->i32(s.leaf);
    w->i32(s.helper);
  }
  w->u64(d.mult.size());
  for (const WaveDelta::MultOp& m : d.mult) {
    w->u32(m.u);
    w->u32(m.v);
    w->i32(m.count);
  }
}

bool get_delta_payload(std::span<const uint8_t> payload, WaveDelta* d,
                       std::string* error) {
  Reader r(payload);
  d->epoch_after = r.get_u64();
  d->cursor = r.get_u64();
  d->arena_size_after = r.get_u64();
  d->forest_live_after = r.get_i64();
  uint64_t n = 0;
  if (!get_count(&r, 8, &n)) return set_error(error, "delta: bad insert count");
  d->inserts.resize(n);
  for (WaveDelta::Insert& ins : d->inserts) {
    ins.id = r.get_u32();
    uint32_t deg = r.get_u32();
    if (!r.ok() || deg > r.left() / 4)
      return set_error(error, "delta: bad insert degree");
    ins.neighbors.resize(deg);
    for (uint32_t& w : ins.neighbors) w = r.get_u32();
  }
  if (!get_count(&r, 4, &n)) return set_error(error, "delta: bad victim count");
  d->victims.resize(n);
  for (uint32_t& v : d->victims) v = r.get_u32();
  if (!get_count(&r, 4 + kRowBytes, &n))
    return set_error(error, "delta: bad row count");
  d->rows.resize(n);
  for (WaveDelta::Row& row : d->rows) {
    row.handle = r.get_u32();
    row.row = get_row(&r);
  }
  if (!get_count(&r, kSlotOpBytes, &n)) return set_error(error, "delta: bad slot count");
  d->slots.resize(n);
  for (WaveDelta::SlotOp& s : d->slots) {
    s.owner = r.get_u32();
    s.other = r.get_u32();
    s.present = r.get_u8() != 0;
    s.leaf = r.get_i32();
    s.helper = r.get_i32();
  }
  if (!get_count(&r, kMultBytes, &n)) return set_error(error, "delta: bad mult count");
  d->mult.resize(n);
  for (WaveDelta::MultOp& m : d->mult) {
    m.u = r.get_u32();
    m.v = r.get_u32();
    m.count = r.get_i32();
  }
  if (!r.ok()) return set_error(error, "delta: truncated payload");
  if (r.left() != 0) return set_error(error, "delta: trailing payload bytes");
  return true;
}

}  // namespace

uint32_t crc32(std::span<const uint8_t> bytes, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
#if FG_SNAP_CLMUL
  if (n >= 64 && kCrc.clmul) {
    const size_t folded = n & ~size_t{15};
    c = crc32_clmul(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  // Slicing-by-8: two little-endian words per step, one table per byte
  // lane. Bit-identical to the byte-at-a-time recurrence.
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kCrc.t[7][lo & 0xFFu] ^ kCrc.t[6][(lo >> 8) & 0xFFu] ^
        kCrc.t[5][(lo >> 16) & 0xFFu] ^ kCrc.t[4][lo >> 24] ^
        kCrc.t[3][hi & 0xFFu] ^ kCrc.t[2][(hi >> 8) & 0xFFu] ^
        kCrc.t[1][(hi >> 16) & 0xFFu] ^ kCrc.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = kCrc.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// --- BaseEncoder. -------------------------------------------------------------

/// The encoder's buffer: big enough that flushes are rare, small enough
/// that a base write of tens of megabytes holds no large allocation.
constexpr size_t kBaseBufferBytes = size_t{1} << 16;

BaseEncoder::BaseEncoder(std::vector<uint8_t>* out) : out_(out), buf_(kBaseBufferBytes) {}

BaseEncoder::BaseEncoder(std::FILE* file) : file_(file), buf_(kBaseBufferBytes) {}

uint8_t* BaseEncoder::take(size_t n) {
  if (used_ + n > buf_.size()) flush();
  uint8_t* p = buf_.data() + used_;
  used_ += n;
  return p;
}

void BaseEncoder::flush() {
  if (in_section_) crc_ = crc32({buf_.data() + crc_from_, used_ - crc_from_}, crc_);
  crc_from_ = 0;
  if (out_ != nullptr) {
    out_->insert(out_->end(), buf_.data(), buf_.data() + used_);
  } else if (used_ > 0) {
    ok_ = ok_ && std::fwrite(buf_.data(), 1, used_, file_) == used_;
  }
  used_ = 0;
}

void BaseEncoder::header(uint64_t wave, uint64_t epoch, uint64_t cursor) {
  Writer w(take(kMagicLen + 1 + 3 * 8 + 4));
  w.bytes(kMagic, kMagicLen);
  w.u8('B');
  w.u64(wave);
  w.u64(epoch);
  w.u64(cursor);
  w.u32(5);  // section count
}

void BaseEncoder::begin_section(const char tag[4], uint64_t payload_bytes, uint64_t entries) {
  if (in_section_) end_section();
  Writer w(take(12));
  w.bytes(tag, 4);
  w.u64(payload_bytes);
  in_section_ = true;
  crc_from_ = used_;
  crc_ = 0;
  left_ = entries;
}

void BaseEncoder::end_section() {
  crc_ = crc32({buf_.data() + crc_from_, used_ - crc_from_}, crc_);
  in_section_ = false;
  ok_ = ok_ && left_ == 0;
  ++sections_;
  Writer(take(4)).u32(crc_);
}

void BaseEncoder::entry() {
  ok_ = ok_ && left_ > 0;
  --left_;
}

void BaseEncoder::begin_gprime(uint32_t capacity, uint64_t edges) {
  begin_section("GPRM", 4 + 8 + 8 * edges, edges);
  Writer w(take(12));
  w.u32(capacity);
  w.u64(edges);
}

void BaseEncoder::edge(uint32_t u, uint32_t v) {
  entry();
  Writer w(take(8));
  w.u32(u);
  w.u32(v);
}

void BaseEncoder::begin_live(uint64_t dead) {
  begin_section("LIVE", 8 + 4 * dead, dead);
  Writer(take(8)).u64(dead);
}

void BaseEncoder::dead(uint32_t v) {
  entry();
  Writer(take(4)).u32(v);
}

void BaseEncoder::begin_forest(uint64_t rows, int64_t forest_live) {
  begin_section("FRST", 8 + 8 + kRowBytes * rows, rows);
  Writer w(take(16));
  w.u64(rows);
  w.i64(forest_live);
}

void BaseEncoder::row(const VRow& r) {
  entry();
  Writer w(take(kRowBytes));
  put_row(&w, r);
}

void BaseEncoder::begin_slots(uint64_t slots) {
  begin_section("SLOT", 8 + 16 * slots, slots);
  Writer(take(8)).u64(slots);
}

void BaseEncoder::slot(const BaseImage::SlotEntry& e) {
  entry();
  Writer w(take(16));
  w.u32(e.owner);
  w.i32(e.other);
  w.i32(e.leaf);
  w.i32(e.helper);
}

void BaseEncoder::begin_mult(uint64_t mult) {
  begin_section("MULT", 8 + kMultBytes * mult, mult);
  Writer(take(8)).u64(mult);
}

void BaseEncoder::mult(const BaseImage::MultEntry& m) {
  entry();
  Writer w(take(kMultBytes));
  w.u32(m.u);
  w.u32(m.v);
  w.i32(m.count);
}

bool BaseEncoder::finish() {
  if (in_section_) end_section();
  flush();
  return ok_ && sections_ == 5;
}

std::vector<uint8_t> encode_base(const BaseImage& image) {
  std::vector<uint8_t> out;
  out.reserve(kMagicLen + 1 + 3 * 8 + 4 + 5 * (4 + 8 + 4) + (4 + 8) + 8 + (8 + 8) + 8 + 8 +
              8 * image.gprime_edges.size() + 4 * image.dead.size() +
              kRowBytes * image.rows.size() + 16 * image.slots.size() +
              kMultBytes * image.mult.size());
  BaseEncoder enc(&out);
  enc.header(image.wave, image.epoch, image.cursor);
  enc.begin_gprime(image.capacity, image.gprime_edges.size());
  for (const auto& [u, v] : image.gprime_edges) enc.edge(u, v);
  enc.begin_live(image.dead.size());
  for (uint32_t v : image.dead) enc.dead(v);
  enc.begin_forest(image.rows.size(), image.forest_live);
  for (const VRow& r : image.rows) enc.row(r);
  enc.begin_slots(image.slots.size());
  for (const BaseImage::SlotEntry& e : image.slots) enc.slot(e);
  enc.begin_mult(image.mult.size());
  for (const BaseImage::MultEntry& m : image.mult) enc.mult(m);
  enc.finish();
  return out;
}

std::vector<uint8_t> encode_log_header() {
  return std::vector<uint8_t>(kMagic, kMagic + kMagicLen);
}

void append_delta(std::vector<uint8_t>* out, const WaveDelta& delta) {
  // 'D', wave, payload length, payload, frame CRC: sized once, written in
  // place. The frame CRC covers the header fields too, so a bit flip in
  // the wave id or the length is as detectable as one in the payload.
  const size_t payload = delta_payload_bytes(delta);
  const size_t start = out->size();
  out->resize(start + 1 + 16 + payload + 4);
  Writer w(out->data() + start);
  w.u8('D');
  w.u64(delta.wave);
  w.u64(payload);
  put_delta_payload(&w, delta);
  w.u32(crc32({out->data() + start + 1, 16 + payload}));
  check_end(w, out->data() + out->size());
}

bool decode_base(std::span<const uint8_t> bytes, BaseImage* out,
                 std::string* error) {
  Reader r(bytes);
  if (!check_magic(&r)) return set_error(error, "base: bad magic");
  if (r.get_u8() != 'B' || !r.ok())
    return set_error(error, "base: not a base record");
  out->wave = r.get_u64();
  out->epoch = r.get_u64();
  out->cursor = r.get_u64();
  uint32_t sections = r.get_u32();
  if (!r.ok()) return set_error(error, "base: truncated header");
  if (sections != 5) return set_error(error, "base: unexpected section count");

  const char* const kTags[5] = {"GPRM", "LIVE", "FRST", "SLOT", "MULT"};
  for (uint32_t s = 0; s < 5; ++s) {
    char tag[5] = {};
    for (int i = 0; i < 4; ++i) tag[i] = static_cast<char>(r.get_u8());
    uint64_t len = r.get_u64();
    if (!r.ok() || std::strncmp(tag, kTags[s], 4) != 0)
      return set_error(error, std::string("base: expected section ") + kTags[s]);
    if (len > r.left()) return set_error(error, "base: truncated section payload");
    std::span<const uint8_t> payload = bytes.subspan(r.at(), len);
    r.take(len);
    uint32_t want = r.get_u32();
    if (!r.ok()) return set_error(error, "base: truncated section frame");
    if (crc32(payload) != want)
      return set_error(error,
                       std::string("base: section ") + kTags[s] + " CRC mismatch");

    Reader pr(payload);
    uint64_t n = 0;
    switch (s) {
      case 0: {  // GPRM
        out->capacity = pr.get_u32();
        if (!get_count(&pr, 8, &n)) return set_error(error, "base: bad edge count");
        out->gprime_edges.resize(n);
        // The in-memory element layouts below match the little-endian wire
        // layout exactly, so on LE hosts the bounds-checked per-field loops
        // collapse to one memcpy per section (the big-section decode cost is
        // otherwise field extraction, not I/O).
        static_assert(sizeof(std::pair<uint32_t, uint32_t>) == 8);
        static_assert(std::is_standard_layout_v<std::pair<uint32_t, uint32_t>>);
        if constexpr (std::endian::native == std::endian::little) {
          if (n > 0)
            std::memcpy(static_cast<void*>(out->gprime_edges.data()),
                        payload.data() + pr.at(), n * 8);
          pr.take(n * 8);
        } else {
          for (auto& [u, v] : out->gprime_edges) {
            u = pr.get_u32();
            v = pr.get_u32();
          }
        }
        break;
      }
      case 1: {  // LIVE
        if (!get_count(&pr, 4, &n)) return set_error(error, "base: bad dead count");
        out->dead.resize(n);
        if constexpr (std::endian::native == std::endian::little) {
          if (n > 0) std::memcpy(out->dead.data(), payload.data() + pr.at(), n * 4);
          pr.take(n * 4);
        } else {
          for (uint32_t& v : out->dead) v = pr.get_u32();
        }
        break;
      }
      case 2: {  // FRST
        if (!get_count(&pr, kRowBytes, &n))
          return set_error(error, "base: bad arena size");
        out->forest_live = pr.get_i64();
        out->rows.resize(n);
        for (VRow& row : out->rows) row = get_row(&pr);
        break;
      }
      case 3: {  // SLOT
        if (!get_count(&pr, 16, &n)) return set_error(error, "base: bad slot count");
        out->slots.resize(n);
        static_assert(sizeof(BaseImage::SlotEntry) == 16);
        if constexpr (std::endian::native == std::endian::little) {
          if (n > 0) std::memcpy(out->slots.data(), payload.data() + pr.at(), n * 16);
          pr.take(n * 16);
        } else {
          for (BaseImage::SlotEntry& e : out->slots) {
            e.owner = pr.get_u32();
            e.other = pr.get_i32();
            e.leaf = pr.get_i32();
            e.helper = pr.get_i32();
          }
        }
        break;
      }
      case 4: {  // MULT
        if (!get_count(&pr, 12, &n)) return set_error(error, "base: bad mult count");
        out->mult.resize(n);
        static_assert(sizeof(BaseImage::MultEntry) == 12);
        if constexpr (std::endian::native == std::endian::little) {
          if (n > 0) std::memcpy(out->mult.data(), payload.data() + pr.at(), n * 12);
          pr.take(n * 12);
        } else {
          for (BaseImage::MultEntry& m : out->mult) {
            m.u = pr.get_u32();
            m.v = pr.get_u32();
            m.count = pr.get_i32();
          }
        }
        break;
      }
    }
    if (!pr.ok()) return set_error(error, std::string("base: truncated ") + kTags[s]);
    if (pr.left() != 0)
      return set_error(error, std::string("base: trailing bytes in ") + kTags[s]);
  }
  if (r.left() != 0) return set_error(error, "base: trailing bytes after sections");
  return true;
}

bool scan_log(std::span<const uint8_t> bytes, LogScan* out, std::string* error) {
  out->deltas.clear();
  out->valid_bytes = 0;
  out->truncated = false;
  out->detail.clear();

  Reader r(bytes);
  if (!check_magic(&r)) return set_error(error, "log: bad magic");
  out->valid_bytes = r.at();

  while (r.left() > 0) {
    auto torn = [&](const std::string& why) {
      out->truncated = true;
      out->detail = why;
      return true;  // recovered: the consistent prefix stands
    };
    size_t frame_start = r.at();
    uint8_t kind = r.get_u8();
    if (kind != 'D') return torn("unknown record kind");
    uint64_t wave = r.get_u64();
    uint64_t len = r.get_u64();
    if (!r.ok() || len > r.left() || r.left() - len < 4)
      return torn("truncated record frame");
    std::span<const uint8_t> payload = bytes.subspan(r.at(), len);
    r.take(len);
    uint32_t want = r.get_u32();
    // The frame CRC as append_delta computed it: the 16 header bytes (wave
    // id, length), then the payload, chained without copying either.
    std::span<const uint8_t> header = bytes.subspan(frame_start + 1, 16);
    if (crc32(payload, crc32(header)) != want) return torn("record CRC mismatch");

    WaveDelta delta;
    std::string derr;
    if (!get_delta_payload(payload, &delta, &derr)) return torn(derr);
    delta.wave = wave;
    out->deltas.push_back(std::move(delta));
    out->valid_bytes = r.at();
  }
  return true;
}

bool write_base_file(const std::string& path,
                     const std::function<void(BaseEncoder&)>& fill, std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return set_error(error, "cannot create " + tmp);
  BaseEncoder enc(f);
  fill(enc);
  bool ok = enc.finish();
  ok = (std::fflush(f) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return set_error(error, "write error on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return set_error(error, "cannot rename " + tmp + " over " + path);
  }
  return true;
}

bool read_file(const std::string& path, std::vector<uint8_t>* out,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return set_error(error, "cannot open " + path);
  out->clear();
  // Size the buffer from the file length and read it in one call; then
  // keep reading to EOF, so a file that grew since (or one whose length
  // cannot be taken, like a pipe) is still read whole.
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    std::rewind(f);
    if (size > 0) {
      out->resize(static_cast<size_t>(size));
      out->resize(std::fread(out->data(), 1, out->size(), f));
    }
  }
  std::array<uint8_t, 1 << 16> buf;
  size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
    out->insert(out->end(), buf.data(), buf.data() + n);
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return set_error(error, "read error on " + path);
  return true;
}

bool write_file_atomic(const std::string& path, std::span<const uint8_t> bytes,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return set_error(error, "cannot create " + tmp);
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = (std::fflush(f) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return set_error(error, "write error on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return set_error(error, "cannot rename " + tmp + " over " + path);
  }
  return true;
}

bool append_file(const std::string& path, std::span<const uint8_t> bytes,
                 std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return set_error(error, "cannot open " + path + " for append");
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = (std::fflush(f) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return set_error(error, "append error on " + path);
  return true;
}

}  // namespace fg::snap
