// The one sort for lists of ids: an LSD radix sort over 32- or 64-bit keys.
// The snapshot recorder, the certificate emitter, the independent
// certificate checker and the stabilizer's image recount all sort through
// it; signed ids and id pairs map onto order-preserving unsigned keys
// first, so the sorted order is exactly what std::sort gives the ids.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace fg::util {

/// Order-preserving key of a signed 32-bit id: flipping the sign bit maps
/// INT32_MIN..INT32_MAX onto 0..UINT32_MAX in order. Untrusted ids (the
/// certificate checker's) may be negative.
constexpr uint32_t ordered_key(int32_t v) { return static_cast<uint32_t>(v) ^ 0x80000000u; }

/// Order-preserving key of an id pair: lexicographic (a, b) order.
constexpr uint64_t pair_key(int32_t a, int32_t b) {
  return uint64_t{ordered_key(a)} << 32 | ordered_key(b);
}

/// The pair a pair_key was made from.
constexpr std::pair<int32_t, int32_t> key_pair(uint64_t key) {
  return {static_cast<int32_t>(static_cast<uint32_t>(key >> 32) ^ 0x80000000u),
          static_cast<int32_t>(static_cast<uint32_t>(key) ^ 0x80000000u)};
}

/// Sort `keys` ascending through `scratch`, and with `drop_repeats` drop
/// repeats. Each 32-bit half is sorted over the bits that vary among the
/// keys, in digits of at most 11 bits: ids below 2^22 take two passes per
/// half, a half every key agrees on takes none, and one counting pass
/// builds every digit's histogram. LSD passes are stable.
template <typename Key>
void radix_sort(std::vector<Key>* keys, std::vector<Key>* scratch, bool drop_repeats = false) {
  static_assert(sizeof(Key) == 4 || sizeof(Key) == 8);
  constexpr int kMaxDigitBits = 11;
  constexpr size_t kMaxDigits = sizeof(Key) / 4 * 3;  // 32 bits = 3 digits
  const size_t n = keys->size();
  FG_CHECK(n <= UINT32_MAX);
  if (n > 1) {
    Key any = 0;
    Key all = ~Key{0};
    for (Key k : *keys) {
      any |= k;
      all &= k;
    }
    const Key used = any ^ all;  // the bits that vary
    struct Digit {
      int shift = 0;
      Key mask = 0;
    };
    std::array<Digit, kMaxDigits> digits;
    size_t nd = 0;
    for (int half = 0; half < static_cast<int>(sizeof(Key) / 4); ++half) {
      const int width = std::bit_width(static_cast<uint32_t>(used >> (32 * half)));
      const int passes = (width + kMaxDigitBits - 1) / kMaxDigitBits;
      for (int p = 0; p < passes; ++p) {
        const int lo = p * width / passes;
        const int hi = (p + 1) * width / passes;
        digits[nd++] = {32 * half + lo, static_cast<Key>((Key{1} << (hi - lo)) - 1)};
      }
    }
    std::array<std::array<uint32_t, size_t{1} << kMaxDigitBits>, kMaxDigits> count;
    for (size_t d = 0; d < nd; ++d) std::fill_n(count[d].begin(), digits[d].mask + 1, 0u);
    for (Key k : *keys)
      for (size_t d = 0; d < nd; ++d) ++count[d][(k >> digits[d].shift) & digits[d].mask];

    scratch->resize(n);
    Key* from = keys->data();
    Key* to = scratch->data();
    for (size_t d = 0; d < nd; ++d) {
      const int shift = digits[d].shift;
      const Key mask = digits[d].mask;
      uint32_t* c = count[d].data();
      uint32_t sum = 0;
      for (Key b = 0; b <= mask; ++b) sum += std::exchange(c[b], sum);
      for (size_t i = 0; i < n; ++i) to[c[(from[i] >> shift) & mask]++] = from[i];
      std::swap(from, to);
    }
    if (from != keys->data()) keys->swap(*scratch);
  }
  if (drop_repeats) keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

}  // namespace fg::util
