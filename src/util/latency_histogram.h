// Fixed-memory log-linear latency histogram.
//
// A sample (milliseconds, kept at nanosecond resolution) lands in the
// bucket named by its binary exponent — std::bit_width, the intLog2 idiom
// — plus the kSubBits bits just below its leading one; values under
// 2^kSubBits ns get a bucket each. Every bucket therefore spans at most
// 1/2^kSubBits of its lower bound, and the record is one fixed array of
// counters however many samples it has seen.
//
// percentile_ms(p) reads the two closest-rank samples off the cumulative
// counts and interpolates linearly between their bucket midpoints (the
// numpy default, over midpoints). Each midpoint is within half a bucket of
// its sample, so the result is within half the wider bucket's width of
// the exact interpolated percentile: at most 1/32 (about 3%) of the larger
// sample, plus the half-nanosecond rounding.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace fg::util {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;
  /// One exact bucket per value below kSub, then kSub per exponent up to
  /// the top bit of a uint64 nanosecond count.
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  /// Record one sample (negative and NaN samples count as 0).
  void record_ms(double ms) {
    ++counts_[static_cast<size_t>(bucket_of(to_ns(ms)))];
    ++count_;
  }

  /// Samples recorded.
  int64_t count() const { return count_; }

  /// Percentile p in [0, 100], in milliseconds; 0 for an empty record.
  double percentile_ms(double p) const {
    if (count_ == 0) return 0.0;
    const double q = p > 0.0 ? std::min(p, 100.0) : 0.0;  // NaN reads as 0
    const double rank = q / 100.0 * static_cast<double>(count_ - 1);
    const auto lo = static_cast<int64_t>(rank);
    const int64_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    const double a = sample_ns(lo);
    const double b = sample_ns(hi);
    return (a + frac * (b - a)) / 1e6;
  }

  /// Width, in milliseconds, of the bucket a sample of `ms` lands in.
  static double bucket_width_ms(double ms) {
    return static_cast<double>(bucket_width(bucket_of(to_ns(ms)))) / 1e6;
  }

 private:
  static uint64_t to_ns(double ms) {
    const double ns = std::round(ms * 1e6);
    if (!(ns > 0.0)) return 0;
    return ns >= 0x1p63 ? uint64_t{1} << 63 : static_cast<uint64_t>(ns);
  }

  static int bucket_of(uint64_t ns) {
    if (ns < static_cast<uint64_t>(kSub)) return static_cast<int>(ns);
    const int shift = static_cast<int>(std::bit_width(ns)) - 1 - kSubBits;
    return (shift + 1) * kSub + static_cast<int>((ns >> shift) & (kSub - 1));
  }

  static uint64_t bucket_low(int b) {
    if (b < kSub) return static_cast<uint64_t>(b);
    const int shift = b / kSub - 1;
    return static_cast<uint64_t>(kSub + b % kSub) << shift;
  }

  static uint64_t bucket_width(int b) {
    return b < kSub ? 1 : uint64_t{1} << (b / kSub - 1);
  }

  /// Midpoint (ns) of the bucket holding the index-th smallest sample.
  double sample_ns(int64_t index) const {
    int64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[static_cast<size_t>(b)];
      if (seen > index)
        return static_cast<double>(bucket_low(b)) +
               static_cast<double>(bucket_width(b) - 1) / 2.0;
    }
    return 0.0;  // unreachable: index < count_
  }

  std::array<int64_t, kBuckets> counts_{};
  int64_t count_ = 0;
};

}  // namespace fg::util
