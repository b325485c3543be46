// The service's fixed-memory latency record (util::LatencyHistogram behind
// HealerStats::latency_percentile): percentiles within one bucket of an
// exact sort, and a record whose size does not depend on how many waves
// it has seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "fg/healer_service.h"
#include "graph/generators.h"
#include "util/latency_histogram.h"
#include "util/rng.h"

namespace fg {
namespace {

/// Linear interpolation between closest ranks over a sorted sample (the
/// exact percentile the histogram approximates).
double exact_percentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

TEST(LatencyHistogram, PercentilesMatchAnExactSortWithinOneBucket) {
  // A heavy-tailed seeded sample spanning microseconds to seconds, plus a
  // few exact zeros and sub-nanosecond values.
  Rng rng(0x1A7E);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i)
    sample.push_back(0.002 * std::exp(12.0 * rng.next_double() * rng.next_double()));
  for (double tiny : {0.0, 0.0, 1e-7, 3e-6}) sample.push_back(tiny);

  util::LatencyHistogram hist;
  for (double ms : sample) hist.record_ms(ms);
  ASSERT_EQ(hist.count(), static_cast<int64_t>(sample.size()));
  std::sort(sample.begin(), sample.end());

  for (double p : {0.0, 0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const double exact = exact_percentile(sample, p);
    const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
    const double upper = sample[std::min(static_cast<size_t>(rank) + 1, sample.size() - 1)];
    EXPECT_NEAR(hist.percentile_ms(p), exact, util::LatencyHistogram::bucket_width_ms(upper))
        << "p" << p;
  }
  EXPECT_EQ(util::LatencyHistogram{}.percentile_ms(50.0), 0.0);
}

TEST(LatencyHistogram, RecordSizeDoesNotDependOnTheWaveCount) {
  // Every counter and the latency record are plain values: nothing in the
  // stats grows on the heap as waves accumulate.
  static_assert(std::is_trivially_copyable_v<HealerStats>);
  Rng rng(0x5EED);
  Graph g0 = make_sparse_random(4000, 4.0, rng);
  HealerConfig config;
  config.wave_size = 1;
  HealerService service(g0, config);
  for (NodeId v = 0; v < 3000; ++v) service.push(ChurnOp::Delete(v));
  service.flush();
  const HealerStats& stats = service.stats();
  EXPECT_EQ(stats.waves, 3000);
  EXPECT_EQ(stats.wave_latency.count(), stats.waves);
  EXPECT_GT(stats.latency_percentile(50.0), 0.0);
  EXPECT_LE(stats.latency_percentile(50.0), stats.latency_percentile(99.0));
}

}  // namespace
}  // namespace fg
