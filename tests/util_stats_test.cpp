#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.h"

namespace mm::util {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.37 * i - 3.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(SampleSet, MeanAndStddev) {
  SampleSet s;
  s.add_all({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.2909944487, 1e-9);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  s.add_all({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);
}

TEST(SampleSet, PercentileUnsortedInput) {
  SampleSet s;
  s.add_all({50.0, 10.0, 40.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
}

TEST(SampleSet, PercentileAfterAppendInvalidatesCache) {
  SampleSet s;
  s.add_all({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(SampleSet, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW((void)s.percentile(50), std::out_of_range);
  EXPECT_THROW((void)s.min(), std::out_of_range);
  EXPECT_THROW((void)s.max(), std::out_of_range);
}

TEST(SampleSet, PercentileClampsOutOfRangeP) {
  SampleSet s;
  s.add_all({1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.percentile(-10), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(200), 2.0);
}

TEST(Histogram, BinsAndCounts) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(1.5);
  h.add(2.5);
  h.add(9.9);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_EQ(h.count(0), 2u);  // [0,2)
  EXPECT_EQ(h.count(1), 1u);  // [2,4)
  EXPECT_EQ(h.count(4), 1u);  // [8,10)
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 10.0, 2);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, BinEdges) {
  Histogram h(1.0, 3.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 1.5);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 2.5);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 3.0);
}

TEST(Histogram, Fractions) {
  Histogram h(0.0, 4.0, 2);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
  h.add(1.0);
  h.add(1.0);
  h.add(3.0);
  EXPECT_NEAR(h.fraction(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(h.fraction(1), 1.0 / 3.0, 1e-12);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// Fed log(value), the equal-width bins are log-spaced: a latency record
// whose percentiles stay within one bin's relative width of the exact ones,
// in memory that does not grow with the sample count. wps-serve keeps its
// per-response times this way, with these bounds.
TEST(Histogram, LogBinnedPercentilesTrackExactOnesInFixedMemory) {
  Histogram h(std::log(0.01), std::log(1e8), 2048);
  const std::size_t bins = h.bin_count();
  SampleSet exact;
  Rng rng(2024);
  constexpr int kSamples = 120000;
  for (int i = 0; i < kSamples; ++i) {
    // A body near 20 us under a log-uniform spread over 0.1 us .. 1 s.
    const double us = rng.bernoulli(0.7)
                          ? std::exp(rng.gaussian(std::log(20.0), 0.8))
                          : std::exp(rng.uniform(std::log(0.1), std::log(1e6)));
    h.add(std::log(us));
    exact.add(us);
  }
  EXPECT_EQ(h.bin_count(), bins);
  EXPECT_EQ(h.total(), static_cast<std::size_t>(kSamples));
  const double bin_width = h.bin_hi(0) - h.bin_lo(0);  // in log units
  for (const double p : {50.0, 99.0}) {
    const double got = std::exp(h.percentile(p));
    EXPECT_LE(std::abs(std::log(got / exact.percentile(p))), bin_width) << "p" << p;
  }
}

TEST(Histogram, PercentileReadsInsideTheRankBin) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_THROW((void)h.percentile(50.0), std::out_of_range);
  for (const double x : {1.0, 3.0, 3.5, 9.0}) h.add(x);
  // Ranks 0 .. 3 over bins [0,2) x1, [2,4) x2, [8,10) x1.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 2.0 + 2.0 * 0.5 / 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 8.0);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, ToStringContainsBars) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string text = h.to_string(10);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('|'), std::string::npos);
}

}  // namespace
}  // namespace mm::util
