#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace flecc::sim {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SingleSampleVarianceIsZero) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatTest, MergeEqualsSequential) {
  RunningStat all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (const double x : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(SampleSetTest, QuantileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.3), 3.0);
}

TEST(SampleSetTest, QuantileErrors) {
  SampleSet s;
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
  s.add(1.0);
  EXPECT_THROW((void)s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.quantile(1.1), std::invalid_argument);
}

TEST(SampleSetTest, AddAfterQuantileStillSorted) {
  SampleSet s;
  s.add(2.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.5);
}

TEST(HistogramTest, BinsLinearly) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bin 0
  h.add(1.99);  // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, UnderAndOverflow) {
  Histogram h(0.0, 1.0, 2);
  h.add(-0.5);
  h.add(1.0);  // hi is exclusive
  h.add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
}

TEST(HistogramTest, BadConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(HistogramTest, RendersBars) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string out = h.to_string(10);
  EXPECT_NE(out.find("##########"), std::string::npos);
}

TEST(CounterSetTest, IncrementAndQuery) {
  CounterSet c;
  c.inc("a");
  c.inc("a", 4);
  c.inc("b");
  EXPECT_EQ(c.get("a"), 5u);
  EXPECT_EQ(c.get("b"), 1u);
  EXPECT_EQ(c.get("missing"), 0u);
  EXPECT_EQ(c.total(), 6u);
}

TEST(CounterSetTest, ResetClears) {
  CounterSet c;
  c.inc("x", 10);
  c.reset();
  EXPECT_EQ(c.get("x"), 0u);
  EXPECT_EQ(c.total(), 0u);
}

TEST(CounterSetTest, ToStringSortedByName) {
  CounterSet c;
  c.inc("zeta");
  c.inc("alpha", 2);
  EXPECT_EQ(c.to_string(), "alpha=2\nzeta=1\n");
}

}  // namespace
}  // namespace flecc::sim
