// Hand-computed fixtures for the benchmark's own arithmetic.

#include "bench_math.h"

#include <gtest/gtest.h>

#include <cmath>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOverSuccesses) {
  // Ten samples 1..10: nearest rank ceil(q * 10).
  std::vector<double> ok = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(PercentileWithFailures(ok, 0, 0.50), 5);
  EXPECT_EQ(PercentileWithFailures(ok, 0, 0.99), 10);
  EXPECT_EQ(PercentileWithFailures(ok, 0, 0.0), 1);
  EXPECT_EQ(PercentileWithFailures({7}, 0, 0.5), 7);
}

TEST(PercentileTest, FailuresCountAsInfinity) {
  // 99 successes of 1 us plus 1 failure: p99 is rank 99 -> still 1 us,
  // p100 lands on the failure.
  std::vector<double> ok(99, 1.0);
  EXPECT_EQ(PercentileWithFailures(ok, 1, 0.99), 1.0);
  EXPECT_TRUE(std::isinf(PercentileWithFailures(ok, 1, 1.0)));
  // 98 successes + 2 failures: rank 99 of 100 is a failure.
  std::vector<double> ok98(98, 1.0);
  EXPECT_TRUE(std::isinf(PercentileWithFailures(ok98, 2, 0.99)));
  // Half failed: the median is rank 2 of 4 -> the larger success.
  EXPECT_EQ(PercentileWithFailures({3, 1}, 2, 0.5), 3);
  EXPECT_TRUE(std::isinf(PercentileWithFailures({3, 1}, 3, 0.5)));
  EXPECT_TRUE(std::isnan(PercentileWithFailures({}, 0, 0.5)));
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(SliceTest, QuietQuartileOverSlices) {
  // Five 0.5 s slices completing 10, 40, 20, 35 and 5 columns: rates 20,
  // 80, 40, 70 and 10 columns/s. From the fastest, rank ceil(5/4) = 2 is 70
  // (total/time would say 44, the median 40).
  std::vector<Slice> slices(5);
  slices[0].columns = 10;
  slices[1].columns = 40;
  slices[2].columns = 20;
  slices[3].columns = 35;
  slices[4].columns = 5;
  EXPECT_DOUBLE_EQ(QuietSliceRate(slices, 0.5), 70.0);
  // Four slices: rank ceil(1) = 1, the fastest.
  slices.pop_back();
  EXPECT_DOUBLE_EQ(QuietSliceRate(slices, 0.5), 80.0);
  // Per-slice p50: {1,2,3} -> 2; {10} -> 10; {5, fail} -> rank 1 of 2 -> 5;
  // {4, 6} -> 4. From the lowest, rank 1 of 4 is 2.
  slices[0].latency_us = {3, 1, 2};
  slices[1].latency_us = {10};
  slices[2].latency_us = {5};
  slices[2].failed = 1;
  slices[3].latency_us = {4, 6};
  EXPECT_DOUBLE_EQ(QuietSlicePercentile(slices, 0.5), 2.0);
  // p99 per slice: 3, 10, +inf (the failure), 6; rank 1 is 3.
  EXPECT_DOUBLE_EQ(QuietSlicePercentile(slices, 0.99), 3.0);
  // Failures in every slice but one: +inf still ranks last.
  slices[0].failed = 1;
  slices[3].failed = 5;
  EXPECT_DOUBLE_EQ(QuietSlicePercentile(slices, 0.99), 10.0);
}

EvalColumn Col(bool has_top, double confidence, uint32_t top_row, int64_t injected) {
  EvalColumn c;
  c.has_top = has_top;
  c.confidence = confidence;
  c.top_row = top_row;
  c.injected_row = injected;
  return c;
}

TEST(PrecisionAtKTest, RanksByConfidenceAndChecksTheRow) {
  // Three injected errors, so K = 3. Ranked: 0.99 (hit), 0.95 (clean
  // column, miss), 0.90 (wrong row, miss), 0.50 (hit, but rank 4 > K).
  std::vector<EvalColumn> cols = {
      Col(true, 0.50, 2, 2),    // hit, ranked 4th
      Col(true, 0.99, 4, 4),    // hit
      Col(true, 0.95, 1, -1),   // clean column flagged
      Col(true, 0.90, 3, 5),    // injected at row 5, flagged row 3
      Col(false, 0.0, 0, -1),   // clean, nothing flagged
  };
  EXPECT_DOUBLE_EQ(PrecisionAtK(cols), 1.0 / 3.0);
}

TEST(PrecisionAtKTest, TiesKeepColumnOrderAndMissingSlotsMiss) {
  // K = 2; both findings tie at 0.8, so column order decides: column 0
  // (miss) ranks before column 1 (hit). Only two findings exist for K = 2.
  std::vector<EvalColumn> tie = {Col(true, 0.8, 0, 1), Col(true, 0.8, 1, 1)};
  EXPECT_DOUBLE_EQ(PrecisionAtK(tie), 0.5);
  // K = 2 but only one finding (a hit): 1 of 2 slots.
  std::vector<EvalColumn> sparse = {Col(true, 0.7, 3, 3), Col(false, 0, 0, 0)};
  EXPECT_DOUBLE_EQ(PrecisionAtK(sparse), 0.5);
  // Nothing injected: undefined.
  EXPECT_TRUE(std::isnan(PrecisionAtK({Col(true, 0.9, 0, -1)})));
}

TEST(RatioTest, PerColumnRatios) {
  // 3 distinct values -> 6 pairs with self; 2 key rows -> 3 pairs.
  EXPECT_EQ(PairsWithSelf(3), 6u);
  EXPECT_EQ(PairsWithSelf(2), 3u);
  EXPECT_EQ(PairsWithSelf(0), 0u);
  // Two columns: (21 distinct, 5 rows) and (1, 1): (231 + 1) / (15 + 1).
  EXPECT_DOUBLE_EQ(Ratio(PairsWithSelf(21) + PairsWithSelf(1),
                         PairsWithSelf(5) + PairsWithSelf(1)),
                   232.0 / 16.0);
  EXPECT_EQ(Ratio(5, 0), 0.0);
  EXPECT_EQ(Ratio(4800, 16), 300.0);
}

TEST(HistogramDeltaTest, QuantilesCoverOnlyTheWindow) {
  autodetect::Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);  // before the window
  const autodetect::HistogramSnapshot before = h.Snapshot();
  for (int i = 0; i < 10; ++i) h.Record(10);     // the window
  const autodetect::HistogramSnapshot after = h.Snapshot();
  const autodetect::HistogramSnapshot delta = HistogramDelta(before, after);
  EXPECT_EQ(delta.count, 10u);
  EXPECT_EQ(delta.sum, 100u);
  EXPECT_EQ(delta.ValueAtQuantile(0.99), 10u);
  // The whole history would have said 1000.
  EXPECT_EQ(after.ValueAtQuantile(0.99), 1000u);
}

}  // namespace
}  // namespace perfbench
