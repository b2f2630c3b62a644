#include "common/time_series.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/status.h"

namespace pstore {
namespace {

TEST(TimeSeriesTest, DefaultSlotIsOneMinute) {
  TimeSeries series;
  EXPECT_EQ(series.slot_seconds(), 60.0);
  EXPECT_TRUE(series.empty());
}

TEST(TimeSeriesTest, AppendAndIndex) {
  TimeSeries series(1.0);
  series.Append(3.0);
  series.Append(5.0);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0], 3.0);
  EXPECT_EQ(series[1], 5.0);
  series[1] = 7.0;
  EXPECT_EQ(series[1], 7.0);
}

TEST(TimeSeriesTest, SliceReturnsSubrange) {
  TimeSeries series(1.0, {0, 1, 2, 3, 4, 5});
  TimeSeries slice = series.Slice(2, 5);
  ASSERT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice[0], 2.0);
  EXPECT_EQ(slice[2], 4.0);
  EXPECT_EQ(slice.slot_seconds(), 1.0);
}

TEST(TimeSeriesTest, SliceEmpty) {
  TimeSeries series(1.0, {1, 2, 3});
  EXPECT_EQ(series.Slice(1, 1).size(), 0u);
}

TEST(TimeSeriesTest, DownsampleSum) {
  TimeSeries series(60.0, {1, 2, 3, 4, 5, 6, 7});
  TimeSeries down = series.DownsampleSum(3);
  ASSERT_EQ(down.size(), 2u);  // trailing partial window dropped
  EXPECT_EQ(down[0], 6.0);
  EXPECT_EQ(down[1], 15.0);
  EXPECT_EQ(down.slot_seconds(), 180.0);
}

TEST(TimeSeriesTest, DownsampleMean) {
  TimeSeries series(60.0, {2, 4, 6, 8});
  TimeSeries down = series.DownsampleMean(2);
  ASSERT_EQ(down.size(), 2u);
  EXPECT_EQ(down[0], 3.0);
  EXPECT_EQ(down[1], 7.0);
}

TEST(TimeSeriesTest, DownsampleFactorOneIsIdentity) {
  TimeSeries series(60.0, {2, 4, 6});
  TimeSeries down = series.DownsampleSum(1);
  ASSERT_EQ(down.size(), 3u);
  EXPECT_EQ(down[2], 6.0);
}

TEST(TimeSeriesTest, ScaledMultipliesValues) {
  TimeSeries series(60.0, {1, 2});
  TimeSeries scaled = series.Scaled(2.5);
  EXPECT_EQ(scaled[0], 2.5);
  EXPECT_EQ(scaled[1], 5.0);
  // Original untouched.
  EXPECT_EQ(series[0], 1.0);
}

TEST(TimeSeriesTest, Statistics) {
  TimeSeries series(1.0, {2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_EQ(series.Min(), 2.0);
  EXPECT_EQ(series.Max(), 9.0);
  EXPECT_EQ(series.Mean(), 5.0);
  EXPECT_NEAR(series.StdDev(), 2.0, 1e-12);
}

TEST(MetricsTest, MaeAndRmse) {
  const std::vector<double> actual = {1, 2, 3};
  const std::vector<double> predicted = {2, 2, 1};
  StatusOr<double> mae = MeanAbsoluteError(actual, predicted);
  ASSERT_TRUE(mae.ok());
  EXPECT_NEAR(*mae, (1 + 0 + 2) / 3.0, 1e-12);
  StatusOr<double> rmse = RootMeanSquaredError(actual, predicted);
  ASSERT_TRUE(rmse.ok());
  EXPECT_NEAR(*rmse, std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-12);
}

TEST(MetricsTest, EmptySeriesFail) {
  EXPECT_FALSE(MeanAbsoluteError({}, {}).ok());
  EXPECT_FALSE(RootMeanSquaredError({}, {}).ok());
}

TEST(MetricsTest, PerfectPredictionIsZeroError) {
  const std::vector<double> values = {5, 10, 15};
  EXPECT_EQ(*MeanAbsoluteError(values, values), 0.0);
  EXPECT_EQ(*RootMeanSquaredError(values, values), 0.0);
}


TEST(AutocorrelationTest, PerfectPeriodicityPeaksAtPeriod) {
  TimeSeries series(1.0);
  for (int i = 0; i < 480; ++i) {
    series.Append(std::sin(2.0 * M_PI * i / 48.0));
  }
  StatusOr<double> at_period = Autocorrelation(series, 48);
  StatusOr<double> at_half = Autocorrelation(series, 24);
  ASSERT_TRUE(at_period.ok());
  ASSERT_TRUE(at_half.ok());
  EXPECT_GT(*at_period, 0.85);
  EXPECT_LT(*at_half, -0.5);  // anti-phase
}

TEST(AutocorrelationTest, RejectsBadInputs) {
  TimeSeries series(1.0, {1, 2, 3, 4});
  EXPECT_FALSE(Autocorrelation(series, 0).ok());
  EXPECT_FALSE(Autocorrelation(series, 4).ok());
  TimeSeries constant(1.0, {5, 5, 5, 5});
  EXPECT_FALSE(Autocorrelation(constant, 1).ok());
}

TEST(DetectPeriodTest, FindsSinusoidPeriodDespiteShortLagMass) {
  // Add slow drift so short lags have high raw autocorrelation; the
  // detector must still find the true 48-slot period.
  TimeSeries series(1.0);
  double drift = 0.0;
  for (int i = 0; i < 960; ++i) {
    drift = 0.98 * drift + ((i * 2654435761u) % 100) / 5000.0 - 0.01;
    series.Append(std::sin(2.0 * M_PI * i / 48.0) + drift);
  }
  StatusOr<size_t> period = DetectPeriod(series, 2, 100);
  ASSERT_TRUE(period.ok());
  EXPECT_NEAR(static_cast<double>(*period), 48.0, 2.0);
}

TEST(DetectPeriodTest, ValidatesArguments) {
  TimeSeries series(1.0, std::vector<double>(50, 1.0));
  EXPECT_FALSE(DetectPeriod(series, 0, 10).ok());
  EXPECT_FALSE(DetectPeriod(series, 5, 4).ok());
  EXPECT_FALSE(DetectPeriod(series, 2, 30).ok());  // max_lag >= size/2
}

}  // namespace
}  // namespace pstore
