#ifndef PSTORE_COMMON_TIME_SERIES_H_
#define PSTORE_COMMON_TIME_SERIES_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace pstore {

// A regularly-sampled univariate time series (e.g., requests per minute).
// The slot duration is carried alongside the samples so that consumers
// (predictors, planners) can convert between slot indices and wall time.
class TimeSeries {
 public:
  TimeSeries() : slot_seconds_(60.0) {}
  explicit TimeSeries(double slot_seconds) : slot_seconds_(slot_seconds) {}
  TimeSeries(double slot_seconds, std::vector<double> values)
      : slot_seconds_(slot_seconds), values_(std::move(values)) {}

  double slot_seconds() const { return slot_seconds_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }

  const std::vector<double>& values() const { return values_; }

  void Append(double value) { values_.push_back(value); }

  // Returns the sub-series [begin, end). Requires begin <= end <= size().
  TimeSeries Slice(size_t begin, size_t end) const;

  // Returns a series whose slot duration is `factor` times coarser, each
  // new sample being the sum of `factor` consecutive samples. A trailing
  // partial window is dropped. Requires factor >= 1.
  TimeSeries DownsampleSum(size_t factor) const;

  // Same, but each new sample is the mean of the window.
  TimeSeries DownsampleMean(size_t factor) const;

  // Elementwise scale (returns a new series).
  TimeSeries Scaled(double factor) const;

  double Min() const;
  double Max() const;
  double Mean() const;
  double StdDev() const;

 private:
  double slot_seconds_;
  std::vector<double> values_;
};

// Mean absolute error. The two series must have equal length and be
// non-empty.
StatusOr<double> MeanAbsoluteError(const std::vector<double>& actual,
                                   const std::vector<double>& predicted);

// Root mean squared error. Same preconditions as MeanAbsoluteError.
StatusOr<double> RootMeanSquaredError(const std::vector<double>& actual,
                                      const std::vector<double>& predicted);

// Sample autocorrelation of the series at the given lag, in [-1, 1].
// Requires 1 <= lag < series.size() and a non-constant series.
StatusOr<double> Autocorrelation(const TimeSeries& series, size_t lag);

// Finds the lag in [min_lag, max_lag] with the highest autocorrelation —
// a cheap periodicity detector for picking a predictor's period from a
// raw trace. Requires max_lag < series.size() / 2 for a stable estimate.
StatusOr<size_t> DetectPeriod(const TimeSeries& series, size_t min_lag,
                              size_t max_lag);

}  // namespace pstore

#endif  // PSTORE_COMMON_TIME_SERIES_H_
