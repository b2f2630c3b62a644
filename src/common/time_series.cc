#include "common/time_series.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/status.h"

namespace pstore {

TimeSeries TimeSeries::Slice(size_t begin, size_t end) const {
  PSTORE_CHECK(begin <= end && end <= values_.size());
  return TimeSeries(slot_seconds_,
                    std::vector<double>(values_.begin() + begin,
                                        values_.begin() + end));
}

TimeSeries TimeSeries::DownsampleSum(size_t factor) const {
  PSTORE_CHECK(factor >= 1);
  TimeSeries out(slot_seconds_ * static_cast<double>(factor));
  for (size_t i = 0; i + factor <= values_.size(); i += factor) {
    double sum = 0.0;
    for (size_t j = 0; j < factor; ++j) sum += values_[i + j];
    out.Append(sum);
  }
  return out;
}

TimeSeries TimeSeries::DownsampleMean(size_t factor) const {
  TimeSeries out = DownsampleSum(factor);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] /= static_cast<double>(factor);
  }
  return out;
}

TimeSeries TimeSeries::Scaled(double factor) const {
  TimeSeries out(slot_seconds_, values_);
  for (auto& v : out.values_) v *= factor;
  return out;
}

double TimeSeries::Min() const {
  PSTORE_CHECK(!values_.empty());
  return *std::min_element(values_.begin(), values_.end());
}

double TimeSeries::Max() const {
  PSTORE_CHECK(!values_.empty());
  return *std::max_element(values_.begin(), values_.end());
}

double TimeSeries::Mean() const {
  PSTORE_CHECK(!values_.empty());
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double TimeSeries::StdDev() const {
  PSTORE_CHECK(!values_.empty());
  const double mean = Mean();
  double sq = 0.0;
  for (double v : values_) sq += (v - mean) * (v - mean);
  return std::sqrt(sq / static_cast<double>(values_.size()));
}

StatusOr<double> MeanAbsoluteError(const std::vector<double>& actual,
                                   const std::vector<double>& predicted) {
  if (actual.size() != predicted.size() || actual.empty()) {
    return Status::InvalidArgument("series lengths differ or empty");
  }
  double sum = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    sum += std::abs(predicted[i] - actual[i]);
  }
  return sum / static_cast<double>(actual.size());
}

StatusOr<double> RootMeanSquaredError(const std::vector<double>& actual,
                                      const std::vector<double>& predicted) {
  if (actual.size() != predicted.size() || actual.empty()) {
    return Status::InvalidArgument("series lengths differ or empty");
  }
  double sum = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    const double d = predicted[i] - actual[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(actual.size()));
}

StatusOr<double> Autocorrelation(const TimeSeries& series, size_t lag) {
  const size_t n = series.size();
  if (lag < 1 || lag >= n) {
    return Status::InvalidArgument("lag must be in [1, size)");
  }
  const double mean = series.Mean();
  double denom = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = series[i] - mean;
    denom += d * d;
  }
  if (denom <= 0.0) {
    return Status::InvalidArgument("constant series has no autocorrelation");
  }
  double numer = 0.0;
  for (size_t i = 0; i + lag < n; ++i) {
    numer += (series[i] - mean) * (series[i + lag] - mean);
  }
  return numer / denom;
}

StatusOr<size_t> DetectPeriod(const TimeSeries& series, size_t min_lag,
                              size_t max_lag) {
  if (min_lag < 1 || min_lag > max_lag) {
    return Status::InvalidArgument("need 1 <= min_lag <= max_lag");
  }
  if (max_lag >= series.size() / 2) {
    return Status::InvalidArgument("max_lag too large for series length");
  }
  std::vector<double> acf(max_lag + 1, 0.0);
  for (size_t lag = min_lag; lag <= max_lag; ++lag) {
    StatusOr<double> ac = Autocorrelation(series, lag);
    if (!ac.ok()) return ac.status();
    acf[lag] = *ac;
  }
  // The ACF always starts high at short lags and decays; the period is
  // the peak *after the first dip*, not the raw maximum. Find the first
  // local minimum, then the global maximum beyond it.
  size_t dip = max_lag;
  for (size_t lag = min_lag + 1; lag <= max_lag; ++lag) {
    if (acf[lag] > acf[lag - 1] + 1e-9) {
      dip = lag - 1;
      break;
    }
  }
  size_t best_lag = min_lag;
  double best = -2.0;
  for (size_t lag = dip; lag <= max_lag; ++lag) {
    if (acf[lag] > best) {
      best = acf[lag];
      best_lag = lag;
    }
  }
  return best_lag;
}

}  // namespace pstore
