#include "prediction/arma_model.h"

#include <algorithm>
#include <string>

#include "common/linalg.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/time_series.h"

namespace pstore {

ArmaPredictor::ArmaPredictor(const ArmaOptions& options) : options_(options) {
  PSTORE_CHECK(options_.ar_order >= 1);
  PSTORE_CHECK(options_.ma_order >= 1);
  PSTORE_CHECK(options_.long_ar_order >=
               options_.ar_order + options_.ma_order);
}

double ArmaPredictor::LongArResidual(const std::vector<double>& long_ar,
                                     const TimeSeries& series, size_t idx) {
  const size_t lag = long_ar.size() - 1;
  PSTORE_CHECK(idx >= lag);
  double fitted = long_ar[0];
  for (size_t i = 1; i <= lag; ++i) {
    fitted += long_ar[i] * series[idx - i];
  }
  return series[idx] - fitted;
}

Status ArmaPredictor::Fit(const TimeSeries& training) {
  const size_t p = options_.ar_order;
  const size_t q = options_.ma_order;
  const size_t lag = options_.long_ar_order;
  if (training.size() < lag + q + p + 2) {
    return Status::InvalidArgument("ARMA: training series too short");
  }

  // Both stages solve into locals and commit together at the end, so a
  // refit that fails in either stage keeps the previous fit.
  // Stage 1: long auto-regression for innovation estimates.
  std::vector<double> long_ar;
  {
    const size_t rows = training.size() - lag;
    Matrix a(rows, lag + 1);
    std::vector<double> b(rows);
    for (size_t r = 0; r < rows; ++r) {
      const size_t target = lag + r;
      a.At(r, 0) = 1.0;
      for (size_t i = 1; i <= lag; ++i) {
        a.At(r, i) = training[target - i];
      }
      b[r] = training[target];
    }
    StatusOr<std::vector<double>> solved =
        SolveLeastSquares(a, b, options_.ridge);
    if (!solved.ok()) return solved.status();
    long_ar = std::move(*solved);
  }

  // Residuals for all indices where the long AR is defined.
  std::vector<double> eps(training.size(), 0.0);
  for (size_t idx = lag; idx < training.size(); ++idx) {
    eps[idx] = LongArResidual(long_ar, training, idx);
  }

  // Stage 2: regress y(t) on AR lags and innovation lags.
  std::vector<double> coefficients;
  {
    const size_t first = lag + q;  // eps lags must be defined
    const size_t rows = training.size() - first;
    Matrix a(rows, 1 + p + q);
    std::vector<double> b(rows);
    for (size_t r = 0; r < rows; ++r) {
      const size_t target = first + r;
      a.At(r, 0) = 1.0;
      for (size_t i = 1; i <= p; ++i) {
        a.At(r, i) = training[target - i];
      }
      for (size_t j = 1; j <= q; ++j) {
        a.At(r, p + j) = eps[target - j];
      }
      b[r] = training[target];
    }
    StatusOr<std::vector<double>> solved =
        SolveLeastSquares(a, b, options_.ridge);
    if (!solved.ok()) return solved.status();
    coefficients = std::move(*solved);
  }
  long_ar_ = std::move(long_ar);
  coefficients_ = std::move(coefficients);
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> ArmaPredictor::PredictAhead(const TimeSeries& history,
                                             size_t tau) const {
  StatusOr<std::vector<double>> horizon = PredictHorizon(history, tau);
  if (!horizon.ok()) return horizon.status();
  return horizon->back();
}

StatusOr<std::vector<double>> ArmaPredictor::PredictHorizon(
    const TimeSeries& history, size_t horizon) const {
  if (!fitted_) return Status::FailedPrecondition("ARMA: not fitted");
  if (horizon == 0) {
    return Status::InvalidArgument("ARMA: horizon must be >= 1");
  }
  const size_t p = options_.ar_order;
  const size_t q = options_.ma_order;
  const size_t lag = options_.long_ar_order;
  if (history.size() < lag + std::max(p, q) + 1) {
    return Status::InvalidArgument("ARMA: history too short");
  }

  // Estimated innovations for the last q observed slots (oldest first).
  std::vector<double> eps_window(q);
  for (size_t j = 0; j < q; ++j) {
    eps_window[j] =
        LongArResidual(long_ar_, history, history.size() - q + j);
  }
  // Most recent p observations (oldest first).
  std::vector<double> y_window(p);
  for (size_t i = 0; i < p; ++i) {
    y_window[i] = history[history.size() - p + i];
  }

  std::vector<double> out;
  out.reserve(horizon);
  for (size_t step = 0; step < horizon; ++step) {
    double next = coefficients_[0];
    for (size_t i = 1; i <= p; ++i) {
      next += coefficients_[i] * y_window[p - i];
    }
    for (size_t j = 1; j <= q; ++j) {
      next += coefficients_[p + j] * eps_window[q - j];
    }
    out.push_back(next);
    // Fixed-size sliding windows: the erases keep capacity, so the
    // push_backs never reallocate.
    y_window.erase(y_window.begin());
    y_window.push_back(next);  // pstore-analyze: allow(hot-path-perf)
    // Future innovations are unknown: expected value zero.
    eps_window.erase(eps_window.begin());
    eps_window.push_back(0.0);  // pstore-analyze: allow(hot-path-perf)
  }
  return out;
}

}  // namespace pstore
