#include "prediction/spar_model.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/linalg.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/time_series.h"

namespace pstore {
namespace {

// Computes dy(idx) = y(idx) - (1/n) sum_{k=1..n} y(idx - kT).
// Requires idx - n*period >= 0.
double RecentOffset(const TimeSeries& series, size_t idx, size_t period,
                    size_t num_periods) {
  double periodic_mean = 0.0;
  for (size_t k = 1; k <= num_periods; ++k) {
    periodic_mean += series[idx - k * period];
  }
  periodic_mean /= static_cast<double>(num_periods);
  return series[idx] - periodic_mean;
}

// Eq. 8 for the predicted index p: the periodic lags, then the recent
// offsets dy(t - j) for j = 1..m as returned by `offset(j)`. Both
// prediction paths sum in this one order, so they agree bit for bit.
template <typename OffsetFn>
double SparSum(const std::vector<double>& coef, const TimeSeries& history,
               size_t p, size_t period, size_t n, size_t m,
               OffsetFn offset) {
  double prediction = 0.0;
  for (size_t k = 1; k <= n; ++k) {
    prediction += coef[k - 1] * history[p - k * period];
  }
  for (size_t j = 1; j <= m; ++j) {
    prediction += coef[n + j - 1] * offset(j);
  }
  return prediction;
}

Status TauOutOfRange(size_t tau, size_t max_tau) {
  return Status::OutOfRange("SPAR: tau " + std::to_string(tau) +
                            " outside fitted range [1, " +
                            std::to_string(max_tau) + "]");
}

// The periodic lags p - k*period must be observed, i.e. <= t. Since
// tau <= max_tau <= period is not guaranteed, the predictors check it.
bool PeriodicLagsObserved(size_t t, size_t p, size_t period, size_t n) {
  return p >= n * period && p - period <= t;
}

Status UnobservedLag() {
  return Status::InvalidArgument(
      "SPAR: tau exceeds one period; periodic lag unobserved");
}

}  // namespace

SparPredictor::SparPredictor(const SparOptions& options) : options_(options) {
  PSTORE_CHECK(options_.period >= 1);
  PSTORE_CHECK(options_.num_periods >= 1);
  PSTORE_CHECK(options_.num_recent >= 1);
  PSTORE_CHECK(options_.max_tau >= 1);
  PSTORE_CHECK(options_.tau_stride >= 1);
}

size_t SparPredictor::FittedTauFor(size_t tau) const {
  if (options_.tau_stride == 1) return tau;
  // Fitted taus are 1, 1+stride, 1+2*stride, ...; snap to the nearest.
  const size_t stride = options_.tau_stride;
  const size_t index = (tau - 1 + stride / 2) / stride;
  size_t fitted = 1 + index * stride;
  if (fitted > options_.max_tau) fitted -= stride;
  return fitted;
}

size_t SparPredictor::MinHistory() const {
  // The most demanding lag is dy(t - m), which reaches back
  // m + n*T slots from "now" (index size-1).
  return options_.num_periods * options_.period + options_.num_recent + 1;
}

Status SparPredictor::Fit(const TimeSeries& training) {
  const size_t n = options_.num_periods;
  const size_t m = options_.num_recent;
  const size_t period = options_.period;
  const size_t cols = n + m;

  // dy(idx) is independent of tau; precompute it once for all valid idx.
  std::vector<double> offsets(training.size(), 0.0);
  const size_t first_offset_idx = n * period;
  if (first_offset_idx >= training.size()) {
    return Status::InvalidArgument("SPAR: training series too short");
  }
  for (size_t idx = first_offset_idx; idx < training.size(); ++idx) {
    offsets[idx] = RecentOffset(training, idx, period, n);
  }

  coefficients_.assign(options_.max_tau, {});
  for (size_t tau = 1; tau <= options_.max_tau;
       tau += options_.tau_stride) {
    // Predicted index p = t + tau. The features need:
    //   periodic: p - k*period      >= 0  for k <= n
    //   recent:   p - tau - j - n*period >= 0  for j <= m
    const size_t first_p = n * period + m + tau;
    if (first_p >= training.size()) {
      return Status::InvalidArgument(
          "SPAR: training series too short (" +
          std::to_string(training.size()) + " slots, need > " +
          std::to_string(first_p) + ")");
    }
    const size_t rows = training.size() - first_p;
    Matrix a(rows, cols);
    std::vector<double> b(rows);
    for (size_t r = 0; r < rows; ++r) {
      const size_t p = first_p + r;
      for (size_t k = 1; k <= n; ++k) {
        a.At(r, k - 1) = training[p - k * period];
      }
      const size_t t = p - tau;
      for (size_t j = 1; j <= m; ++j) {
        a.At(r, n + j - 1) = offsets[t - j];
      }
      b[r] = training[p];
    }
    StatusOr<std::vector<double>> solved =
        SolveLeastSquares(a, b, options_.ridge);
    if (!solved.ok()) return solved.status();
    coefficients_[tau - 1] = std::move(*solved);
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> SparPredictor::PredictAhead(const TimeSeries& history,
                                             size_t tau) const {
  if (!fitted_) return Status::FailedPrecondition("SPAR: not fitted");
  if (tau < 1 || tau > options_.max_tau) {
    return TauOutOfRange(tau, options_.max_tau);
  }
  if (history.size() < MinHistory()) {
    return Status::InvalidArgument("SPAR: history too short");
  }
  const size_t n = options_.num_periods;
  const size_t period = options_.period;
  const std::vector<double>& coef = coefficients_[FittedTauFor(tau) - 1];
  PSTORE_CHECK(!coef.empty());

  // "Now" is the last observed index; the predicted index is t + tau.
  const size_t t = history.size() - 1;
  const size_t p = t + tau;
  if (!PeriodicLagsObserved(t, p, period, n)) return UnobservedLag();
  return SparSum(coef, history, p, period, n, options_.num_recent,
                 [&](size_t j) {
                   return RecentOffset(history, t - j, period, n);
                 });
}

StatusOr<std::vector<double>> SparPredictor::PredictHorizon(
    const TimeSeries& history, size_t horizon) const {
  // The same checks, in the same order, as looping PredictAhead over
  // tau = 1..horizon; tau = 1 is always inside the fitted range.
  std::vector<double> out;
  if (horizon == 0) return out;
  if (!fitted_) return Status::FailedPrecondition("SPAR: not fitted");
  if (history.size() < MinHistory()) {
    return Status::InvalidArgument("SPAR: history too short");
  }
  const size_t n = options_.num_periods;
  const size_t m = options_.num_recent;
  const size_t period = options_.period;
  const size_t t = history.size() - 1;
  // dy(t - j) does not depend on tau: compute it once for the horizon.
  std::vector<double> offsets(m);
  for (size_t j = 1; j <= m; ++j) {
    offsets[j - 1] = RecentOffset(history, t - j, period, n);
  }
  out.reserve(horizon);
  for (size_t tau = 1; tau <= horizon; ++tau) {
    if (tau > options_.max_tau) return TauOutOfRange(tau, options_.max_tau);
    const std::vector<double>& coef = coefficients_[FittedTauFor(tau) - 1];
    PSTORE_CHECK(!coef.empty());
    const size_t p = t + tau;
    if (!PeriodicLagsObserved(t, p, period, n)) return UnobservedLag();
    out.push_back(SparSum(coef, history, p, period, n, m,
                          [&](size_t j) { return offsets[j - 1]; }));
  }
  return out;
}

Status SparPredictor::SaveToFile(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SPAR: nothing to save (not fitted)");
  }
  std::ofstream out(path);
  if (!out.good()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << "SPARv1\n";
  out << options_.period << ' ' << options_.num_periods << ' '
      << options_.num_recent << ' ' << options_.max_tau << ' '
      << options_.tau_stride << '\n';
  char buf[32];
  for (size_t tau = 1; tau <= options_.max_tau; ++tau) {
    const std::vector<double>& coef = coefficients_[tau - 1];
    if (coef.empty()) continue;  // skipped by tau_stride
    out << tau;
    for (const double c : coef) {
      // Hex floats round-trip exactly.
      std::snprintf(buf, sizeof(buf), " %a", c);
      out << buf;
    }
    out << '\n';
  }
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

StatusOr<SparPredictor> SparPredictor::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::NotFound("cannot open: " + path);
  std::string magic;
  if (!std::getline(in, magic) || magic != "SPARv1") {
    return Status::InvalidArgument("not a SPARv1 model file: " + path);
  }
  SparOptions options;
  {
    std::string line;
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("truncated model header: " + path);
    }
    std::istringstream header(line);
    if (!(header >> options.period >> options.num_periods >>
          options.num_recent >> options.max_tau >> options.tau_stride)) {
      return Status::InvalidArgument("malformed model header: " + path);
    }
  }
  if (options.period < 1 || options.num_periods < 1 ||
      options.num_recent < 1 || options.max_tau < 1 ||
      options.tau_stride < 1) {
    return Status::InvalidArgument("invalid model options: " + path);
  }
  SparPredictor model(options);
  model.coefficients_.assign(options.max_tau, {});
  const size_t cols = options.num_periods + options.num_recent;
  std::string line;
  size_t loaded = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    size_t tau = 0;
    if (!(row >> tau) || tau < 1 || tau > options.max_tau) {
      return Status::InvalidArgument("malformed coefficient row: " + path);
    }
    std::vector<double> coef;
    coef.reserve(cols);
    std::string token;
    while (row >> token) {
      coef.push_back(std::strtod(token.c_str(), nullptr));
    }
    if (coef.size() != cols) {
      return Status::InvalidArgument("coefficient count mismatch in " + path);
    }
    model.coefficients_[tau - 1] = std::move(coef);
    ++loaded;
  }
  if (loaded == 0) {
    return Status::InvalidArgument("model file has no coefficients: " + path);
  }
  // Every stride-aligned tau must be present.
  for (size_t tau = 1; tau <= options.max_tau; tau += options.tau_stride) {
    if (model.coefficients_[tau - 1].empty()) {
      return Status::InvalidArgument("missing coefficients for tau " +
                                     std::to_string(tau) + " in " + path);
    }
  }
  model.fitted_ = true;
  return model;
}

const std::vector<double>& SparPredictor::CoefficientsFor(size_t tau) const {
  PSTORE_CHECK(fitted_);
  PSTORE_CHECK(tau >= 1 && tau <= options_.max_tau);
  return coefficients_[FittedTauFor(tau) - 1];
}

}  // namespace pstore
