#include "prediction/spar_model.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

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

// Parses all of `token` as a decimal size_t (no sign, no trailing text).
bool ParseSize(const std::string& token, size_t* out) {
  const char* end = token.data() + token.size();
  const std::from_chars_result parsed =
      std::from_chars(token.data(), end, *out);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

Status MissingTau(size_t tau, const std::string& path) {
  return Status::InvalidArgument("missing coefficients for tau " +
                                 std::to_string(tau) + " in " + path);
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

size_t SparPredictor::FittedIndexFor(size_t tau) const {
  if (options_.tau_stride == 1) return tau - 1;
  // Fitted taus are 1, 1+stride, 1+2*stride, ...; snap to the nearest.
  const size_t stride = options_.tau_stride;
  const size_t index = (tau - 1 + stride / 2) / stride;
  return 1 + index * stride <= options_.max_tau ? index : index - 1;
}

size_t SparPredictor::MinHistory() const {
  // The most demanding lag is dy(t - m), which reaches back
  // m + n*T slots from "now" (index size-1).
  return options_.num_periods * options_.period + options_.num_recent + 1;
}

// Builds each fitted tau's normal equations straight from the series,
// with every Gram and A^T b entry summing the same products, in the same
// row order and with the same zero-skips, as Matrix::TransposeTimesSelf
// and TransposeTimesVector over the design matrix
//   row r:  [y(p - T) .. y(p - nT), dy(t - 1) .. dy(t - m)],  target y(p)
// with t = nT + m + r and p = t + tau, so the coefficients are the ones
// SolveLeastSquares would return. Row r's recent offsets depend on t
// alone, and tau's rows are the prefix r < size - (nT + m + tau), so the
// recent x recent block (465 of 703 entries at n = 7, m = 30) is one
// running sum over t, read off at each tau's last row.
Status SparPredictor::Fit(const TimeSeries& training) {
  const size_t n = options_.num_periods;
  const size_t m = options_.num_recent;
  const size_t period = options_.period;
  const size_t stride = options_.tau_stride;
  const size_t cols = n + m;
  const size_t size = training.size();
  if (n * period >= size) {
    return Status::InvalidArgument("SPAR: training series too short");
  }

  // The fitted taus 1, 1 + stride, ... whose shapes pass come first. The
  // first that fails ends them; its error is returned after the taus
  // before it are solved, so a singular system among those comes first.
  const size_t first_t = n * period + m;
  size_t taus = 0;
  Status shape = Status::OK();
  for (size_t tau = 1; tau <= options_.max_tau; tau += stride) {
    if (first_t + tau >= size) {
      shape = Status::InvalidArgument(
          "SPAR: training series too short (" + std::to_string(size) +
          " slots, need > " + std::to_string(first_t + tau) + ")");
      break;
    }
    shape = CheckLeastSquaresRows(size - first_t - tau, cols);
    if (!shape.ok()) break;
    ++taus;
  }
  if (taus == 0) return shape;
  // Rows of the q-th fitted tau, 1 + q * stride.
  const auto rows_of = [&](size_t q) {
    return size - first_t - 1 - q * stride;
  };

  // dy(idx) newest first, so row t's offsets dy(t - 1) .. dy(t - m) are
  // the m values from newest_first[size - t] on.
  std::vector<double> newest_first(size - n * period);
  for (size_t idx = n * period; idx < size; ++idx) {
    newest_first[size - 1 - idx] = RecentOffset(training, idx, period, n);
  }

  // The recent block's running sum (upper triangle of an m x m array),
  // copied packed into tau q's snapshot after its last row. Larger taus
  // end sooner, so the snapshots fill from the last q down.
  const size_t block = m * (m + 1) / 2;
  std::vector<double> recent_sum(m * m, 0.0);
  std::vector<double> snapshots(taus * block);
  size_t pending = taus;
  for (size_t r = 0; pending > 0; ++r) {
    const double* recent = &newest_first[size - (first_t + r)];
    for (size_t a = 0; a < m; ++a) {
      const double ra = recent[a];
      if (ra == 0.0) continue;
      for (size_t b = a; b < m; ++b) recent_sum[a * m + b] += ra * recent[b];
    }
    if (rows_of(pending - 1) == r + 1) {
      double* snapshot = &snapshots[(pending - 1) * block];
      for (size_t a = 0; a < m; ++a) {
        for (size_t b = a; b < m; ++b) *snapshot++ = recent_sum[a * m + b];
      }
      --pending;
    }
  }

  // Per tau: the periodic rows of the Gram (periodic x periodic and
  // periodic x recent) and A^T b, then the snapshot and the mirror.
  std::vector<std::vector<double>> solved;
  solved.reserve(taus);
  std::vector<double> lags(n);
  for (size_t q = 0; q < taus; ++q) {
    const size_t tau = 1 + q * stride;
    Matrix gram(cols, cols);
    std::vector<double> atb(cols, 0.0);
    for (size_t r = 0; r < rows_of(q); ++r) {
      const size_t t = first_t + r;
      const size_t p = t + tau;
      for (size_t k = 1; k <= n; ++k) lags[k - 1] = training[p - k * period];
      const double* recent = &newest_first[size - t];
      for (size_t i = 0; i < n; ++i) {
        const double li = lags[i];
        if (li == 0.0) continue;
        for (size_t j = i; j < n; ++j) gram.At(i, j) += li * lags[j];
        for (size_t b = 0; b < m; ++b) gram.At(i, n + b) += li * recent[b];
      }
      const double target = training[p];
      if (target == 0.0) continue;
      for (size_t k = 0; k < n; ++k) atb[k] += lags[k] * target;
      for (size_t b = 0; b < m; ++b) atb[n + b] += recent[b] * target;
    }
    const double* snapshot = &snapshots[q * block];
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = a; b < m; ++b) gram.At(n + a, n + b) = *snapshot++;
    }
    for (size_t i = 0; i < cols; ++i) {
      for (size_t j = 0; j < i; ++j) gram.At(i, j) = gram.At(j, i);
    }
    StatusOr<std::vector<double>> coef =
        SolveNormalEquations(std::move(gram), atb, options_.ridge);
    if (!coef.ok()) return coef.status();
    solved.push_back(std::move(*coef));
  }
  if (!shape.ok()) return shape;

  // Commit only now: a failed refit keeps the previous fit.
  coefficients_ = std::move(solved);
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
  const std::vector<double>& coef = coefficients_[FittedIndexFor(tau)];
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
    const std::vector<double>& coef = coefficients_[FittedIndexFor(tau)];
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
  for (size_t q = 0; q < coefficients_.size(); ++q) {
    out << 1 + q * options_.tau_stride;
    for (const double c : coefficients_[q]) {
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
    size_t* const fields[] = {&options.period, &options.num_periods,
                              &options.num_recent, &options.max_tau,
                              &options.tau_stride};
    size_t parsed = 0;
    std::string token;
    while (header >> token) {
      if (parsed == std::size(fields) || !ParseSize(token, fields[parsed])) {
        return Status::InvalidArgument("malformed model header: " + path);
      }
      ++parsed;
    }
    if (parsed != std::size(fields)) {
      return Status::InvalidArgument("malformed model header: " + path);
    }
  }
  if (options.period < 1 || options.num_periods < 1 ||
      options.num_recent < 1 || options.max_tau < 1 ||
      options.tau_stride < 1) {
    return Status::InvalidArgument("invalid model options: " + path);
  }
  // n * T + m + 1 (MinHistory) and the row width n + m must not wrap.
  const size_t n = options.num_periods;
  const size_t m = options.num_recent;
  if (n > (std::numeric_limits<size_t>::max() - m - 1) / options.period) {
    return Status::InvalidArgument("invalid model options: " + path);
  }
  const size_t cols = n + m;
  const size_t stride = options.tau_stride;
  const size_t fitted = (options.max_tau - 1) / stride + 1;
  // The rows list the fitted taus 1, 1 + stride, ... in order, one each,
  // and the table grows only as they are read, so a header alone cannot
  // ask for memory.
  SparPredictor model(options);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string token;
    row >> token;
    size_t tau = 0;
    if (!ParseSize(token, &tau)) {
      return Status::InvalidArgument("malformed coefficient row: " + path);
    }
    const size_t loaded = model.coefficients_.size();
    if (loaded == fitted) {
      return Status::InvalidArgument("coefficients past the last fitted tau " +
                                     std::to_string(1 + (fitted - 1) * stride) +
                                     " in " + path);
    }
    if (tau != 1 + loaded * stride) {
      return MissingTau(1 + loaded * stride, path);
    }
    std::vector<double> coef;
    while (coef.size() <= cols && row >> token) {
      char* end = nullptr;
      const double value = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0' || !std::isfinite(value)) {
        return Status::InvalidArgument("malformed coefficient '" + token +
                                       "' in " + path);
      }
      coef.push_back(value);
    }
    if (coef.size() != cols) {
      return Status::InvalidArgument("coefficient count mismatch in " + path);
    }
    model.coefficients_.push_back(std::move(coef));
  }
  if (model.coefficients_.empty()) {
    return Status::InvalidArgument("model file has no coefficients: " + path);
  }
  if (model.coefficients_.size() < fitted) {
    return MissingTau(1 + model.coefficients_.size() * stride, path);
  }
  model.fitted_ = true;
  return model;
}

const std::vector<double>& SparPredictor::CoefficientsFor(size_t tau) const {
  PSTORE_CHECK(fitted_);
  PSTORE_CHECK(tau >= 1 && tau <= options_.max_tau);
  return coefficients_[FittedIndexFor(tau)];
}

}  // namespace pstore
