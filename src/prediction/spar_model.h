#ifndef PSTORE_PREDICTION_SPAR_MODEL_H_
#define PSTORE_PREDICTION_SPAR_MODEL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "common/time_series.h"
#include "prediction/predictor.h"

namespace pstore {

// Options for Sparse Periodic Auto-Regression (paper §5, Eq. 8).
struct SparOptions {
  // Period T in slots (1440 for per-minute data with a daily cycle, 24
  // for hourly data).
  size_t period = 1440;
  // n: number of previous periods in the periodic component. The paper
  // uses n = 7 (the previous week) for B2W.
  size_t num_periods = 7;
  // m: number of recent load offsets in the transient component. The
  // paper uses m = 30 (the previous 30 minutes) for B2W.
  size_t num_recent = 30;
  // Coefficients are fitted by least squares separately for each
  // forecasting period tau in [1, max_tau], since the optimal mix of the
  // periodic and transient components depends on how far ahead we look.
  size_t max_tau = 60;
  // Fit only every tau_stride-th tau (1, 1+stride, ...); queries use the
  // nearest fitted tau's coefficients. Coefficients vary slowly with
  // tau, so a stride of ~5 cuts fitting cost with little accuracy loss —
  // useful for long horizons refit online.
  size_t tau_stride = 1;
  // Tikhonov damping passed to the least-squares solve.
  double ridge = 1e-8;
};

// SPAR predictor: models the load tau slots ahead as a weighted sum of
// (a) the load at the same time-of-period in the previous n periods and
// (b) the offset of the last m observations from their per-period
// averages:
//
//   y(t+tau) = sum_{k=1..n} a_k y(t+tau-kT) + sum_{j=1..m} b_j dy(t-j)
//   dy(t-j)  = y(t-j) - (1/n) sum_{k=1..n} y(t-j-kT)
//
// Coefficients a_k, b_j are inferred with linear least squares over the
// training window (Eq. 8).
class SparPredictor : public LoadPredictor {
 public:
  explicit SparPredictor(const SparOptions& options);

  Status Fit(const TimeSeries& training) override;
  StatusOr<double> PredictAhead(const TimeSeries& history,
                                size_t tau) const override;
  // Equal, value and Status, to the base class's PredictAhead loop; the
  // recent offsets dy(t - j) are computed once instead of once per tau.
  StatusOr<std::vector<double>> PredictHorizon(const TimeSeries& history,
                                               size_t horizon) const override;
  std::string name() const override { return "SPAR"; }

  // Minimum history length required to form one prediction.
  size_t MinHistory() const;

  // Fitted coefficient vector [a_1..a_n, b_1..b_m] for the given tau.
  // Requires Fit() to have succeeded and 1 <= tau <= max_tau.
  const std::vector<double>& CoefficientsFor(size_t tau) const;

  // Persistence: the paper's §6 workflow learns parameters offline and
  // serves them online. SaveToFile writes a self-describing text format;
  // LoadFromFile restores a ready-to-predict model (options included).
  Status SaveToFile(const std::string& path) const;
  static StatusOr<SparPredictor> LoadFromFile(const std::string& path);

 private:
  // The index in coefficients_ of the fitted tau nearest to the
  // requested one (tau - 1 when tau_stride == 1).
  size_t FittedIndexFor(size_t tau) const;

  SparOptions options_;
  bool fitted_ = false;
  // coefficients_[q] holds [a_1..a_n, b_1..b_m] for the q-th fitted tau,
  // 1 + q * tau_stride.
  std::vector<std::vector<double>> coefficients_;
};

}  // namespace pstore

#endif  // PSTORE_PREDICTION_SPAR_MODEL_H_
