#ifndef PSTORE_PREDICTION_ARMA_MODEL_H_
#define PSTORE_PREDICTION_ARMA_MODEL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "common/time_series.h"
#include "prediction/predictor.h"

namespace pstore {

// Options for the ARMA(p, q) baseline.
struct ArmaOptions {
  size_t ar_order = 30;  // p
  size_t ma_order = 10;  // q
  // Order of the long auto-regression used to estimate innovations in the
  // Hannan-Rissanen procedure. Must be >= ar_order + ma_order.
  size_t long_ar_order = 60;
  double ridge = 1e-8;
};

// ARMA(p, q) fitted with the two-stage Hannan-Rissanen method:
//   1. Fit a long AR model and compute its residuals as innovation
//      estimates eps(t).
//   2. Regress y(t) on [1, y(t-1..t-p), eps(t-1..t-q)].
// Multi-step forecasts iterate the model with future innovations set to
// zero; innovations for observed history are re-estimated from the long
// AR model at prediction time.
class ArmaPredictor : public LoadPredictor {
 public:
  explicit ArmaPredictor(const ArmaOptions& options);

  Status Fit(const TimeSeries& training) override;
  StatusOr<double> PredictAhead(const TimeSeries& history,
                                size_t tau) const override;
  StatusOr<std::vector<double>> PredictHorizon(
      const TimeSeries& history, size_t horizon) const override;
  std::string name() const override { return "ARMA"; }

 private:
  // Residual at index `idx` of `series` of the long AR model with
  // coefficients `long_ar` ([c, phi_1..phi_L]).
  static double LongArResidual(const std::vector<double>& long_ar,
                               const TimeSeries& series, size_t idx);

  ArmaOptions options_;
  bool fitted_ = false;
  std::vector<double> long_ar_;  // [c, phi_1..phi_L]
  std::vector<double> coefficients_;  // [c, phi_1..phi_p, theta_1..theta_q]
};

}  // namespace pstore

#endif  // PSTORE_PREDICTION_ARMA_MODEL_H_
