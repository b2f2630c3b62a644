#include "prediction/predictor.h"

#include <cmath>

#include "common/status.h"
#include "common/time_series.h"

namespace pstore {

StatusOr<std::vector<double>> LoadPredictor::PredictHorizon(
    const TimeSeries& history, size_t horizon) const {
  std::vector<double> out;
  out.reserve(horizon);
  for (size_t tau = 1; tau <= horizon; ++tau) {
    StatusOr<double> value = PredictAhead(history, tau);
    if (!value.ok()) return value.status();
    out.push_back(*value);
  }
  return out;
}

StatusOr<EvaluationResult> EvaluatePredictor(const LoadPredictor& model,
                                             const TimeSeries& series,
                                             size_t eval_begin, size_t tau) {
  if (tau == 0) return Status::InvalidArgument("tau must be >= 1");
  if (eval_begin + tau >= series.size()) {
    return Status::InvalidArgument("evaluation window is empty");
  }
  EvaluationResult result;
  result.predicted.reserve(series.size() - eval_begin - tau);
  result.actual.reserve(series.size() - eval_begin - tau);
  // Grown in place so the walk is O(n), not O(n^2) in slices.
  TimeSeries history = series.Slice(0, eval_begin);
  for (size_t t = eval_begin; t + tau < series.size(); ++t) {
    history.Append(series[t]);
    StatusOr<double> prediction = model.PredictAhead(history, tau);
    if (!prediction.ok()) return prediction.status();
    result.predicted.push_back(*prediction);
    result.actual.push_back(series[t + tau]);
  }
  // MRE with the pstore_report guard: slots whose actual load is below
  // kMreMinActual are skipped, and an all-idle window yields mre == 0
  // (with mre_samples == 0) instead of failing the whole evaluation.
  double rel_sum = 0.0;
  size_t rel_used = 0;
  for (size_t i = 0; i < result.actual.size(); ++i) {
    const double denom = std::abs(result.actual[i]);
    if (denom < kMreMinActual) continue;
    rel_sum += std::abs(result.predicted[i] - result.actual[i]) / denom;
    ++rel_used;
  }
  result.mre = rel_used > 0 ? rel_sum / static_cast<double>(rel_used) : 0.0;
  result.mre_samples = rel_used;
  StatusOr<double> mae = MeanAbsoluteError(result.actual, result.predicted);
  if (!mae.ok()) return mae.status();
  StatusOr<double> rmse =
      RootMeanSquaredError(result.actual, result.predicted);
  if (!rmse.ok()) return rmse.status();
  result.mae = *mae;
  result.rmse = *rmse;
  return result;
}

}  // namespace pstore
