#include "prediction/online_predictor.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/time_series.h"
#include "obs/tracer.h"
#include "obs/wall_timer.h"

namespace pstore {

OnlinePredictor::OnlinePredictor(std::unique_ptr<LoadPredictor> model,
                                 const OnlinePredictorOptions& options)
    : model_(std::move(model)), options_(options) {
  PSTORE_CHECK(model_ != nullptr);
  PSTORE_CHECK(options_.refit_interval >= 1);
  PSTORE_CHECK(options_.training_window >= 2);
  PSTORE_CHECK(options_.inflation > 0.0);
  PSTORE_CHECK(options_.auto_inflation_quantile > 0.0 &&
               options_.auto_inflation_quantile <= 1.0);
  effective_inflation_ = options_.inflation;
}

void OnlinePredictor::CalibrateInflation(const TimeSeries& training) {
  // Walk forward over the last day(ish) of the training window: ratios
  // actual / predicted at the calibration horizon. The effective
  // inflation is the chosen quantile of those ratios (at least 1.0).
  const size_t tau = std::max<size_t>(1, options_.auto_inflation_tau);
  if (training.size() < 2 * tau + 4) return;
  // Stride the samples across the second half of the training window so
  // the buffer sees day-scale variation, not just the last few hours.
  const size_t begin = training.size() / 2;
  const size_t span = training.size() - tau - begin;
  const size_t samples = std::min<size_t>(512, span);
  const size_t stride = std::max<size_t>(1, span / samples);
  std::vector<double> ratios;
  ratios.reserve(samples);
  // The prefix [0, t] each prediction reads, grown in place.
  TimeSeries history = training.Slice(0, begin);
  for (size_t t = begin; t + tau < training.size(); t += stride) {
    while (history.size() <= t) history.Append(training[history.size()]);
    StatusOr<double> prediction = model_->PredictAhead(history, tau);
    if (!prediction.ok() || *prediction <= 0.0) continue;
    ratios.push_back(training[t + tau] / *prediction);
  }
  if (ratios.size() < 32) return;  // not enough signal; keep previous
  std::sort(ratios.begin(), ratios.end());
  const size_t index = std::min(
      ratios.size() - 1,
      static_cast<size_t>(options_.auto_inflation_quantile *
                          static_cast<double>(ratios.size())));
  effective_inflation_ = std::max(1.0, ratios[index]);
}

TimeSeries OnlinePredictor::TrainingSlice() const {
  if (history_.size() <= options_.training_window) return history_;
  return history_.Slice(history_.size() - options_.training_window,
                        history_.size());
}

Status OnlinePredictor::Warmup(const TimeSeries& history) {
  history_ = history;
  const TimeSeries training = TrainingSlice();
  obs::WallTimer timer;
  const Status status = model_->Fit(training);
  fitted_ = status.ok();
  observations_since_fit_ = 0;
  ++refits_;
  if (fitted_ && options_.auto_inflation) CalibrateInflation(training);
  PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kPredictor,
               trace_now_ ? trace_now_() : 0, "predictor.fit",
               .With("n", training.size())
                   .With("ok", status.ok())
                   .With("inflation", effective_inflation_)
                   .With("warmup", true)
                   .With("wall_us", timer.ElapsedMicros()));
  return status;
}

void OnlinePredictor::Observe(double value) {
  history_.Append(value);
  ++observations_since_fit_;
  // v2 online hook: adaptive models (shift-aware, ensembles) track
  // their own rolling state from the growing history.
  (void)model_->Update(history_);
  if (observations_since_fit_ >= options_.refit_interval) {
    Refit();
  }
}

void OnlinePredictor::Refit() {
  observations_since_fit_ = 0;
  ++refits_;
  const TimeSeries training = TrainingSlice();
  obs::WallTimer timer;
  const Status status = model_->Fit(training);
  if (status.ok()) {
    fitted_ = true;
    if (options_.auto_inflation) CalibrateInflation(training);
  }
  // On failure (e.g., not enough history yet) we keep the previous fit if
  // any; the controller keeps running either way.
  PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kPredictor,
               trace_now_ ? trace_now_() : 0, "predictor.fit",
               .With("n", training.size())
                   .With("ok", status.ok())
                   .With("inflation", effective_inflation_)
                   .With("warmup", false)
                   .With("wall_us", timer.ElapsedMicros()));
}

StatusOr<std::vector<double>> OnlinePredictor::PredictHorizon(
    size_t horizon) const {
  if (horizon == 0) return Status::InvalidArgument("horizon must be >= 1");
  obs::WallTimer timer;
  std::vector<double> out;
  if (fitted_) {
    StatusOr<std::vector<double>> forecast =
        model_->PredictHorizon(history_, horizon);
    if (forecast.ok()) {
      out = std::move(*forecast);
    }
  }
  if (out.empty()) {
    // Fallback: flat continuation of the last observation.
    if (history_.empty()) {
      return Status::FailedPrecondition("no history to predict from");
    }
    out.assign(horizon, history_[history_.size() - 1]);
  }
  for (double& v : out) {
    v = std::max(0.0, v * effective_inflation_);
  }
  // Overlay manually-planned events: the forecast's first element is
  // the slot right after the last observation.
  calendar_.ApplyToForecast(history_.size(), &out);
  PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kPredictor,
               trace_now_ ? trace_now_() : 0, "predictor.forecast",
               .With("horizon", horizon)
                   .With("pred_next", out.empty() ? 0.0 : out.front())
                   .With("pred_peak",
                         out.empty()
                             ? 0.0
                             : *std::max_element(out.begin(), out.end()))
                   .With("fitted", fitted_)
                   .With("wall_us", timer.ElapsedMicros()));
  return out;
}

}  // namespace pstore
