#ifndef PSTORE_PREDICTION_ONLINE_PREDICTOR_H_
#define PSTORE_PREDICTION_ONLINE_PREDICTOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/time_series.h"
#include "obs/tracer.h"
#include "prediction/event_calendar.h"
#include "prediction/predictor.h"

namespace pstore {

// Options for the online (active-learning) prediction wrapper (paper §6:
// "P-Store has an active learning system ... constantly monitors the
// system over time and can actively learn the parameter values").
struct OnlinePredictorOptions {
  // Refit the underlying model every this many observed slots. The paper
  // found refitting SPAR once per week to be sufficient. This is the only
  // refit cadence; a shift-triggered refit comes from wrapping the model
  // in the shift(...) predictor spec (ShiftAwarePredictor), which refits
  // itself from Update().
  size_t refit_interval = 7 * 1440;
  // Number of most recent slots used as the training window when
  // refitting (the paper trains on 4 weeks).
  size_t training_window = 28 * 1440;
  // Multiplier applied to every prediction before it reaches the planner
  // ("we inflate all predictions by 15%", §8.2).
  double inflation = 1.15;
  // When true, the inflation is re-derived at every (re)fit from the
  // model's own training-residual distribution: the smallest multiplier
  // m such that m * prediction >= actual for `auto_inflation_quantile`
  // of the training points at the longest horizon. This replaces the
  // paper's hand-picked 15% with a data-driven buffer.
  bool auto_inflation = false;
  double auto_inflation_quantile = 0.98;
  // Horizon (in slots) at which residuals are measured for auto
  // inflation; errors grow with the horizon, so use the planner's.
  size_t auto_inflation_tau = 60;
};

// Maintains the observed load history, periodically refits the wrapped
// model, and serves inflated horizon forecasts to the controller. Before
// the first successful fit it falls back to flat last-value forecasts so
// the controller always has something to plan with.
class OnlinePredictor {
 public:
  OnlinePredictor(std::unique_ptr<LoadPredictor> model,
                  const OnlinePredictorOptions& options);

  // Seeds the history with pre-recorded measurements (e.g., 4 weeks of
  // historical data) and fits the model on it.
  Status Warmup(const TimeSeries& history);

  // Appends one observed slot, forwards it to the model's Update() hook,
  // and refits when the refit interval elapses.
  void Observe(double value);

  // Inflated forecast for slots 1..horizon past the last observation.
  StatusOr<std::vector<double>> PredictHorizon(size_t horizon) const;

  // True once the wrapped model has been fitted successfully.
  bool fitted() const { return fitted_; }

  const TimeSeries& history() const { return history_; }
  const LoadPredictor& model() const { return *model_; }

  // Fit attempts so far (successful or not), including Warmup.
  size_t refits() const { return refits_; }
  // Name of the model currently serving forecasts (an ensemble reports
  // its active member) — the controller traces switches through this.
  std::string active_model_name() const { return model_->active_name(); }

  // Manual-provisioning calendar (paper §1's third technique): planned
  // events registered here multiply the horizon forecasts over their
  // windows, so the planner provisions for known one-off spikes that no
  // history-based model can foresee. Slots are absolute indices on this
  // predictor's timeline (history().size() is "now").
  EventCalendar& calendar() { return calendar_; }
  const EventCalendar& calendar() const { return calendar_; }

  // The inflation currently in effect (fixed, or the latest
  // auto-derived value).
  double effective_inflation() const { return effective_inflation_; }

  // Observability: when set, fits emit predictor.fit and horizon
  // forecasts emit predictor.forecast (both with wall time). `now_fn`
  // supplies the simulation timestamp of the emitting harness.
  void set_tracer(obs::Tracer* tracer, std::function<SimTime()> now_fn) {
    tracer_ = tracer;
    trace_now_ = std::move(now_fn);
  }

 private:
  void Refit();
  // The most recent training_window slots of history (or all of it).
  TimeSeries TrainingSlice() const;
  // Re-derives effective_inflation_ from walk-forward residuals on the
  // tail of the training data (auto_inflation mode).
  void CalibrateInflation(const TimeSeries& training);

  std::unique_ptr<LoadPredictor> model_;
  OnlinePredictorOptions options_;
  EventCalendar calendar_;
  TimeSeries history_;
  size_t observations_since_fit_ = 0;
  size_t refits_ = 0;
  bool fitted_ = false;
  double effective_inflation_ = 1.0;
  obs::Tracer* tracer_ = nullptr;
  std::function<SimTime()> trace_now_;
};

}  // namespace pstore

#endif  // PSTORE_PREDICTION_ONLINE_PREDICTOR_H_
