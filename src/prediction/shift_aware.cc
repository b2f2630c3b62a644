#include "prediction/shift_aware.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/status.h"
#include "common/time_series.h"
#include "prediction/predictor.h"

namespace pstore {

ShiftAwarePredictor::ShiftAwarePredictor(std::unique_ptr<LoadPredictor> base,
                                         const ShiftAwareOptions& options)
    : base_(std::move(base)),
      options_(options),
      recent_(std::max<size_t>(1, options.residual_window)) {
  PSTORE_CHECK(base_ != nullptr);
  PSTORE_CHECK(options_.threshold > 1.0);
  PSTORE_CHECK(options_.min_mre >= 0.0);
}

std::string ShiftAwarePredictor::name() const {
  return "ShiftAware(" + base_->name() + ")";
}

void ShiftAwarePredictor::ComputeBaseline(const TimeSeries& training) {
  baseline_mre_ = 0.0;
  if (training.size() < 8) return;
  const size_t begin = training.size() / 2;
  const size_t span = training.size() - 1 - begin;
  if (span == 0) return;
  const size_t samples =
      std::min(std::max<size_t>(1, options_.baseline_samples), span);
  const size_t stride = std::max<size_t>(1, span / samples);
  double sum = 0.0;
  size_t used = 0;
  // The prefix [0, t] each prediction reads, grown in place.
  TimeSeries history = training.Slice(0, begin);
  for (size_t t = begin; t + 1 < training.size(); t += stride) {
    while (history.size() <= t) history.Append(training[history.size()]);
    const double actual = training[t + 1];
    if (std::abs(actual) < kMreMinActual) continue;
    StatusOr<double> prediction = base_->PredictAhead(history, 1);
    if (!prediction.ok()) continue;
    sum += std::abs(*prediction - actual) / std::abs(actual);
    ++used;
  }
  if (used > 0) baseline_mre_ = sum / static_cast<double>(used);
}

Status ShiftAwarePredictor::Fit(const TimeSeries& training) {
  const Status status = base_->Fit(training);
  if (!status.ok()) return status;
  fitted_ = true;
  training_size_ = training.size();
  ComputeBaseline(training);
  recent_.Reset();
  has_pending_ = false;
  last_history_size_ = 0;
  slots_since_refit_ = 0;
  return Status::OK();
}

StatusOr<double> ShiftAwarePredictor::PredictAhead(const TimeSeries& history,
                                                   size_t tau) const {
  return base_->PredictAhead(history, tau);
}

StatusOr<std::vector<double>> ShiftAwarePredictor::PredictHorizon(
    const TimeSeries& history, size_t horizon) const {
  return base_->PredictHorizon(history, horizon);
}

Status ShiftAwarePredictor::RefitOn(const TimeSeries& history) {
  size_t window = options_.refit_window > 0 ? options_.refit_window
                                            : training_size_;
  window = std::min(window, history.size());
  const TimeSeries slice =
      history.Slice(history.size() - window, history.size());
  const Status status = base_->Fit(slice);
  if (status.ok()) {
    ++refits_;
    training_size_ = slice.size();
    ComputeBaseline(slice);
    recent_.Reset();
  }
  // Either way the cooldown restarts: a window too short to fit will not
  // grow enough to succeed within a slot or two.
  slots_since_refit_ = 0;
  return status;
}

StatusOr<bool> ShiftAwarePredictor::Update(const TimeSeries& history) {
  if (!fitted_) return false;
  if (history.size() <= last_history_size_) {
    // Walkers only ever extend the history; a shrink means a new
    // walk — drop the stale pending prediction.
    has_pending_ = history.size() < last_history_size_ ? false : has_pending_;
    last_history_size_ = history.size();
    return false;
  }
  const size_t grown = history.size() - last_history_size_;
  // Score the pending one-step prediction when exactly the slot it
  // targeted arrived; warmup jumps (grown > 1) are not scoreable.
  if (has_pending_ && grown == 1 && last_history_size_ > 0) {
    recent_.Add(history[history.size() - 1], pending_prediction_);
  }
  slots_since_refit_ += grown;
  bool changed = false;
  const bool warmed =
      recent_.count() >= std::max<size_t>(1, recent_.capacity() / 2);
  const double recent = recent_.mean();
  const bool shifted = warmed && recent >= options_.min_mre &&
                       recent > options_.threshold *
                                    std::max(baseline_mre_, kMreMinActual);
  if (shifted && slots_since_refit_ >= options_.cooldown) {
    changed = RefitOn(history).ok();
  }
  // Stage the one-step prediction for the next observed slot.
  StatusOr<double> next = base_->PredictAhead(history, 1);
  has_pending_ = next.ok();
  if (next.ok()) pending_prediction_ = *next;
  last_history_size_ = history.size();
  return changed;
}

}  // namespace pstore
