#include "prediction/ensemble.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/time_series.h"
#include "prediction/predictor.h"
#include "prediction/residual_tracker.h"

namespace pstore {
namespace {

// Keeps inverse-error weights finite when a member scores ~zero error.
constexpr double kScoreEpsilon = 1e-6;

}  // namespace

EnsemblePredictor::EnsemblePredictor(const EnsembleOptions& options)
    : options_(options) {
  PSTORE_CHECK(options_.epoch_slots >= 1);
  PSTORE_CHECK(options_.score_window >= 1);
  PSTORE_CHECK(options_.weight_floor >= 0.0 && options_.weight_floor < 1.0);
}

void EnsemblePredictor::AddMember(std::unique_ptr<LoadPredictor> model) {
  PSTORE_CHECK(model != nullptr);
  PSTORE_CHECK(!fitted_);
  Member member{std::move(model), false,
                RollingResidualTracker(options_.score_window),
                0.0, false, 0.0, 0.0, false};
  members_.push_back(std::move(member));
}

Status EnsemblePredictor::Fit(const TimeSeries& training) {
  if (members_.empty()) {
    return Status::FailedPrecondition("ensemble has no members");
  }
  // A member whose Fit fails keeps its previous fit, so when every one
  // fails the ensemble keeps its own state too.
  std::vector<bool> fitted(members_.size());
  size_t fitted_members = 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    fitted[i] = members_[i].model->Fit(training).ok();
    if (fitted[i]) ++fitted_members;
  }
  if (fitted_members == 0) {
    return Status::FailedPrecondition(
        "no ensemble member could fit the training series");
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    Member& member = members_[i];
    member.fitted = fitted[i];
    member.window.Reset();
    member.has_pending = false;
    member.weight = 0.0;
    member.score = 0.0;
    member.has_score = false;
  }
  // Initial scores: walk-forward one-step backtest over the tail of the
  // training window, so the first served forecast already comes from the
  // best member instead of member order. All members score on the same
  // slots, so MRE sample sets match; an all-idle tail falls back to MAE.
  const size_t tail =
      std::min(options_.score_window, training.size() / 4);
  if (tail >= 2) {
    const size_t begin = training.size() - tail;
    for (Member& member : members_) {
      if (!member.fitted) continue;
      StatusOr<EvaluationResult> eval =
          EvaluatePredictor(*member.model, training, begin, 1);
      if (!eval.ok()) continue;
      member.score = eval->mre_samples > 0 ? eval->mre : eval->mae;
      member.has_score = true;
    }
  }
  fitted_ = true;
  active_ = 0;
  switches_ = 0;
  last_history_size_ = 0;
  slots_since_rescore_ = 0;
  // Seed active/weights from the initial scores (not counted as a
  // switch: nothing was being served yet).
  double best = std::numeric_limits<double>::infinity();
  bool found = false;
  for (size_t i = 0; i < members_.size(); ++i) {
    const Member& member = members_[i];
    if (!member.fitted) continue;
    if (!found && !member.has_score) {
      active_ = i;  // placeholder until a scored member appears
    }
    if (member.has_score && member.score < best) {
      best = member.score;
      active_ = i;
      found = true;
    }
  }
  if (!found) {
    for (size_t i = 0; i < members_.size(); ++i) {
      if (members_[i].fitted) {
        active_ = i;
        break;
      }
    }
  }
  double total = 0.0;
  for (Member& member : members_) {
    if (!member.fitted) continue;
    member.weight =
        1.0 / (kScoreEpsilon + (member.has_score ? member.score : 1.0));
    total += member.weight;
  }
  if (total > 0.0) {
    double floored_total = 0.0;
    for (Member& member : members_) {
      if (!member.fitted) continue;
      member.weight =
          std::max(member.weight / total, options_.weight_floor);
      floored_total += member.weight;
    }
    for (Member& member : members_) {
      if (member.fitted) member.weight /= floored_total;
    }
  }
  return Status::OK();
}

bool EnsemblePredictor::Rescore() {
  const size_t min_samples =
      std::max<size_t>(1, options_.score_window / 4);
  for (Member& member : members_) {
    if (!member.fitted) continue;
    if (member.window.count() >= min_samples) {
      member.score = member.window.mean();
      member.has_score = true;
    }
  }
  size_t new_active = active_;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < members_.size(); ++i) {
    const Member& member = members_[i];
    if (!member.fitted || !member.has_score) continue;
    if (member.score < best) {
      best = member.score;
      new_active = i;
    }
  }
  bool changed = false;
  if (new_active != active_) {
    active_ = new_active;
    ++switches_;
    changed = true;
  }
  double total = 0.0;
  for (Member& member : members_) {
    if (!member.fitted) continue;
    member.weight =
        1.0 / (kScoreEpsilon + (member.has_score ? member.score : 1.0));
    total += member.weight;
  }
  if (total > 0.0) {
    double floored_total = 0.0;
    for (Member& member : members_) {
      if (!member.fitted) continue;
      member.weight =
          std::max(member.weight / total, options_.weight_floor);
      floored_total += member.weight;
    }
    for (Member& member : members_) {
      if (member.fitted) member.weight /= floored_total;
    }
    if (options_.mode == EnsembleMode::kWeight) changed = true;
  }
  return changed;
}

StatusOr<bool> EnsemblePredictor::Update(const TimeSeries& history) {
  if (!fitted_) return false;
  if (history.size() <= last_history_size_) {
    if (history.size() < last_history_size_) {
      for (Member& member : members_) member.has_pending = false;
    }
    last_history_size_ = history.size();
    return false;
  }
  const size_t grown = history.size() - last_history_size_;
  if (grown == 1 && last_history_size_ > 0) {
    const double actual = history[history.size() - 1];
    for (Member& member : members_) {
      if (member.fitted && member.has_pending) {
        member.window.Add(actual, member.pending);
      }
    }
  }
  bool changed = false;
  // Let adaptive members (e.g. a shift-aware wrapper inside the pool)
  // see the new observations too.
  for (Member& member : members_) {
    if (!member.fitted) continue;
    StatusOr<bool> inner = member.model->Update(history);
    if (inner.ok() && *inner) changed = true;
  }
  slots_since_rescore_ += grown;
  if (slots_since_rescore_ >= options_.epoch_slots) {
    if (Rescore()) changed = true;
    slots_since_rescore_ = 0;
  }
  for (Member& member : members_) {
    member.has_pending = false;
    if (!member.fitted) continue;
    StatusOr<double> next = member.model->PredictAhead(history, 1);
    if (next.ok()) {
      member.pending = *next;
      member.has_pending = true;
    }
  }
  last_history_size_ = history.size();
  return changed;
}

StatusOr<double> EnsemblePredictor::PredictAhead(const TimeSeries& history,
                                                 size_t tau) const {
  if (!fitted_) return Status::FailedPrecondition("ensemble is not fitted");
  if (options_.mode == EnsembleMode::kSwitch) {
    // Serve from the active member; if it cannot predict this tau (e.g.
    // SPAR past its max_tau), fall through to the remaining fitted
    // members by score then index — deterministic and total.
    Status last_error = Status::FailedPrecondition("no fitted member");
    const Member& preferred = members_[active_];
    if (preferred.fitted) {
      StatusOr<double> value = preferred.model->PredictAhead(history, tau);
      if (value.ok()) return value;
      last_error = value.status();
    }
    std::vector<std::pair<double, size_t>> order;
    order.reserve(members_.size());
    for (size_t i = 0; i < members_.size(); ++i) {
      if (i == active_ || !members_[i].fitted) continue;
      order.emplace_back(
          members_[i].has_score
              ? members_[i].score
              : std::numeric_limits<double>::infinity(),
          i);
    }
    std::sort(order.begin(), order.end());
    for (const std::pair<double, size_t>& candidate : order) {
      StatusOr<double> value =
          members_[candidate.second].model->PredictAhead(history, tau);
      if (value.ok()) return value;
      last_error = value.status();
    }
    return last_error;
  }
  double sum = 0.0;
  double used_weight = 0.0;
  Status last_error = Status::FailedPrecondition("no fitted member");
  for (const Member& member : members_) {
    if (!member.fitted || member.weight <= 0.0) continue;
    StatusOr<double> value = member.model->PredictAhead(history, tau);
    if (!value.ok()) {
      last_error = value.status();
      continue;
    }
    sum += member.weight * *value;
    used_weight += member.weight;
  }
  if (used_weight <= 0.0) return last_error;
  return sum / used_weight;
}

StatusOr<std::vector<double>> EnsemblePredictor::PredictHorizon(
    const TimeSeries& history, size_t horizon) const {
  if (!fitted_) return Status::FailedPrecondition("ensemble is not fitted");
  if (horizon == 0) return Status::InvalidArgument("horizon must be >= 1");
  if (options_.mode == EnsembleMode::kSwitch) {
    Status last_error = Status::FailedPrecondition("no fitted member");
    const Member& preferred = members_[active_];
    if (preferred.fitted) {
      StatusOr<std::vector<double>> values =
          preferred.model->PredictHorizon(history, horizon);
      if (values.ok()) return values;
      last_error = values.status();
    }
    std::vector<std::pair<double, size_t>> order;
    order.reserve(members_.size());
    for (size_t i = 0; i < members_.size(); ++i) {
      if (i == active_ || !members_[i].fitted) continue;
      order.emplace_back(
          members_[i].has_score
              ? members_[i].score
              : std::numeric_limits<double>::infinity(),
          i);
    }
    std::sort(order.begin(), order.end());
    for (const std::pair<double, size_t>& candidate : order) {
      StatusOr<std::vector<double>> values =
          members_[candidate.second].model->PredictHorizon(history, horizon);
      if (values.ok()) return values;
      last_error = values.status();
    }
    return last_error;
  }
  std::vector<double> sum(horizon, 0.0);
  double used_weight = 0.0;
  Status last_error = Status::FailedPrecondition("no fitted member");
  for (const Member& member : members_) {
    if (!member.fitted || member.weight <= 0.0) continue;
    StatusOr<std::vector<double>> values =
        member.model->PredictHorizon(history, horizon);
    if (!values.ok()) {
      last_error = values.status();
      continue;
    }
    for (size_t i = 0; i < horizon; ++i) {
      sum[i] += member.weight * (*values)[i];
    }
    used_weight += member.weight;
  }
  if (used_weight <= 0.0) return last_error;
  for (double& value : sum) value /= used_weight;
  return sum;
}

std::string EnsemblePredictor::active_name() const {
  if (!fitted_) return name();
  if (options_.mode == EnsembleMode::kWeight) return "Ensemble(weighted)";
  return members_[active_].model->active_name();
}

std::vector<double> EnsemblePredictor::weights() const {
  std::vector<double> out;
  out.reserve(members_.size());
  for (const Member& member : members_) out.push_back(member.weight);
  return out;
}

}  // namespace pstore
