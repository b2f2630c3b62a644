#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/trace_event.h"

namespace pstore {
namespace bench {

double CalibrateTimerCostNs() {
  constexpr int kBatches = 9;
  constexpr int kReads = 20000;
  std::vector<double> per_read;
  per_read.reserve(kBatches);
  for (int batch = 0; batch < kBatches; ++batch) {
    const int64_t start = NowNs();
    int64_t last = start;
    for (int i = 0; i < kReads; ++i) last = NowNs();
    per_read.push_back(static_cast<double>(last - start) / kReads);
  }
  std::nth_element(per_read.begin(), per_read.begin() + kBatches / 2,
                   per_read.end());
  return per_read[kBatches / 2];
}

int SpanLog::Begin(std::string name, int parent) {
  return Add(std::move(name), parent, NowNs(), -1);
}

void SpanLog::End(int id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int SpanLog::Add(std::string name, int parent, int64_t start_ns,
                 int64_t end_ns) {
  spans_.push_back(Span{std::move(name), parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::AddCall(std::string name, int parent, int64_t start_ns,
                      int64_t end_ns) {
  if (calls_ >= call_capacity_) {
    ++dropped_;
    return;
  }
  ++calls_;
  Add(std::move(name), parent, start_ns, end_ns);
}

void SpanLog::AdoptByTime(int from, const std::vector<int>& candidates) {
  for (size_t i = 0; i < spans_.size(); ++i) {
    Span& span = spans_[i];
    if (span.parent != from) continue;
    for (const int c : candidates) {
      if (c < 0 || static_cast<size_t>(c) == i) continue;
      const Span& parent = spans_[static_cast<size_t>(c)];
      if (span.start_ns >= parent.start_ns && span.start_ns < parent.end_ns) {
        span.parent = c;
        break;
      }
    }
  }
}

Status SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::Internal("cannot open " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string line;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    line = "{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(span.parent) + ",\"name\":\"";
    obs::AppendJsonEscaped(span.name, &line);
    char times[96];
    std::snprintf(times, sizeof(times), "\",\"start\":%.9f,\"end\":%.9f}\n",
                  1e-9 * static_cast<double>(span.start_ns - origin),
                  1e-9 * static_cast<double>(span.end_ns - origin));
    line += times;
    std::fwrite(line.data(), 1, line.size(), file);
  }
  if (std::fclose(file) != 0) return Status::Internal("write failed: " + path);
  return Status::OK();
}

TimedPredictor::TimedPredictor(std::unique_ptr<LoadPredictor> inner,
                               PredictorStats* stats, SpanLog* spans,
                               const int* parent_span)
    : inner_(std::move(inner)),
      stats_(stats),
      spans_(spans),
      parent_span_(parent_span) {}

void TimedPredictor::Record(const char* name, int64_t start_ns,
                            int64_t end_ns) const {
  if (spans_ != nullptr) spans_->AddCall(name, *parent_span_, start_ns, end_ns);
}

Status TimedPredictor::Fit(const TimeSeries& training) {
  const int64_t start = NowNs();
  Status status = inner_->Fit(training);
  const int64_t end = NowNs();
  stats_->fit_s += 1e-9 * static_cast<double>(end - start);
  ++stats_->fits;
  ++stats_->refits;
  Record("prediction.fit", start, end);
  return status;
}

StatusOr<double> TimedPredictor::PredictAhead(const TimeSeries& history,
                                              size_t tau) const {
  const int64_t start = NowNs();
  StatusOr<double> value = inner_->PredictAhead(history, tau);
  const int64_t end = NowNs();
  stats_->forecast_s += 1e-9 * static_cast<double>(end - start);
  ++stats_->forecasts;
  Record("prediction.forecast", start, end);
  return value;
}

StatusOr<std::vector<double>> TimedPredictor::PredictHorizon(
    const TimeSeries& history, size_t horizon) const {
  const int64_t start = NowNs();
  StatusOr<std::vector<double>> values =
      inner_->PredictHorizon(history, horizon);
  const int64_t end = NowNs();
  stats_->forecast_s += 1e-9 * static_cast<double>(end - start);
  ++stats_->forecasts;
  Record("prediction.forecast", start, end);
  return values;
}

StatusOr<bool> TimedPredictor::Update(const TimeSeries& history) {
  const int64_t start = NowNs();
  StatusOr<bool> changed = inner_->Update(history);
  const int64_t end = NowNs();
  stats_->update_s += 1e-9 * static_cast<double>(end - start);
  ++stats_->updates;
  if (changed.ok() && *changed) ++stats_->refits;
  Record("prediction.update", start, end);
  return changed;
}

void ControlPlaneSink::Write(const obs::TraceEvent& event) {
  const char* name = event.name();
  if (std::strcmp(name, "planner.plan") == 0) {
    int64_t wall_us = 0;
    for (const obs::TraceEvent::Field& field : event.fields()) {
      if (std::strcmp(field.key, "wall_us") == 0) wall_us = field.int_value;
      if (std::strcmp(field.key, "feasible") == 0 && !field.bool_value) {
        ++infeasible_plans;
      }
    }
    plan_s += 1e-6 * static_cast<double>(wall_us);
    ++plan_calls;
    if (spans_ != nullptr) {
      const int64_t end = NowNs();
      spans_->AddCall("planner.plan", *parent_span_, end - 1000 * wall_us,
                      end);
    }
  } else if (std::strcmp(name, "controller.cycle") == 0) {
    ++controller_cycles;
  } else if (std::strcmp(name, "migration.chunk") == 0) {
    ++migration_chunks;
  } else if (std::strcmp(name, "migration.start") == 0) {
    migration_started_ = event.ts();
  } else if (std::strcmp(name, "migration.done") == 0 ||
             std::strcmp(name, "migration.abort") == 0) {
    if (std::strcmp(name, "migration.done") == 0) ++reconfigurations;
    if (migration_started_ >= 0) {
      migration_sim_active_s += ToSeconds(event.ts() - migration_started_);
      migration_started_ = -1;
    }
  }
}

void TxnProbe::Begin() {
  prev_mark_ns_ = NowNs();
  prev_now_ = -1;
  prev_sampled_ = true;
}

void TxnProbe::End() {
  cross_gap_ns_ += NowNs() - prev_mark_ns_;
  ++cross_gaps_;
  if (!prev_sampled_) ++cross_after_unsampled_;
}

TxnProbe::Split TxnProbe::Estimate(double timer_cost_ns,
                                   double control_s) const {
  Split split;
  split.calls = calls_;
  if (gen_samples_ > 0) {
    split.gen_ns_per_txn = std::max(
        0.0, static_cast<double>(gen_sample_ns_) /
                     static_cast<double>(gen_samples_) -
                 timer_cost_ns);
  }
  if (intra_gaps_ > 0) {
    split.submit_ns_per_txn =
        (static_cast<double>(intra_gap_ns_) -
         static_cast<double>(intra_gaps_) * timer_cost_ns -
         static_cast<double>(intra_after_unsampled_) * split.gen_ns_per_txn) /
        static_cast<double>(intra_gaps_);
  }
  const double calls = static_cast<double>(calls_);
  split.gen_s = 1e-9 * calls * split.gen_ns_per_txn;
  split.submit_s = 1e-9 * calls * split.submit_ns_per_txn;
  // Each cross-tick gap also holds the Submit of the tick's last arrival
  // (already counted in submit_s) and, after an unsampled call, its
  // generator time (already counted in gen_s).
  split.loop_s =
      1e-9 * (static_cast<double>(cross_gap_ns_) -
              static_cast<double>(cross_gaps_) *
                  (timer_cost_ns + split.submit_ns_per_txn) -
              static_cast<double>(cross_after_unsampled_) *
                  split.gen_ns_per_txn) -
      control_s;
  split.probe_s = 1e-9 * timer_cost_ns *
                  static_cast<double>(intra_gaps_ + cross_gaps_ + gen_samples_);
  return split;
}

}  // namespace bench
}  // namespace pstore
