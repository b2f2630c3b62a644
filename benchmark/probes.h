#ifndef PSTORE_BENCHMARK_PROBES_H_
#define PSTORE_BENCHMARK_PROBES_H_

// Timing probes for the traced rep of pstore_bench. Every probe sits
// outside src/: it wraps a call into a public function (a LoadPredictor
// decorator, WorkloadDriver's transaction factory) or reads events the
// program already emits (an in-memory obs::TraceSink). Untraced reps
// construct none of them.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/time_series.h"
#include "engine/event_loop.h"
#include "engine/transaction.h"
#include "obs/tracer.h"
#include "prediction/predictor.h"

namespace pstore {
namespace bench {

// Host monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cost in ns of one NowNs() read, the median of several batches of
// back-to-back reads. A duration measured between two reads includes one
// read's cost, so every timed interval is corrected by this amount.
double CalibrateTimerCostNs();

// Host-time spans of one rep, kept in memory and written at exit. Ids
// are indices; the root has parent -1. Phases (Begin/End, Add) are always
// kept; per-call spans (AddCall) past `call_capacity` are counted as
// dropped instead.
class SpanLog {
 public:
  explicit SpanLog(size_t call_capacity) : call_capacity_(call_capacity) {}

  int Begin(std::string name, int parent);
  void End(int id);
  int Add(std::string name, int parent, int64_t start_ns, int64_t end_ns);
  void AddCall(std::string name, int parent, int64_t start_ns,
               int64_t end_ns);

  // Moves every span whose parent is `from` under the first span of
  // `candidates` whose interval contains the span's start. Used where
  // the parent runs inside a library loop the benchmark cannot wrap.
  void AdoptByTime(int from, const std::vector<int>& candidates);

  size_t size() const { return spans_.size(); }
  int64_t dropped() const { return dropped_; }

  // One JSON object per line: id, parent, name, start, end, with times
  // in seconds from the first span's start.
  Status WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  size_t call_capacity_;
  size_t calls_ = 0;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

// Host time and call counts of one predictor, summed over its calls.
struct PredictorStats {
  double fit_s = 0.0;
  double update_s = 0.0;
  double forecast_s = 0.0;
  int64_t fits = 0;
  int64_t updates = 0;
  int64_t forecasts = 0;
  // Fit calls plus Update calls that report changed parameters.
  int64_t refits = 0;

  double total_s() const { return fit_s + update_s + forecast_s; }
};

// LoadPredictor decorator that times every call into the wrapped model.
// Counters are mutable because prediction is const; the benchmark runs
// every workload on one thread, so no synchronisation is needed.
class TimedPredictor : public LoadPredictor {
 public:
  // `stats` and `spans` are borrowed and outlive the decorator; `spans`
  // may be null. Spans are parented under *parent_span, read per call.
  TimedPredictor(std::unique_ptr<LoadPredictor> inner, PredictorStats* stats,
                 SpanLog* spans, const int* parent_span);

  Status Fit(const TimeSeries& training) override;
  StatusOr<double> PredictAhead(const TimeSeries& history,
                                size_t tau) const override;
  StatusOr<std::vector<double>> PredictHorizon(const TimeSeries& history,
                                               size_t horizon) const override;
  StatusOr<bool> Update(const TimeSeries& history) override;
  std::string name() const override { return inner_->name(); }
  std::string active_name() const override { return inner_->active_name(); }

 private:
  void Record(const char* name, int64_t start_ns, int64_t end_ns) const;

  std::unique_ptr<LoadPredictor> inner_;
  PredictorStats* stats_;
  SpanLog* spans_;
  const int* parent_span_;
};

// In-memory trace sink for the control plane of an engine run: sums the
// planner's own wall_us per planner.plan event and counts controller
// cycles, migration chunks and reconfigurations. Planner calls are also
// recorded as spans ending when the event arrives.
class ControlPlaneSink : public obs::TraceSink {
 public:
  ControlPlaneSink(SpanLog* spans, const int* parent_span)
      : spans_(spans), parent_span_(parent_span) {}

  void Write(const obs::TraceEvent& event) override;
  Status Close() override { return Status::OK(); }

  double plan_s = 0.0;
  int64_t plan_calls = 0;
  int64_t infeasible_plans = 0;
  int64_t controller_cycles = 0;
  int64_t migration_chunks = 0;
  int64_t reconfigurations = 0;
  // Simulated seconds with a reconfiguration in flight.
  double migration_sim_active_s = 0.0;

 private:
  SpanLog* spans_;
  const int* parent_span_;
  SimTime migration_started_ = -1;
};

// Wraps WorkloadDriver's transaction factory. Every call reads the clock
// on entry; every 16th call also reads it on return, which times the
// generator. The gap from one call's mark to the next call's entry is
// the work WorkloadDriver does between arrivals: Submit plus the next
// exponential draw when both calls fall in one WorkloadDriver tick (same
// simulated now()), and the event loop, control plane and migration
// when they straddle a tick.
class TxnProbe {
 public:
  static constexpr int64_t kSampleEvery = 16;

  explicit TxnProbe(const EventLoop* loop) : loop_(loop) {}

  // Marks the start and end of the timed event loop run, so the first
  // and last gaps are counted as cross-tick gaps.
  void Begin();
  void End();

  template <typename Generate>
  TxnRequest Call(Generate&& generate) {
    const int64_t entry = NowNs();
    const int64_t gap = entry - prev_mark_ns_;
    const SimTime now = loop_->now();
    if (now == prev_now_) {
      intra_gap_ns_ += gap;
      ++intra_gaps_;
      if (!prev_sampled_) ++intra_after_unsampled_;
    } else {
      cross_gap_ns_ += gap;
      ++cross_gaps_;
      if (!prev_sampled_) ++cross_after_unsampled_;
    }
    prev_now_ = now;
    prev_sampled_ = calls_ % kSampleEvery == 0;
    ++calls_;
    TxnRequest request = generate();
    if (prev_sampled_) {
      const int64_t exit = NowNs();
      gen_sample_ns_ += exit - entry;
      ++gen_samples_;
      prev_mark_ns_ = exit;
    } else {
      prev_mark_ns_ = entry;
    }
    return request;
  }

  // Clock-corrected per-layer estimates. `timer_cost_ns` comes from
  // CalibrateTimerCostNs(); `control_s` is the host time of the control
  // plane measured by other probes (prediction, planner), which ran
  // inside cross-tick gaps and is taken out of the loop share. `probe_s`
  // is the probe's own clock reads, taken out of every other layer.
  struct Split {
    int64_t calls = 0;
    double gen_ns_per_txn = 0.0;
    double submit_ns_per_txn = 0.0;
    double gen_s = 0.0;
    double submit_s = 0.0;
    double loop_s = 0.0;
    double probe_s = 0.0;
  };
  Split Estimate(double timer_cost_ns, double control_s) const;

 private:
  const EventLoop* loop_;
  int64_t calls_ = 0;
  int64_t prev_mark_ns_ = 0;
  SimTime prev_now_ = -1;
  bool prev_sampled_ = true;
  int64_t gen_sample_ns_ = 0;
  int64_t gen_samples_ = 0;
  int64_t intra_gap_ns_ = 0;
  int64_t intra_gaps_ = 0;
  int64_t intra_after_unsampled_ = 0;
  int64_t cross_gap_ns_ = 0;
  int64_t cross_gaps_ = 0;
  int64_t cross_after_unsampled_ = 0;
};

}  // namespace bench
}  // namespace pstore

#endif  // PSTORE_BENCHMARK_PROBES_H_
