#ifndef PSTORE_ENGINE_METRICS_H_
#define PSTORE_ENGINE_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace pstore {

// Fixed-footprint log-bucketed latency histogram for one metrics window.
// 8 sub-buckets per octave from 100 us up to ~6000 s: small enough
// (128 x 4 bytes) to keep one per second for multi-day experiments,
// accurate enough (~9% relative error) for percentile curves and 500 ms
// SLA accounting.
class WindowHistogram {
 public:
  static constexpr int kNumBuckets = 128;

  void Record(SimTime latency) { Record(latency, 1); }
  // Records `weight` samples at `latency` in one call. Bucket counters
  // saturate at UINT32_MAX instead of wrapping, so multi-day high-TPS
  // runs degrade gracefully (quantiles drift toward the maximum) rather
  // than silently corrupting the distribution.
  void Record(SimTime latency, int64_t weight);
  int64_t count() const { return count_; }
  // Latency (in SimTime us) at the given quantile; upper bucket edge.
  SimTime ValueAtQuantile(double q) const;

  // The bucket `latency` lands in: 0 below 100 us, then 8 per octave,
  // the last one open-ended. Public for tests.
  static int BucketFor(SimTime latency);

 private:
  static SimTime UpperEdge(int bucket);

  std::array<uint32_t, kNumBuckets> buckets_ = {};
  int64_t count_ = 0;
  SimTime max_ = 0;
};

// Per-window summary produced by MetricsCollector::Finalize().
struct WindowStats {
  double start_seconds = 0.0;
  int64_t submitted = 0;
  int64_t completed = 0;
  // Transactions failed fast with kUnavailable (owning node crashed).
  // These never complete, so they are invisible to the latency
  // percentiles; availability SLA accounting must look here.
  int64_t unavailable = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  int machines = 0;
  bool migrating = false;
  // An injected fault (node outage, straggler, degraded network) was
  // active at some point inside the window.
  bool fault = false;
};

// Counts of windows whose per-window percentile latency exceeded the SLA
// threshold (Table 2's definition of SLA violations: seconds in which the
// 50th/95th/99th percentile latency exceeds 500 ms).
struct SlaViolations {
  int64_t p50 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
};

// SLA violations split by what the system was doing during the violating
// window: an injected fault was active (fault wins when both apply), a
// reconfiguration was in flight, or neither (pure misprediction /
// capacity shortfall). total = during_fault + during_migration + baseline
// per percentile.
struct SlaAttribution {
  SlaViolations total;
  SlaViolations during_fault;
  SlaViolations during_migration;
  SlaViolations baseline;
};

// Collects per-window (default 1 s) latency distributions, submission and
// completion counts, the machines-allocated step series and the
// migration-active step series for one experiment run.
class MetricsCollector {
 public:
  explicit MetricsCollector(double window_seconds = 1.0);

  // Records a transaction submitted at `submit` completing at
  // `completion`; the latency lands in the window containing completion.
  void RecordTxn(SimTime submit, SimTime completion);

  // Records a transaction failed fast as unavailable at `now` (it has no
  // completion and therefore no latency sample).
  void RecordUnavailable(SimTime now);

  // Step-series updates.
  void RecordMachines(SimTime now, int machines);
  void RecordMigrationActive(SimTime now, bool active);
  // Fault step series: true while at least one injected fault is active.
  void RecordFaultActive(SimTime now, bool active);

  // Summarizes all windows up to `end`. Call once after the run.
  std::vector<WindowStats> Finalize(SimTime end) const;

  // SLA accounting over finalized windows. Idle windows (no submitted
  // transactions) are skipped; a window with submissions but zero
  // completions — a total outage, every arrival rejected unavailable —
  // violates every percentile.
  static SlaViolations CountViolations(const std::vector<WindowStats>& windows,
                                       double threshold_ms = 500.0);

  // Like CountViolations, additionally splitting each violated window by
  // its fault/migrating flags.
  static SlaAttribution AttributeViolations(
      const std::vector<WindowStats>& windows, double threshold_ms = 500.0);

  // Time-weighted average of the machines-allocated step series on
  // [0, end].
  double AverageMachines(SimTime end) const;

  double window_seconds() const { return window_seconds_; }

 private:
  size_t WindowIndex(SimTime t) const;
  void EnsureWindow(size_t index);

  double window_seconds_;
  SimTime window_duration_;
  std::vector<WindowHistogram> latency_;
  std::vector<int64_t> submitted_;
  std::vector<int64_t> completed_;
  std::vector<int64_t> unavailable_;
  std::vector<std::pair<SimTime, int>> machine_steps_;
  std::vector<std::pair<SimTime, bool>> migration_steps_;
  std::vector<std::pair<SimTime, bool>> fault_steps_;
};

}  // namespace pstore

#endif  // PSTORE_ENGINE_METRICS_H_
