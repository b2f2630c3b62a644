#include "engine/metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/logging.h"
#include "common/sim_time.h"

namespace pstore {
namespace {

// Windows histogram layout: sub-buckets per octave and the smallest
// latency with full resolution.
constexpr int kSubBucketsPerOctave = 8;
constexpr SimTime kBaseLatency = 100;  // 100 us

// The bucket layout as a formula: kSubBucketsPerOctave buckets per
// octave above kBaseLatency, everything below it in bucket 0, the last
// bucket open-ended.
int Log2Bucket(SimTime latency) {
  if (latency < kBaseLatency) return 0;
  const double octaves =
      std::log2(static_cast<double>(latency) /
                static_cast<double>(kBaseLatency));
  const int bucket = static_cast<int>(octaves * kSubBucketsPerOctave) + 1;
  return std::min(bucket, WindowHistogram::kNumBuckets - 1);
}

using LowerEdges = std::array<SimTime, WindowHistogram::kNumBuckets>;

// edges[b] is the smallest latency Log2Bucket puts in bucket b or above,
// found by bisecting Log2Bucket itself. Log2Bucket is monotone, so
// searching the edges gives its bucket for every latency without taking
// a logarithm.
LowerEdges BuildLowerEdges() {
  // Far above the last edge (~5.5 s): 2^40 us is about 13 days.
  constexpr SimTime kAboveAllEdges = SimTime{1} << 40;
  LowerEdges edges{};
  edges[0] = std::numeric_limits<SimTime>::min();
  for (int bucket = 1; bucket < WindowHistogram::kNumBuckets; ++bucket) {
    SimTime lo = 0;
    SimTime hi = kAboveAllEdges;
    while (lo < hi) {
      const SimTime mid = lo + (hi - lo) / 2;
      if (Log2Bucket(mid) >= bucket) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    edges[static_cast<size_t>(bucket)] = lo;
  }
  return edges;
}

}  // namespace

int WindowHistogram::BucketFor(SimTime latency) {
  static const LowerEdges kLowerEdges = BuildLowerEdges();
  // Binary search for the last edge at or below `latency`; the halving
  // steps reach every bucket because the count is a power of two.
  static_assert((kNumBuckets & (kNumBuckets - 1)) == 0);
  int bucket = 0;
  for (int step = kNumBuckets / 2; step > 0; step /= 2) {
    const auto probe = static_cast<size_t>(bucket + step);
    if (kLowerEdges[probe] <= latency) bucket += step;
  }
  return bucket;
}

SimTime WindowHistogram::UpperEdge(int bucket) {
  if (bucket <= 0) return kBaseLatency - 1;
  const double octaves =
      static_cast<double>(bucket) / kSubBucketsPerOctave;
  return static_cast<SimTime>(static_cast<double>(kBaseLatency) *
                              std::pow(2.0, octaves));
}

void WindowHistogram::Record(SimTime latency, int64_t weight) {
  if (weight <= 0) return;
  if (latency < 0) latency = 0;
  uint32_t& bucket = buckets_[static_cast<size_t>(BucketFor(latency))];
  const uint64_t kSaturated = std::numeric_limits<uint32_t>::max();
  const uint64_t sum = static_cast<uint64_t>(bucket) +
                       static_cast<uint64_t>(weight);
  bucket = static_cast<uint32_t>(std::min(sum, kSaturated));
  count_ += weight;
  max_ = std::max(max_, latency);
}

SimTime WindowHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Bucket counters saturate (see Record) while count_ does not, so the
  // stored bucket mass can be smaller than count_. Rank within the
  // stored mass, the same saturating space the scan accumulates in —
  // ranking by count_ walks past the saturated buckets and quantiles
  // collapse toward max_ (all of them, once the excess exceeds the mass
  // above the saturated bucket).
  int64_t stored = 0;
  for (int i = 0; i < kNumBuckets; ++i) stored += buckets_[i];
  const int64_t target = std::min(
      stored, std::max<int64_t>(
                  1, static_cast<int64_t>(
                         q * static_cast<double>(stored) + 0.5)));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) return std::min(UpperEdge(i), max_);
  }
  return max_;
}

MetricsCollector::MetricsCollector(double window_seconds)
    : window_seconds_(window_seconds),
      window_duration_(FromSeconds(window_seconds)) {
  PSTORE_CHECK(window_duration_ > 0);
}

size_t MetricsCollector::WindowIndex(SimTime t) const {
  if (t < 0) t = 0;
  return static_cast<size_t>(t / window_duration_);
}

void MetricsCollector::EnsureWindow(size_t index) {
  if (index >= latency_.size()) {
    latency_.resize(index + 1);
    submitted_.resize(index + 1, 0);
    completed_.resize(index + 1, 0);
    unavailable_.resize(index + 1, 0);
  }
}

void MetricsCollector::RecordTxn(SimTime submit, SimTime completion) {
  PSTORE_CHECK(completion >= submit);
  const size_t submit_window = WindowIndex(submit);
  const size_t complete_window = WindowIndex(completion);
  EnsureWindow(std::max(submit_window, complete_window));
  ++submitted_[submit_window];
  ++completed_[complete_window];
  latency_[complete_window].Record(completion - submit);
}

void MetricsCollector::RecordUnavailable(SimTime now) {
  const size_t window = WindowIndex(now);
  EnsureWindow(window);
  ++submitted_[window];
  ++unavailable_[window];
}

void MetricsCollector::RecordMachines(SimTime now, int machines) {
  machine_steps_.emplace_back(now, machines);
}

void MetricsCollector::RecordMigrationActive(SimTime now, bool active) {
  migration_steps_.emplace_back(now, active);
}

void MetricsCollector::RecordFaultActive(SimTime now, bool active) {
  fault_steps_.emplace_back(now, active);
}

std::vector<WindowStats> MetricsCollector::Finalize(SimTime end) const {
  const size_t num_windows = WindowIndex(end > 0 ? end - 1 : 0) + 1;
  std::vector<WindowStats> out(num_windows);

  size_t machine_idx = 0;
  int machines = machine_steps_.empty() ? 0 : machine_steps_.front().second;
  size_t migration_idx = 0;
  bool migrating = false;
  size_t fault_idx = 0;
  bool fault = false;

  for (size_t w = 0; w < num_windows; ++w) {
    WindowStats& stats = out[w];
    const SimTime window_start = static_cast<SimTime>(w) * window_duration_;
    const SimTime window_end = window_start + window_duration_;
    stats.start_seconds = ToSeconds(window_start);
    if (w < latency_.size()) {
      stats.submitted = submitted_[w];
      stats.completed = completed_[w];
      stats.unavailable = unavailable_[w];
      stats.p50_ms = ToSeconds(latency_[w].ValueAtQuantile(0.50)) * 1e3;
      stats.p95_ms = ToSeconds(latency_[w].ValueAtQuantile(0.95)) * 1e3;
      stats.p99_ms = ToSeconds(latency_[w].ValueAtQuantile(0.99)) * 1e3;
    }
    // Step series: value in effect at the end of the window.
    while (machine_idx < machine_steps_.size() &&
           machine_steps_[machine_idx].first < window_end) {
      machines = machine_steps_[machine_idx].second;
      ++machine_idx;
    }
    stats.machines = machines;
    // A window counts as migrating if migration was active at any point
    // inside it (approximated by: active at window end or a toggle
    // occurred within the window). Without the toggle term a migration
    // that starts and finishes inside one window would be invisible to
    // Table 2's during_migration attribution.
    bool migration_toggled = false;
    while (migration_idx < migration_steps_.size() &&
           migration_steps_[migration_idx].first < window_end) {
      migrating = migration_steps_[migration_idx].second;
      migration_toggled = true;
      ++migration_idx;
    }
    stats.migrating = migrating || migration_toggled;
    // Same approximation for the fault flag: active at window end, or a
    // fault began/ended inside the window.
    bool fault_toggled = false;
    while (fault_idx < fault_steps_.size() &&
           fault_steps_[fault_idx].first < window_end) {
      fault = fault_steps_[fault_idx].second;
      fault_toggled = true;
      ++fault_idx;
    }
    stats.fault = fault || fault_toggled;
  }
  return out;
}

SlaViolations MetricsCollector::CountViolations(
    const std::vector<WindowStats>& windows, double threshold_ms) {
  SlaViolations v;
  for (const WindowStats& w : windows) {
    // A window where traffic arrived but nothing completed is a total
    // outage — the worst SLA outcome, not a pass. It has no latency
    // samples, so it violates every percentile by definition. Windows
    // with no traffic at all are genuinely idle and skipped.
    const bool outage = w.submitted > 0 && w.completed == 0;
    if (w.completed == 0 && !outage) continue;
    if (outage || w.p50_ms > threshold_ms) ++v.p50;
    if (outage || w.p95_ms > threshold_ms) ++v.p95;
    if (outage || w.p99_ms > threshold_ms) ++v.p99;
  }
  return v;
}

SlaAttribution MetricsCollector::AttributeViolations(
    const std::vector<WindowStats>& windows, double threshold_ms) {
  SlaAttribution out;
  for (const WindowStats& w : windows) {
    // Total-outage windows (submitted > 0, completed == 0) violate every
    // percentile; they land in the fault bucket when w.fault is set,
    // which is the common cause (the node hosting every bucket is down).
    const bool outage = w.submitted > 0 && w.completed == 0;
    if (w.completed == 0 && !outage) continue;
    SlaViolations* bucket = w.fault ? &out.during_fault
                           : w.migrating ? &out.during_migration
                                         : &out.baseline;
    if (outage || w.p50_ms > threshold_ms) {
      ++out.total.p50;
      ++bucket->p50;
    }
    if (outage || w.p95_ms > threshold_ms) {
      ++out.total.p95;
      ++bucket->p95;
    }
    if (outage || w.p99_ms > threshold_ms) {
      ++out.total.p99;
      ++bucket->p99;
    }
  }
  return out;
}

double MetricsCollector::AverageMachines(SimTime end) const {
  if (machine_steps_.empty() || end <= 0) return 0.0;
  double weighted = 0.0;
  SimTime prev_time = 0;
  int prev_value = machine_steps_.front().second;
  for (const auto& [time, value] : machine_steps_) {
    if (time >= end) break;
    weighted += ToSeconds(time - prev_time) * prev_value;
    prev_time = time;
    prev_value = value;
  }
  weighted += ToSeconds(end - prev_time) * prev_value;
  return weighted / ToSeconds(end);
}

}  // namespace pstore
