#ifndef PSTORE_OBS_METRICS_REGISTRY_H_
#define PSTORE_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace pstore {
namespace obs {

// Monotone event count (transactions committed, chunks moved, replans).
class Counter {
 public:
  void Increment(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Last-write-wins instantaneous value (average machines, forecast MAE).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Accumulates wall-clock span durations (planner searches, refits).
class Timer {
 public:
  void Observe(int64_t micros) {
    ++count_;
    total_us_ += micros;
    if (micros > max_us_) max_us_ = micros;
  }
  int64_t count() const { return count_; }
  int64_t total_us() const { return total_us_; }
  int64_t max_us() const { return max_us_; }

 private:
  int64_t count_ = 0;
  int64_t total_us_ = 0;
  int64_t max_us_ = 0;
};

// A registry of named counters/gauges/timers for one run. Names are
// dotted lowercase paths, "<subsystem>.<what>[_<unit>]", e.g.
// "migration.chunks_moved", "planner.search_us", "sim.avg_machines".
// Get* creates on first use and returns a stable pointer (storage is a
// node-based map), so call sites can cache the pointer outside loops.
// Exporters are Status-returning: a run's numbers that fail to land on
// disk must be loud.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) { return &counters_[name]; }
  Gauge* GetGauge(const std::string& name) { return &gauges_[name]; }
  Timer* GetTimer(const std::string& name) { return &timers_[name]; }

  // Renders the whole registry as one JSON object:
  //   {"counters":{...},"gauges":{...},
  //    "timers":{"name":{"count":N,"total_us":T,"max_us":M},...}}
  // Keys are emitted in sorted (map) order, so output is deterministic.
  std::string ToJson() const;

  // Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Timer> timers_;
};

}  // namespace obs
}  // namespace pstore

#endif  // PSTORE_OBS_METRICS_REGISTRY_H_
