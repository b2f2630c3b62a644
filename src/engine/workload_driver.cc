#include "engine/workload_driver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/sim_time.h"
#include "common/time_series.h"
#include "engine/event_loop.h"
#include "engine/transaction.h"
#include "engine/txn_executor.h"
#include "obs/tracer.h"

namespace pstore {

WorkloadDriver::WorkloadDriver(EventLoop* loop, TxnExecutor* executor,
                               TimeSeries trace, TxnFactory factory,
                               const DriverOptions& options)
    : loop_(loop),
      executor_(executor),
      trace_(std::move(trace)),
      factory_(std::move(factory)),
      options_(options),
      rng_(options.seed) {
  PSTORE_CHECK(loop_ != nullptr && executor_ != nullptr);
  PSTORE_CHECK(factory_ != nullptr);
  PSTORE_CHECK(options_.slot_sim_seconds > 0.0);
  PSTORE_CHECK(options_.rate_factor > 0.0);
}

double WorkloadDriver::OfferedRate(SimTime t) const {
  const double seconds = ToSeconds(t);
  const size_t slot =
      options_.start_slot +
      static_cast<size_t>(seconds / options_.slot_sim_seconds);
  if (slot >= trace_.size()) return 0.0;
  return trace_[slot] * options_.rate_factor;
}

SimTime WorkloadDriver::NextSlotBoundary(SimTime t) const {
  const double seconds = ToSeconds(t);
  double m = std::floor(seconds / options_.slot_sim_seconds) + 1.0;
  SimTime boundary = FromSeconds(m * options_.slot_sim_seconds);
  // Float rounding can land the boundary at or before `t`; step forward
  // until it is strictly after so Tick's segment loop always progresses.
  while (boundary <= t) {
    m += 1.0;
    boundary = FromSeconds(m * options_.slot_sim_seconds);
  }
  return boundary;
}

void WorkloadDriver::Start(SimTime end_time) {
  end_time_ = end_time;
  loop_->ScheduleAt(loop_->now(), [this] { Tick(); });
}

void WorkloadDriver::Tick() {
  const SimTime tick_start = loop_->now();
  if (tick_start >= end_time_) return;
  const SimTime tick_end = tick_start + kSecond;

  // Piecewise-constant Poisson process: the offered rate changes at
  // trace-slot boundaries, which fall inside a tick whenever
  // slot_sim_seconds is fractional — sampling once at tick_start would
  // mis-rate the remainder of such ticks. Each constant-rate segment
  // draws its own exponential gaps (restarting at the boundary is valid
  // by memorylessness). For whole-second slot sizes a tick is a single
  // segment and the draw sequence is exactly the historical one.
  //
  // Each segment runs one arrival ahead: the next gap and request are
  // drawn, and the request's rows prefetched, before the current request
  // is submitted, so its cache misses overlap the current Submit. rng_
  // still draws gap, request, gap, ... in arrival order; only the
  // factory's calls move ahead of Submit (see TxnFactory).
  int64_t arrivals = 0;
  SimTime seg_start = tick_start;
  while (seg_start < tick_end) {
    const SimTime seg_end = std::min(tick_end, NextSlotBoundary(seg_start));
    const SimTime limit = std::min(seg_end, end_time_);
    const double rate = OfferedRate(seg_start);
    if (rate > 0.0) {
      const double mean_gap_seconds = 1.0 / rate;
      SimTime t =
          seg_start + FromSeconds(rng_.NextExponential(mean_gap_seconds));
      TxnRequest request;
      if (t < limit) request = factory_(rng_);
      while (t < limit) {
        const SimTime next_t =
            t + FromSeconds(rng_.NextExponential(mean_gap_seconds));
        TxnRequest next;
        if (next_t < limit) {
          next = factory_(rng_);
          executor_->Prefetch(next);
        }
        executor_->Submit(request, t);
        ++arrivals_generated_;
        ++arrivals;
        request = next;
        t = next_t;
      }
    }
    seg_start = seg_end;
  }
  PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kEngine, tick_start,
               "engine.slot",
               .With("rate", OfferedRate(tick_start))
                   .With("arrivals", arrivals));
  loop_->ScheduleAt(tick_end, [this] { Tick(); });
}

}  // namespace pstore
