#ifndef PSTORE_ENGINE_WORKLOAD_DRIVER_H_
#define PSTORE_ENGINE_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/time_series.h"
#include "engine/event_loop.h"
#include "engine/transaction.h"
#include "engine/txn_executor.h"
#include "obs/tracer.h"

namespace pstore {

// Options for the open-loop workload driver.
struct DriverOptions {
  // Duration of one trace slot in simulated seconds. The paper replays
  // B2W's per-minute trace at 10x speed, so one trace minute lasts 6
  // simulated seconds.
  double slot_sim_seconds = 6.0;
  // Multiplies trace values to convert them to transactions per
  // simulated second. For a req/min trace replayed at 10x speed:
  // rate [txn/s] = trace [req/min] * 10 / 60.
  double rate_factor = 10.0 / 60.0;
  // Index of the first trace slot to replay.
  size_t start_slot = 0;
  uint64_t seed = 5;
};

// Open-loop driver: replays an aggregate load trace against the executor
// as a Poisson arrival process whose rate follows the trace. Arrivals
// are generated in one-second batches with exact exponential
// inter-arrival gaps, so they arrive sorted and the partition queue
// model stays faithful.
class WorkloadDriver {
 public:
  // Produces the next transaction to submit; called once per arrival,
  // in arrival order. The driver calls it one arrival ahead of Submit:
  // the request for arrival k+1 is made before arrival k is submitted.
  // So a factory must not read state that Submit changes (storage,
  // metrics, executor counters); the b2w and ycsb NextTransaction read
  // only their own generator state and `rng`.
  using TxnFactory = std::function<TxnRequest(Rng& rng)>;

  WorkloadDriver(EventLoop* loop, TxnExecutor* executor, TimeSeries trace,
                 TxnFactory factory, const DriverOptions& options);
  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  // Schedules the generation ticks; arrivals flow until `end_time` or the
  // trace runs out, whichever is first.
  void Start(SimTime end_time);

  // Offered rate (txn per simulated second) at simulated time `t`.
  double OfferedRate(SimTime t) const;

  int64_t arrivals_generated() const { return arrivals_generated_; }

  // Observability: emits one engine.slot event per one-second generation
  // tick with the offered rate and arrivals produced.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  void Tick();
  // First trace-slot boundary strictly after `t`. Slot boundaries land
  // inside generation ticks whenever slot_sim_seconds is fractional.
  SimTime NextSlotBoundary(SimTime t) const;

  EventLoop* loop_;
  TxnExecutor* executor_;
  TimeSeries trace_;
  TxnFactory factory_;
  DriverOptions options_;
  Rng rng_;
  SimTime end_time_ = 0;
  int64_t arrivals_generated_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace pstore

#endif  // PSTORE_ENGINE_WORKLOAD_DRIVER_H_
