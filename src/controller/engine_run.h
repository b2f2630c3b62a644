#ifndef PSTORE_CONTROLLER_ENGINE_RUN_H_
#define PSTORE_CONTROLLER_ENGINE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "b2w/workload.h"
#include "common/status.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/metrics.h"
#include "engine/workload_driver.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "migration/squall_migrator.h"
#include "prediction/online_predictor.h"
#include "prediction/predictor_spec.h"
#include "sim/run_spec.h"

namespace pstore {

// Engine-side options of one RunEngine call: the existing option structs
// of each layer plus the fault script. RunEngine derives everything
// else, so two callers that agree on these structs build the same stack:
//   - one trace slot lasts 6 simulated seconds and trace values are
//     txn/s, so the `slot_sim_seconds` and `rate_factor` fields of
//     `driver` and `controller` are ignored;
//   - `controller.planner_params.partitions_per_node` is the cluster's,
//     and `d_slots` is D (SingleThreadFullMigrationSeconds over the
//     loaded database) in planning slots;
//   - the run replays from `driver.start_slot` to the end of the trace,
//     and the predictor warms up on the slots before it (at least one).
struct EngineRunOptions {
  ClusterOptions cluster;
  b2w::B2wWorkloadOptions b2w;
  MigrationOptions migration;
  // Read: `seed` and `start_slot`.
  DriverOptions driver;
  // kPredictive only.
  OnlinePredictorOptions predictor;
  // kPredictive; the reactive controller takes its planner rates.
  PredictiveControllerOptions controller;
  // Scripted faults, times in simulated seconds from the replay start.
  std::vector<FaultEvent> faults;
};

// Everything one run measured, snapshotted so runs can execute
// concurrently and report afterwards.
struct EngineRunResult {
  std::vector<WindowStats> windows;
  // 500 ms SLA violations; `sla.total` counts every violating window.
  SlaAttribution sla;
  double avg_machines = 0.0;
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t unavailable = 0;
  int64_t reconfigurations = 0;
  int64_t failed_reconfigurations = 0;
  int64_t chunk_retries = 0;
  int64_t chunks_aborted = 0;
  size_t fault_events = 0;
  FaultInjector::Stats fault_stats;
  // Controller counters: kPredictive fills moves_started, replans and
  // model_switches, kReactive fills scale_outs and scale_ins, and both
  // fill move_failures.
  int64_t moves_started = 0;
  int64_t move_failures = 0;
  int64_t replans = 0;
  int64_t model_switches = 0;
  int64_t scale_outs = 0;
  int64_t scale_ins = 0;
};

// Context for a spec-built engine model: period = one day of trace
// slots, max_tau = the horizon the controller requests, in trace slots
// (horizon_plan_slots x plan_slot_factor).
PredictorContext EnginePredictorContext(
    double trace_slot_seconds, const PredictiveControllerOptions& controller);

// Runs one workload through the live engine: B2W on a cluster, Squall
// migration, the open-loop WorkloadDriver, scripted faults, and the
// spec's controller. Reads from `spec` the label, strategy (kPredictive,
// kReactive or kStatic), workload, seed (overriding the workload seed
// as RunOne does), predictor_spec and tracer. The predictor spec is
// "oracle" (perfect hindsight over the run's trace) or any MakePredictor
// spec; kPredictive requires one. With a tracer, the run also emits one
// sla.window event per violating window and a closing run.summary; the
// caller owns the tracer and closes it. Deterministic for equal inputs;
// concurrent runs need distinct tracers.
StatusOr<EngineRunResult> RunEngine(const RunSpec& spec,
                                    const EngineRunOptions& options);

}  // namespace pstore

#endif  // PSTORE_CONTROLLER_ENGINE_RUN_H_
