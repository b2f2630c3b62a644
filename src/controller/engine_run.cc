#include "controller/engine_run.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/time_series.h"
#include "controller/predictive_controller.h"
#include "controller/reactive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "migration/squall_migrator.h"
#include "obs/tracer.h"
#include "planner/move_model.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"
#include "sim/run_spec.h"

namespace pstore {
namespace {

// One trace slot lasts 6 simulated seconds: one B2W trace minute at the
// paper's 10x replay speed (§7).
constexpr double kSlotSimSeconds = 6.0;

Status SpecError(const RunSpec& spec, const std::string& message) {
  return Status::InvalidArgument("spec '" + spec.label + "': " + message);
}

// The forecast model behind the online predictor.
StatusOr<std::unique_ptr<LoadPredictor>> MakeEngineModel(
    const RunSpec& spec, const TimeSeries& trace,
    const PredictiveControllerOptions& controller) {
  if (spec.predictor_spec == "oracle") {
    return std::unique_ptr<LoadPredictor>(
        std::make_unique<OraclePredictor>(trace));
  }
  StatusOr<std::unique_ptr<LoadPredictor>> made = MakePredictor(
      spec.predictor_spec,
      EnginePredictorContext(trace.slot_seconds(), controller));
  if (!made.ok()) return SpecError(spec, made.status().message());
  return made;
}

}  // namespace

PredictorContext EnginePredictorContext(
    double trace_slot_seconds, const PredictiveControllerOptions& controller) {
  PredictorContext context;
  context.period = static_cast<size_t>(86400.0 / trace_slot_seconds + 0.5);
  context.max_tau = static_cast<size_t>(controller.horizon_plan_slots) *
                    static_cast<size_t>(controller.plan_slot_factor);
  return context;
}

StatusOr<EngineRunResult> RunEngine(const RunSpec& spec,
                                    const EngineRunOptions& options) {
  // Everything the stack below would CHECK is rejected here, before the
  // initial data load.
  if (spec.strategy == Strategy::kSimple) {
    // The Simple day/night schedule exists only in the capacity simulator.
    return SpecError(spec, "kSimple has no engine controller");
  }
  if (spec.strategy == Strategy::kPredictive &&
      spec.predictor_spec.empty()) {
    return SpecError(spec, "kPredictive needs a predictor spec");
  }
  if (options.cluster.initial_nodes < 1 ||
      options.cluster.initial_nodes > options.cluster.max_nodes) {
    return SpecError(spec, "initial_nodes outside [1, max_nodes]");
  }
  const StatusOr<TimeSeries> built = BuildRunTrace(spec);
  if (!built.ok()) return built.status();
  const TimeSeries& trace = *built;
  const size_t start_slot = options.driver.start_slot;
  if (start_slot >= trace.size()) {
    return SpecError(spec, "driver start_slot is past the end of the trace");
  }
  std::unique_ptr<LoadPredictor> model;
  if (spec.strategy == Strategy::kPredictive) {
    StatusOr<std::unique_ptr<LoadPredictor>> made =
        MakeEngineModel(spec, trace, options.controller);
    if (!made.ok()) return made.status();
    model = std::move(*made);
  }

  obs::Tracer* tracer = spec.tracer;
  Cluster cluster(options.cluster);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  RETURN_IF_ERROR(b2w::RegisterProcedures(&executor));
  b2w::Workload workload(options.b2w);
  RETURN_IF_ERROR(workload.LoadInitialData(&cluster));

  EventLoop loop;
  MigrationManager migration(&loop, &cluster, &metrics, options.migration);
  executor.set_tracer(tracer);
  migration.set_tracer(tracer);

  DriverOptions driver_options = options.driver;
  driver_options.slot_sim_seconds = kSlotSimSeconds;
  driver_options.rate_factor = 1.0;
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);
  driver.set_tracer(tracer);
  metrics.RecordMachines(0, cluster.active_nodes());

  // An empty script schedules nothing: every chunk then runs at rate
  // multiplier 1.0 and none is aborted, as without an injector.
  FaultInjector injector(&loop, &cluster, &metrics,
                         FaultSchedule::Scripted(options.faults));
  injector.set_tracer(tracer);
  migration.set_fault_hook(&injector);
  injector.Arm();

  PredictiveControllerOptions controller_options = options.controller;
  controller_options.slot_sim_seconds = kSlotSimSeconds;
  PlannerParams& planner = controller_options.planner_params;
  planner.partitions_per_node = options.cluster.partitions_per_node;
  planner.d_slots =
      SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                       options.migration) /
      (static_cast<double>(controller_options.plan_slot_factor) *
       kSlotSimSeconds);

  std::unique_ptr<OnlinePredictor> predictor;
  std::unique_ptr<PredictiveController> predictive;
  std::unique_ptr<ReactiveController> reactive;
  if (spec.strategy == Strategy::kPredictive) {
    predictor =
        std::make_unique<OnlinePredictor>(std::move(model), options.predictor);
    predictor->set_tracer(tracer, [&loop] { return loop.now(); });
    // A run without a training prefix starts cold: the online wrapper
    // serves flat forecasts until a periodic re-fit succeeds.
    const Status warmed =
        predictor->Warmup(trace.Slice(0, std::max<size_t>(1, start_slot)));
    if (!warmed.ok() && start_slot > 0) {
      return SpecError(spec, "predictor warm-up: " + warmed.message());
    }
    predictive = std::make_unique<PredictiveController>(
        &loop, &cluster, &executor, &migration, predictor.get(),
        controller_options);
    predictive->set_tracer(tracer);
    predictive->Start();
  } else if (spec.strategy == Strategy::kReactive) {
    ReactiveControllerOptions reactive_options;
    reactive_options.slot_sim_seconds = kSlotSimSeconds;
    reactive_options.planner_params = planner;
    reactive = std::make_unique<ReactiveController>(
        &loop, &cluster, &executor, &migration, reactive_options);
    reactive->Start();
  }

  const SimTime end = FromSeconds(
      static_cast<double>(trace.size() - start_slot) * kSlotSimSeconds);
  driver.Start(end);
  loop.RunUntil(end);

  EngineRunResult result;
  result.windows = metrics.Finalize(end);
  result.sla = MetricsCollector::AttributeViolations(result.windows);
  result.avg_machines = metrics.AverageMachines(end);
  result.submitted = executor.submitted_count();
  result.committed = executor.committed_count();
  result.unavailable = executor.unavailable_count();
  result.reconfigurations =
      static_cast<int64_t>(migration.reconfigurations_completed());
  result.failed_reconfigurations =
      static_cast<int64_t>(migration.reconfigurations_failed());
  result.chunk_retries = migration.chunk_retries().value();
  result.chunks_aborted = migration.chunks_aborted().value();
  result.fault_events = injector.schedule().events().size();
  result.fault_stats = injector.stats();
  if (predictive != nullptr) {
    result.moves_started = predictive->reconfigurations_started();
    result.move_failures = predictive->move_failures();
    result.replans = predictive->replans_after_failure();
    result.model_switches = predictive->model_switches();
  } else if (reactive != nullptr) {
    result.scale_outs = reactive->scale_outs();
    result.scale_ins = reactive->scale_ins();
    result.move_failures = reactive->move_failures();
  }

  if (tracer != nullptr) {
    // One sla.window event per window violating the 500 ms p99 SLA, then
    // the run's headline numbers so the trace is self-describing.
    for (const WindowStats& window : result.windows) {
      if (window.p99_ms <= 500.0) continue;
      PSTORE_TRACE(tracer, ::pstore::obs::TraceCategory::kReport,
                   FromSeconds(window.start_seconds), "sla.window",
                   .With("p50_ms", window.p50_ms)
                       .With("p95_ms", window.p95_ms)
                       .With("p99_ms", window.p99_ms)
                       .With("fault", window.fault)
                       .With("migrating", window.migrating));
    }
    PSTORE_TRACE(tracer, ::pstore::obs::TraceCategory::kReport, end,
                 "run.summary",
                 .With("controller", spec.label)
                     .With("submitted", result.submitted)
                     .With("committed", result.committed)
                     .With("unavailable", result.unavailable)
                     .With("chunk_retries", result.chunk_retries)
                     .With("avg_machines", result.avg_machines)
                     .With("sla_p99_violations", result.sla.total.p99));
  }
  return result;
}

}  // namespace pstore
