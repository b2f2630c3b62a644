#include "bench_util.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
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
#include "prediction/spar_model.h"
#include "trace/b2w_trace_generator.h"
#include "trace/spike_injector.h"

namespace pstore {
namespace bench {

void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper reference: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

std::unique_ptr<CsvWriter> OpenCsv(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (ec) return nullptr;
  auto writer = std::make_unique<CsvWriter>("bench_out/" + name);
  if (!writer->ok()) return nullptr;
  return writer;
}

void CloseCsv(CsvWriter* csv) {
  if (csv == nullptr) return;
  const Status closed = csv->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "warning: %s\n", closed.ToString().c_str());
  }
}

const char* EngineApproachLabel(const EngineRunConfig& config) {
  switch (config.spec.strategy) {
    case Strategy::kStatic:
      return "Static";
    case Strategy::kReactive:
      return "Reactive";
    case Strategy::kPredictive:
      return config.oracle_predictor ? "P-Store (Oracle)" : "P-Store (SPAR)";
    case Strategy::kSimple:
      break;  // no engine controller; rejected by RunEngineExperiment
  }
  return "?";
}

WorkloadSpec EngineWorkload(const EngineRunConfig& config) {
  WorkloadSpec workload;
  workload.kind = WorkloadSpec::Kind::kB2wSynthetic;
  workload.b2w.days = config.training_days + config.replay_days;
  // ~1500 txn/s at 10x acceleration: 10 machines at Q-hat = 350 leave
  // comfortable headroom, 4 do not (the paper's Fig. 9 setup).
  workload.b2w.peak_requests_per_min = 9000.0;
  workload.b2w.seed = config.spec.seed;
  workload.b2w.black_friday_day = config.black_friday_day;
  // req/min -> txn/s at 10x replay speed, scaled.
  workload.scale = 10.0 / 60.0 * config.scale;
  if (config.inject_spike) {
    workload.inject_spike = true;
    // Mid-afternoon of the first replayed day, on the peak's shoulder.
    workload.spike.start_slot =
        static_cast<size_t>(config.training_days) * 1440 + 660;
    workload.spike.ramp_slots = 15;
    workload.spike.sustain_slots = 90;
    workload.spike.decay_slots = 90;
    workload.spike.magnitude = config.spike_magnitude;
  }
  return workload;
}

TimeSeries EngineTrace(const EngineRunConfig& config) {
  StatusOr<TimeSeries> trace = BuildWorkloadTrace(EngineWorkload(config));
  PSTORE_CHECK_OK(trace.status());
  return *std::move(trace);
}

EngineRunResult RunEngineExperiment(const EngineRunConfig& config) {
  // The Simple day/night schedule exists only in the capacity simulator.
  PSTORE_CHECK(config.spec.strategy != Strategy::kSimple);
  const TimeSeries trace = EngineTrace(config);
  const size_t replay_begin =
      static_cast<size_t>(config.training_days) * 1440;

  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 16;
  cluster_options.initial_nodes = config.nodes;
  cluster_options.num_buckets = 3600;
  Cluster cluster(cluster_options);

  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));

  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool =
      static_cast<uint64_t>(300000 * config.scale);
  workload_options.checkout_pool =
      static_cast<uint64_t>(120000 * config.scale);
  b2w::Workload workload(workload_options);
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));

  EventLoop loop;
  // Paper-calibrated migration: ~250 kB/s sustained per pair with
  // 1000 kB chunks, giving D ~= 77 min for the ~1.1 GB database (§8.1).
  MigrationOptions migration_options;
  migration_options.net_rate_bytes_per_sec = 500e3;
  migration_options.chunk_spacing_seconds = 2.0;
  migration_options.chunk_bytes = 1000 * 1000;
  migration_options.extract_rate_bytes_per_sec = 20e6;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);
  executor.set_tracer(config.spec.tracer);
  migration.set_tracer(config.spec.tracer);
  metrics.RecordMachines(0, config.nodes);

  std::unique_ptr<FaultInjector> injector;
  if (!config.faults.empty()) {
    injector = std::make_unique<FaultInjector>(
        &loop, &cluster, &metrics, FaultSchedule::Scripted(config.faults));
    injector->set_tracer(config.spec.tracer);
    migration.set_fault_hook(injector.get());
    injector->Arm();
  }

  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;  // one trace minute at 10x
  driver_options.rate_factor = 1.0;       // trace already in txn/s
  driver_options.start_slot = replay_begin;
  driver_options.seed = config.spec.seed * 7919 + 13;
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);
  driver.set_tracer(config.spec.tracer);

  PlannerParams planner_params;
  planner_params.target_rate_per_node = 285.0 * config.scale;
  planner_params.max_rate_per_node = 350.0 * config.scale;
  planner_params.partitions_per_node = 6;
  planner_params.d_slots =
      SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                       migration_options) /
      30.0;  // planning slot = 5 trace minutes = 30 sim seconds

  std::unique_ptr<OnlinePredictor> predictor;
  std::unique_ptr<PredictiveController> predictive;
  std::unique_ptr<ReactiveController> reactive;

  if (config.spec.strategy == Strategy::kPredictive) {
    OnlinePredictorOptions online_options;
    online_options.inflation = 1.15;  // §8.2: predictions inflated by 15%
    online_options.training_window =
        static_cast<size_t>(config.training_days) * 1440;
    online_options.refit_interval = 7 * 1440;  // weekly (§7)
    std::unique_ptr<LoadPredictor> model;
    if (config.oracle_predictor) {
      model = std::make_unique<OraclePredictor>(trace);
    } else if (!config.spec.predictor_spec.empty()) {
      // Spec-built model at the trace-minute granularity the online
      // predictor observes: daily period, 4-hour max horizon.
      PredictorContext context;
      context.period = 1440;
      context.max_tau = 240;
      StatusOr<std::unique_ptr<LoadPredictor>> made =
          MakePredictor(config.spec.predictor_spec, context);
      PSTORE_CHECK_OK(made.status());
      model = std::move(*made);
    } else {
      SparOptions spar_options;
      spar_options.period = 1440;
      spar_options.num_periods = 7;
      spar_options.num_recent = 30;
      spar_options.max_tau = 240;  // 4 hours of trace minutes
      spar_options.tau_stride = 5;
      model = std::make_unique<SparPredictor>(spar_options);
    }
    predictor =
        std::make_unique<OnlinePredictor>(std::move(model), online_options);
    predictor->set_tracer(config.spec.tracer,
                          [&loop] { return loop.now(); });
    PSTORE_CHECK_OK(predictor->Warmup(trace.Slice(0, replay_begin)));

    PredictiveControllerOptions options;
    options.slot_sim_seconds = 6.0;
    options.plan_slot_factor = 5;
    options.horizon_plan_slots = 48;  // 4 hours of trace time
    options.fast_reactive_fallback = config.fast_reactive_fallback;
    options.scale_in_confirm_cycles = config.scale_in_confirm_cycles;
    options.planner_params = planner_params;
    predictive = std::make_unique<PredictiveController>(
        &loop, &cluster, &executor, &migration, predictor.get(), options);
    predictive->set_tracer(config.spec.tracer);
    predictive->Start();
  } else if (config.spec.strategy == Strategy::kReactive) {
    ReactiveControllerOptions options;
    options.slot_sim_seconds = 6.0;
    options.planner_params = planner_params;
    reactive = std::make_unique<ReactiveController>(
        &loop, &cluster, &executor, &migration, options);
    reactive->Start();
  }

  const SimTime end = FromSeconds(config.replay_days * 1440 * 6.0);
  driver.Start(end);
  loop.RunUntil(end);

  EngineRunResult result;
  result.windows = metrics.Finalize(end);
  result.violations = MetricsCollector::CountViolations(result.windows);
  result.attribution = MetricsCollector::AttributeViolations(result.windows);
  result.avg_machines = metrics.AverageMachines(end);
  result.committed = executor.committed_count();
  result.aborted = executor.aborted_count();
  result.unavailable = executor.unavailable_count();
  result.duration_seconds = ToSeconds(end);
  result.reconfigurations =
      static_cast<int>(migration.reconfigurations_completed());
  result.failed_reconfigurations =
      static_cast<int>(migration.reconfigurations_failed());
  result.chunk_retries = migration.chunk_retries().value();

  if (config.spec.tracer != nullptr) {
    // One sla.window event per window violating the 500 ms p99 SLA, then
    // the run's headline numbers so the trace is self-describing.
    for (const WindowStats& window : result.windows) {
      if (window.p99_ms <= 500.0) continue;
      PSTORE_TRACE(config.spec.tracer, ::pstore::obs::TraceCategory::kReport,
                   FromSeconds(window.start_seconds), "sla.window",
                   .With("p50_ms", window.p50_ms)
                       .With("p95_ms", window.p95_ms)
                       .With("p99_ms", window.p99_ms)
                       .With("fault", window.fault)
                       .With("migrating", window.migrating));
    }
    PSTORE_TRACE(config.spec.tracer, ::pstore::obs::TraceCategory::kReport,
                 end, "run.summary",
                 .With("label", config.spec.label)
                     .With("approach", EngineApproachLabel(config))
                     .With("committed", result.committed)
                     .With("unavailable", result.unavailable)
                     .With("avg_machines", result.avg_machines)
                     .With("reconfigurations", result.reconfigurations)
                     .With("chunk_retries", result.chunk_retries)
                     .With("sla_p99_violations", result.violations.p99));
  }
  return result;
}

std::vector<EngineRunResult> RunEngineExperiments(
    const std::vector<EngineRunConfig>& configs, int threads) {
  // Tracers are single-threaded sinks: concurrent runs must not share
  // one (null is fine, it means "no tracing").
  for (size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].spec.tracer == nullptr) continue;
    for (size_t j = i + 1; j < configs.size(); ++j) {
      PSTORE_CHECK(configs[j].spec.tracer != configs[i].spec.tracer);
    }
  }
  std::vector<EngineRunResult> results(configs.size());
  ThreadPool pool(ResolveThreadCount(threads));
  pool.ParallelFor(configs.size(), [&](size_t i) {
    results[i] = RunEngineExperiment(configs[i]);
  });
  return results;
}

void PrintRunSummary(const std::string& label, const EngineRunResult& run) {
  std::printf(
      "%-20s  viol(p50/p95/p99)=%4lld /%5lld /%5lld  avg machines=%5.2f  "
      "reconfigs=%2d  committed=%lld\n",
      label.c_str(), static_cast<long long>(run.violations.p50),
      static_cast<long long>(run.violations.p95),
      static_cast<long long>(run.violations.p99), run.avg_machines,
      run.reconfigurations, static_cast<long long>(run.committed));
}

}  // namespace bench
}  // namespace pstore
