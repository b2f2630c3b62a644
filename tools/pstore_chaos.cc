// pstore_chaos: chaos-drill driver for the live engine. Runs the B2W
// workload from a synthetic step trace under a chosen controller while a
// fault schedule (scripted crash and/or seeded-random fault streams)
// plays against the cluster, then reports recovery behaviour: chunk
// retries, failed reconfigurations, controller re-plans, unavailable
// transactions, and SLA violations attributed to fault / migration /
// baseline windows.
//
// Usage:
//   pstore_chaos [--minutes=24] [--controller=pstore|reactive]
//       [--nodes=2] [--base-rate=300] [--peak-rate=800] [--step-minute=12]
//       [--predictor=oracle]  (pstore controller's forecast model:
//                              "oracle" = perfect hindsight (default), or
//                              any predictor spec — "ar(p=8)",
//                              "last_value", "ensemble(ar,last_value)";
//                              see prediction/predictor_spec.h. A spec'd
//                              model re-fits every 150 slots; wrap it in
//                              "shift(...)" to also re-fit when its
//                              residuals show a workload shift. The
//                              oracle never re-fits.)
//   Scripted drill (crash node mid-scale-out):
//       pstore_chaos --crash-node=2 --crash-at=640 --recover-at=700
//   Seeded-random drill (reproducible: same --seed, same stream):
//       pstore_chaos --seed=7 --crash-rate=6 --straggler-rate=4
//       [--degrade-rate=2] [--chunk-abort-rate=12]
//       [--mean-outage=60] (seconds; also --mean-straggler, --mean-degrade)
//
// --controller accepts a comma list ("pstore,reactive"): the same drill
// is then run once per controller, concurrently on --threads N worker
// threads (default: hardware concurrency), with reports printed in
// controller order — identical output for any thread count.
// Unknown flags are rejected.
//
// Machine-readable outputs:
//   --trace-out=run.jsonl   structured event trace across the whole
//                           stack (controller, predictor, planner,
//                           migration, faults); render with
//                           pstore_report --trace=run.jsonl (single
//                           controller only: a Tracer is one sink)
//   --bench-json=out.json   headline metrics as a JSON metrics registry

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/thread_pool.h"
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
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"
#include "sim/run_spec.h"

using namespace pstore;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// One drill: the shared run description (label, strategy, kStep
// workload, tracer) plus the engine-side knobs.
struct DrillConfig {
  RunSpec spec;
  int nodes = 2;
  double total_seconds = 0.0;
  std::vector<FaultEvent> faults;
  // Forecast model for the pstore controller: "oracle" (perfect
  // hindsight) or a predictor spec string. Validated in main(), so
  // RunDrill may CHECK it.
  std::string predictor_spec = "oracle";
};

// Context for a spec'd forecast model: period = one day of monitoring
// slots, max_tau = the fine horizon the controller requests
// (horizon_plan_slots * plan_slot_factor in RunDrill).
PredictorContext DrillPredictorContext(double slot_seconds) {
  PredictorContext context;
  context.period = static_cast<size_t>(86400.0 / slot_seconds + 0.5);
  context.max_tau = 100;
  return context;
}

// Everything the report prints, snapshotted so drills can run
// concurrently and print afterwards, in order.
struct DrillResult {
  size_t fault_events = 0;
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t unavailable = 0;
  int64_t reconfigs_completed = 0;
  int64_t reconfigs_failed = 0;
  int64_t chunk_retries = 0;
  int64_t chunks_aborted = 0;
  FaultInjector::Stats fault_stats;
  bool predictive = false;
  int64_t moves_started = 0;
  int64_t move_failures = 0;
  int64_t replans = 0;
  int64_t model_switches = 0;
  int64_t scale_outs = 0;
  int64_t scale_ins = 0;
  double avg_machines = 0.0;
  std::vector<WindowStats> windows;
  SlaAttribution sla;
};

DrillResult RunDrill(const DrillConfig& config) {
  obs::Tracer* tracer = config.spec.tracer;
  const StatusOr<TimeSeries> built = BuildWorkloadTrace(config.spec.workload);
  PSTORE_CHECK_OK(built.status());
  const TimeSeries& trace = *built;
  const double slot_seconds = trace.slot_seconds();

  // Engine: a 10-node-max cluster running B2W, same shape as the
  // controller tests so drills are comparable with known-good behaviour.
  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 10;
  cluster_options.initial_nodes = config.nodes;
  cluster_options.num_buckets = 1200;
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 20000;
  workload_options.checkout_pool = 8000;
  b2w::Workload workload(workload_options);
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));

  MigrationOptions migration_options;
  migration_options.net_rate_bytes_per_sec = 200e3;
  migration_options.chunk_spacing_seconds = 0.5;
  migration_options.chunk_bytes = 256 * 1024;
  migration_options.extract_rate_bytes_per_sec = 20e6;
  EventLoop loop;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);
  executor.set_tracer(tracer);
  migration.set_tracer(tracer);

  DriverOptions driver_options;
  driver_options.slot_sim_seconds = slot_seconds;
  driver_options.rate_factor = 1.0;
  driver_options.seed = 21;
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);
  driver.set_tracer(tracer);
  metrics.RecordMachines(0, cluster.active_nodes());

  FaultInjector injector(&loop, &cluster, &metrics,
                         FaultSchedule::Scripted(config.faults));
  injector.set_tracer(tracer);
  migration.set_fault_hook(&injector);
  injector.Arm();

  // Controller under test.
  std::unique_ptr<OnlinePredictor> online;
  std::unique_ptr<PredictiveController> pstore_controller;
  std::unique_ptr<ReactiveController> reactive_controller;
  if (config.spec.strategy == Strategy::kPredictive) {
    const bool use_oracle = config.predictor_spec == "oracle";
    OnlinePredictorOptions predictor_options;
    predictor_options.inflation = 1.1;
    predictor_options.refit_interval = 1u << 30;  // the oracle never re-fits
    predictor_options.training_window = 10;
    std::unique_ptr<LoadPredictor> model;
    if (use_oracle) {
      model = std::make_unique<OraclePredictor>(trace);
    } else {
      // Real models re-fit on the whole growing history every 150 slots.
      StatusOr<std::unique_ptr<LoadPredictor>> made = MakePredictor(
          config.predictor_spec, DrillPredictorContext(slot_seconds));
      PSTORE_CHECK_OK(made.status());
      model = std::move(*made);
      predictor_options.refit_interval = 150;
      predictor_options.training_window = trace.size();
    }
    online = std::make_unique<OnlinePredictor>(std::move(model),
                                               predictor_options);
    online->set_tracer(tracer, [&loop] { return loop.now(); });
    if (use_oracle) {
      PSTORE_CHECK_OK(online->Warmup(trace.Slice(0, 1)));
    } else {
      // A spec'd model rarely has enough history at t=0; the online
      // wrapper serves the flat fallback until a periodic re-fit
      // succeeds.
      (void)online->Warmup(trace.Slice(0, 1));
    }
    PredictiveControllerOptions options;
    options.slot_sim_seconds = slot_seconds;
    options.plan_slot_factor = 5;
    options.horizon_plan_slots = 20;
    options.planner_params.target_rate_per_node = 285.0;
    options.planner_params.max_rate_per_node = 350.0;
    options.planner_params.partitions_per_node = 6;
    options.planner_params.d_slots = SingleThreadFullMigrationSeconds(
        cluster.TotalDataBytes(), migration_options) / 30.0;
    pstore_controller = std::make_unique<PredictiveController>(
        &loop, &cluster, &executor, &migration, online.get(), options);
    pstore_controller->set_tracer(tracer);
    pstore_controller->Start();
  } else {
    PSTORE_CHECK(config.spec.strategy == Strategy::kReactive);
    ReactiveControllerOptions options;
    options.slot_sim_seconds = slot_seconds;
    options.planner_params.target_rate_per_node = 285.0;
    options.planner_params.max_rate_per_node = 350.0;
    options.planner_params.partitions_per_node = 6;
    reactive_controller = std::make_unique<ReactiveController>(
        &loop, &cluster, &executor, &migration, options);
    reactive_controller->Start();
  }

  const SimTime end = FromSeconds(config.total_seconds);
  driver.Start(end);
  loop.RunUntil(end);

  DrillResult result;
  result.fault_events = injector.schedule().events().size();
  result.submitted = executor.submitted_count();
  result.committed = executor.committed_count();
  result.unavailable = executor.unavailable_count();
  result.reconfigs_completed =
      static_cast<int64_t>(migration.reconfigurations_completed());
  result.reconfigs_failed =
      static_cast<int64_t>(migration.reconfigurations_failed());
  result.chunk_retries = migration.chunk_retries().value();
  result.chunks_aborted = migration.chunks_aborted().value();
  result.fault_stats = injector.stats();
  if (pstore_controller != nullptr) {
    result.predictive = true;
    result.moves_started = pstore_controller->reconfigurations_started();
    result.move_failures = pstore_controller->move_failures();
    result.replans = pstore_controller->replans_after_failure();
    result.model_switches = pstore_controller->model_switches();
  } else {
    result.scale_outs = reactive_controller->scale_outs();
    result.scale_ins = reactive_controller->scale_ins();
    result.move_failures = reactive_controller->move_failures();
  }
  result.avg_machines = metrics.AverageMachines(end);
  result.windows = metrics.Finalize(end);
  result.sla = MetricsCollector::AttributeViolations(result.windows);

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
                 .With("controller", config.spec.label)
                     .With("submitted", result.submitted)
                     .With("committed", result.committed)
                     .With("unavailable", result.unavailable)
                     .With("chunk_retries", result.chunk_retries)
                     .With("avg_machines", result.avg_machines)
                     .With("sla_p99_violations", result.sla.total.p99));
  }
  return result;
}

void PrintAttribution(const SlaAttribution& sla) {
  std::printf("SLA violations (windows over 500 ms), by attribution:\n");
  std::printf("  %-12s %8s %8s %8s\n", "", "p50", "p95", "p99");
  const auto row = [](const char* name, const SlaViolations& v) {
    std::printf("  %-12s %8lld %8lld %8lld\n", name,
                static_cast<long long>(v.p50), static_cast<long long>(v.p95),
                static_cast<long long>(v.p99));
  };
  row("fault", sla.during_fault);
  row("migration", sla.during_migration);
  row("baseline", sla.baseline);
  row("total", sla.total);
}

void PrintDrill(const DrillConfig& config, const DrillResult& result,
                int64_t minutes) {
  std::printf("Chaos drill: %s controller, %lld min, %zu fault events\n\n",
              config.spec.label.c_str(), static_cast<long long>(minutes),
              result.fault_events);
  std::printf("transactions:         %lld submitted, %lld committed, "
              "%lld unavailable\n",
              static_cast<long long>(result.submitted),
              static_cast<long long>(result.committed),
              static_cast<long long>(result.unavailable));
  std::printf("reconfigurations:     %lld completed, %lld failed\n",
              static_cast<long long>(result.reconfigs_completed),
              static_cast<long long>(result.reconfigs_failed));
  std::printf("chunk retries:        %lld (%lld from injected aborts)\n",
              static_cast<long long>(result.chunk_retries),
              static_cast<long long>(result.chunks_aborted));
  const FaultInjector::Stats& stats = result.fault_stats;
  std::printf("faults applied:       %lld crashes, %lld stragglers, "
              "%lld degradations, %lld/%lld chunk aborts consumed\n",
              static_cast<long long>(stats.crashes),
              static_cast<long long>(stats.stragglers),
              static_cast<long long>(stats.degradations),
              static_cast<long long>(stats.chunk_aborts_consumed),
              static_cast<long long>(stats.chunk_aborts_armed));
  if (result.predictive) {
    std::printf("controller:           %lld moves started, %lld failed, "
                "%lld immediate re-plans, %lld model switches\n",
                static_cast<long long>(result.moves_started),
                static_cast<long long>(result.move_failures),
                static_cast<long long>(result.replans),
                static_cast<long long>(result.model_switches));
  } else {
    std::printf("controller:           %lld scale-outs, %lld scale-ins, "
                "%lld failed moves\n",
                static_cast<long long>(result.scale_outs),
                static_cast<long long>(result.scale_ins),
                static_cast<long long>(result.move_failures));
  }
  std::printf("average machines:     %.2f\n\n", result.avg_machines);
  PrintAttribution(result.sla);
}

std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> parts;
  std::string::size_type begin = 0;
  while (begin <= value.size()) {
    const std::string::size_type comma = value.find(',', begin);
    const std::string::size_type end =
        comma == std::string::npos ? value.size() : comma;
    if (end > begin) parts.push_back(value.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  const Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Fail(parsed.ToString());
  static const std::set<std::string> kKnownFlags = {
      "minutes", "nodes", "base-rate", "peak-rate", "step-minute",
      "crash-node", "crash-at", "recover-at", "seed", "crash-rate",
      "straggler-rate", "degrade-rate", "chunk-abort-rate", "mean-outage",
      "mean-straggler", "mean-degrade", "threads", "predictor",
      "controller", "trace-out", "bench-json"};
  for (const auto& [name, value] : flags.flags()) {
    if (kKnownFlags.count(name) == 0) {
      return Fail("--" + name + ": unknown flag");
    }
  }

  const StatusOr<int64_t> minutes = flags.GetInt("minutes", 24);
  const StatusOr<int64_t> nodes = flags.GetInt("nodes", 2);
  const StatusOr<double> base_rate = flags.GetDouble("base-rate", 300.0);
  const StatusOr<double> peak_rate = flags.GetDouble("peak-rate", 800.0);
  const StatusOr<int64_t> step_minute = flags.GetInt("step-minute", 12);
  const StatusOr<int64_t> crash_node = flags.GetInt("crash-node", -1);
  const StatusOr<double> crash_at = flags.GetDouble("crash-at", 640.0);
  const StatusOr<double> recover_at = flags.GetDouble("recover-at", 700.0);
  const StatusOr<int64_t> seed = flags.GetInt("seed", 0);
  const StatusOr<double> crash_rate = flags.GetDouble("crash-rate", 0.0);
  const StatusOr<double> straggler_rate =
      flags.GetDouble("straggler-rate", 0.0);
  const StatusOr<double> degrade_rate = flags.GetDouble("degrade-rate", 0.0);
  const StatusOr<double> abort_rate = flags.GetDouble("chunk-abort-rate", 0.0);
  const StatusOr<double> mean_outage = flags.GetDouble("mean-outage", 60.0);
  const StatusOr<double> mean_straggler =
      flags.GetDouble("mean-straggler", 45.0);
  const StatusOr<double> mean_degrade = flags.GetDouble("mean-degrade", 90.0);
  const StatusOr<int64_t> threads = flags.GetInt("threads", 0);
  for (const Status& status :
       {minutes.status(), nodes.status(), base_rate.status(),
        peak_rate.status(), step_minute.status(), crash_node.status(),
        crash_at.status(), recover_at.status(), seed.status(),
        crash_rate.status(), straggler_rate.status(), degrade_rate.status(),
        abort_rate.status(), mean_outage.status(), mean_straggler.status(),
        mean_degrade.status(), threads.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }
  if (*minutes < 1) return Fail("--minutes must be >= 1");
  if (*nodes < 1 || *nodes > 10) return Fail("--nodes outside [1, 10]");
  const double total_seconds = static_cast<double>(*minutes) * 60.0;

  // Load trace description: base rate stepping to the peak at
  // --step-minute, on 6 s slots (the controller's monitoring
  // granularity). Each drill materializes its own copy.
  const double slot_seconds = 6.0;
  WorkloadSpec workload;
  workload.kind = WorkloadSpec::Kind::kStep;
  workload.step_slot_seconds = slot_seconds;
  workload.step_slots =
      static_cast<size_t>(total_seconds / slot_seconds + 0.5);
  workload.step_at_slot =
      static_cast<size_t>(*step_minute * 60.0 / slot_seconds + 0.5);
  workload.base_rate = *base_rate;
  workload.peak_rate = *peak_rate;

  // Fault schedule: scripted crash window plus optional seeded-random
  // streams, merged into one time-ordered schedule (shared by every
  // drill, so controllers face the identical storm).
  std::vector<FaultEvent> events;
  if (*crash_node >= 0) {
    if (*crash_node >= 10) return Fail("--crash-node outside the cluster");
    FaultEvent crash;
    crash.at = FromSeconds(*crash_at);
    crash.kind = FaultKind::kNodeCrash;
    crash.node = static_cast<int>(*crash_node);
    events.push_back(crash);
    if (*recover_at > *crash_at) {
      FaultEvent recover = crash;
      recover.at = FromSeconds(*recover_at);
      recover.kind = FaultKind::kNodeRecover;
      events.push_back(recover);
    }
  }
  if (*seed != 0) {
    FaultScheduleOptions fault_options;
    fault_options.seed = static_cast<uint64_t>(*seed);
    fault_options.horizon_seconds = total_seconds;
    fault_options.max_node = 9;
    fault_options.crash_rate_per_hour = *crash_rate;
    fault_options.mean_outage_seconds = *mean_outage;
    fault_options.chunk_abort_rate_per_hour = *abort_rate;
    fault_options.straggler_rate_per_hour = *straggler_rate;
    fault_options.mean_straggler_seconds = *mean_straggler;
    fault_options.degrade_rate_per_hour = *degrade_rate;
    fault_options.mean_degrade_seconds = *mean_degrade;
    const FaultSchedule random = FaultSchedule::SeededRandom(fault_options);
    events.insert(events.end(), random.events().begin(),
                  random.events().end());
  }

  // Forecast model for pstore drills, built once here with the drills'
  // own context (RunDrill CHECKs, so a typo or an out-of-range knob must
  // fail here with a real message).
  const std::string predictor_spec = flags.GetString("predictor", "oracle");
  if (predictor_spec != "oracle") {
    const StatusOr<std::unique_ptr<LoadPredictor>> model_check =
        MakePredictor(predictor_spec, DrillPredictorContext(slot_seconds));
    if (!model_check.ok()) {
      return Fail("--predictor: " + model_check.status().ToString());
    }
  }

  // One drill per requested controller.
  const std::string controller_flag = flags.GetString("controller", "pstore");
  const std::vector<std::string> controller_names =
      SplitCommaList(controller_flag);
  if (controller_names.empty()) return Fail("--controller lists nothing");
  std::vector<DrillConfig> drills;
  for (const std::string& name : controller_names) {
    StatusOr<Strategy> strategy = ParseStrategy(name);
    if (!strategy.ok() || (*strategy != Strategy::kPredictive &&
                           *strategy != Strategy::kReactive)) {
      return Fail("unknown --controller (pstore|reactive): " + name);
    }
    DrillConfig drill;
    drill.spec.label = StrategyName(*strategy);
    drill.spec.strategy = *strategy;
    drill.spec.workload = workload;
    drill.nodes = static_cast<int>(*nodes);
    drill.total_seconds = total_seconds;
    drill.faults = events;
    drill.predictor_spec = predictor_spec;
    drills.push_back(std::move(drill));
  }

  // Structured run trace (single controller only: a Tracer is one
  // single-threaded sink).
  const std::string trace_out = flags.GetString("trace-out", "");
  obs::Tracer tracer;
  if (!trace_out.empty()) {
    if (drills.size() > 1) {
      return Fail("--trace-out needs a single --controller");
    }
    const Status opened = tracer.OpenJsonl(trace_out);
    if (!opened.ok()) return Fail(opened.ToString());
    drills[0].spec.tracer = &tracer;
  }

  // Run the drills concurrently; results come back by drill index, so
  // the printed reports are in --controller order regardless of the
  // thread count.
  std::vector<DrillResult> results(drills.size());
  {
    ThreadPool pool(ResolveThreadCount(*threads));
    pool.ParallelFor(drills.size(),
                     [&](size_t i) { results[i] = RunDrill(drills[i]); });
  }
  for (size_t i = 0; i < drills.size(); ++i) {
    if (i > 0) std::printf("\n");
    PrintDrill(drills[i], results[i], *minutes);
  }

  if (!trace_out.empty()) {
    const Status closed = tracer.Close();
    if (!closed.ok()) return Fail(closed.ToString());
    std::printf("\nTrace: %lld events -> %s (render with pstore_report "
                "--trace=%s)\n",
                static_cast<long long>(tracer.events_emitted()),
                trace_out.c_str(), trace_out.c_str());
  }

  const std::string bench_json = flags.GetString("bench-json", "");
  if (!bench_json.empty()) {
    obs::MetricsRegistry registry;
    for (size_t i = 0; i < drills.size(); ++i) {
      const DrillResult& result = results[i];
      // Single-controller drills keep the historical metric names;
      // multi-controller runs qualify them per controller.
      const std::string prefix =
          drills.size() == 1 ? "" : drills[i].spec.label + ".";
      registry.GetCounter(prefix + "engine.txn_submitted")
          ->Increment(result.submitted);
      registry.GetCounter(prefix + "engine.txn_committed")
          ->Increment(result.committed);
      registry.GetCounter(prefix + "engine.txn_unavailable")
          ->Increment(result.unavailable);
      registry.GetCounter(prefix + "migration.completed")
          ->Increment(result.reconfigs_completed);
      registry.GetCounter(prefix + "migration.failed")
          ->Increment(result.reconfigs_failed);
      registry.GetCounter(prefix + "migration.chunk_retries")
          ->Increment(result.chunk_retries);
      registry.GetCounter(prefix + "fault.crashes")
          ->Increment(result.fault_stats.crashes);
      registry.GetCounter(prefix + "fault.stragglers")
          ->Increment(result.fault_stats.stragglers);
      registry.GetGauge(prefix + "engine.avg_machines")
          ->Set(result.avg_machines);
      registry.GetCounter(prefix + "sla.p99_violations")
          ->Increment(result.sla.total.p99);
      registry.GetCounter(prefix + "sla.p99_during_fault")
          ->Increment(result.sla.during_fault.p99);
      registry.GetCounter(prefix + "sla.p99_during_migration")
          ->Increment(result.sla.during_migration.p99);
    }
    const Status written = registry.WriteJson(bench_json);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("Metrics: %s\n", bench_json.c_str());
  }
  return 0;
}
