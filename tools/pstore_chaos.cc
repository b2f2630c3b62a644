// pstore_chaos: chaos-drill driver for the live engine. Runs the B2W
// workload from a synthetic step trace under a chosen controller while a
// fault schedule (scripted crash and/or seeded-random fault streams)
// plays against the cluster, then reports recovery behaviour: chunk
// retries, failed reconfigurations, controller re-plans, unavailable
// transactions, and SLA violations attributed to fault / migration /
// baseline windows. Each drill is one RunEngine call
// (controller/engine_run.h), the assembly the engine benches share.
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
//   Scripted drill (crash node mid-scale-out; --crash-at and
//   --recover-at are seconds and need --crash-node):
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
// Unknown flags, negative or non-finite rates and times, and mean
// durations <= 0 are rejected with "error: --<flag>: ...".
//
// Machine-readable outputs:
//   --trace-out=run.jsonl   structured event trace across the whole
//                           stack (controller, predictor, planner,
//                           migration, faults); render with
//                           pstore_report --trace=run.jsonl (single
//                           controller only: a Tracer is one sink)
//   --bench-json=out.json   headline metrics as a JSON metrics registry

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "controller/engine_run.h"
#include "engine/metrics.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"
#include "sim/run_spec.h"

using namespace pstore;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
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

void PrintDrill(const RunSpec& spec, const EngineRunResult& result,
                int64_t minutes) {
  std::printf("Chaos drill: %s controller, %lld min, %zu fault events\n\n",
              spec.label.c_str(), static_cast<long long>(minutes),
              result.fault_events);
  std::printf("transactions:         %lld submitted, %lld committed, "
              "%lld unavailable\n",
              static_cast<long long>(result.submitted),
              static_cast<long long>(result.committed),
              static_cast<long long>(result.unavailable));
  std::printf("reconfigurations:     %lld completed, %lld failed\n",
              static_cast<long long>(result.reconfigurations),
              static_cast<long long>(result.failed_reconfigurations));
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
  if (spec.strategy == Strategy::kPredictive) {
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
  const std::string predictor_spec = flags.GetString("predictor", "oracle");
  const std::string controller_flag = flags.GetString("controller", "pstore");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string bench_json = flags.GetString("bench-json", "");
  const Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) return Fail(all_read.message());
  for (const Status& status :
       {minutes.status(), nodes.status(), base_rate.status(),
        peak_rate.status(), step_minute.status(), crash_node.status(),
        crash_at.status(), recover_at.status(), seed.status(),
        crash_rate.status(), straggler_rate.status(), degrade_rate.status(),
        abort_rate.status(), mean_outage.status(), mean_straggler.status(),
        mean_degrade.status(), threads.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }

  // The drill's engine: a 10-node-max cluster running B2W with a fast
  // migration, the same shape as the controller tests so drills are
  // comparable with known-good behaviour.
  EngineRunOptions options;
  options.cluster.max_nodes = 10;
  options.cluster.num_buckets = 1200;
  options.b2w.cart_pool = 20000;
  options.b2w.checkout_pool = 8000;
  options.migration.net_rate_bytes_per_sec = 200e3;
  options.migration.chunk_spacing_seconds = 0.5;
  options.migration.chunk_bytes = 256 * 1024;
  options.driver.seed = 21;
  options.predictor.inflation = 1.1;
  options.controller.horizon_plan_slots = 20;
  const int64_t max_nodes = options.cluster.max_nodes;

  if (*minutes < 1) return Fail("--minutes: must be >= 1");
  if (*nodes < 1 || *nodes > max_nodes) {
    return Fail("--nodes: outside [1, " + std::to_string(max_nodes) + "]");
  }
  if (*step_minute < 0) return Fail("--step-minute: must be >= 0");
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"base-rate", *base_rate},
        {"peak-rate", *peak_rate}, {"crash-at", *crash_at},
        {"recover-at", *recover_at}, {"crash-rate", *crash_rate},
        {"straggler-rate", *straggler_rate},
        {"degrade-rate", *degrade_rate}, {"chunk-abort-rate", *abort_rate}}) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      return Fail(std::string("--") + name + ": must be finite and >= 0");
    }
  }
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"mean-outage", *mean_outage},
        {"mean-straggler", *mean_straggler},
        {"mean-degrade", *mean_degrade}}) {
    if (!(std::isfinite(value) && value > 0.0)) {
      return Fail(std::string("--") + name + ": must be finite and > 0");
    }
  }
  if (*crash_node < 0) {
    for (const char* name : {"crash-at", "recover-at"}) {
      if (flags.flags().count(name) != 0) {
        return Fail(std::string("--") + name + ": needs --crash-node");
      }
    }
  }
  if (*crash_node >= max_nodes) {
    return Fail("--crash-node: outside the cluster [0, " +
                std::to_string(max_nodes - 1) + "]");
  }
  options.cluster.initial_nodes = static_cast<int>(*nodes);
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
  workload.step_at_slot = static_cast<size_t>(
      static_cast<double>(*step_minute) * 60.0 / slot_seconds + 0.5);
  workload.base_rate = *base_rate;
  workload.peak_rate = *peak_rate;

  // Fault schedule: scripted crash window plus optional seeded-random
  // streams, merged into one time-ordered schedule (shared by every
  // drill, so controllers face the identical storm).
  if (*crash_node >= 0) {
    FaultEvent crash;
    crash.at = FromSeconds(*crash_at);
    crash.kind = FaultKind::kNodeCrash;
    crash.node = static_cast<int>(*crash_node);
    options.faults.push_back(crash);
    if (*recover_at > *crash_at) {
      FaultEvent recover = crash;
      recover.at = FromSeconds(*recover_at);
      recover.kind = FaultKind::kNodeRecover;
      options.faults.push_back(recover);
    }
  }
  if (*seed != 0) {
    FaultScheduleOptions fault_options;
    fault_options.seed = static_cast<uint64_t>(*seed);
    fault_options.horizon_seconds = total_seconds;
    fault_options.max_node = static_cast<int>(max_nodes) - 1;
    fault_options.crash_rate_per_hour = *crash_rate;
    fault_options.mean_outage_seconds = *mean_outage;
    fault_options.chunk_abort_rate_per_hour = *abort_rate;
    fault_options.straggler_rate_per_hour = *straggler_rate;
    fault_options.mean_straggler_seconds = *mean_straggler;
    fault_options.degrade_rate_per_hour = *degrade_rate;
    fault_options.mean_degrade_seconds = *mean_degrade;
    const StatusOr<FaultSchedule> random =
        FaultSchedule::SeededRandom(fault_options);
    if (!random.ok()) return Fail(random.status().ToString());
    options.faults.insert(options.faults.end(), random->events().begin(),
                          random->events().end());
  }

  // Forecast model for pstore drills. The oracle never re-fits; a spec'd
  // model re-fits on the whole growing history every 150 slots, and is
  // built here once with the drills' own context so a typo or an
  // out-of-range knob fails with the flag's name.
  if (predictor_spec == "oracle") {
    options.predictor.refit_interval = 1u << 30;
    options.predictor.training_window = 10;
  } else {
    options.predictor.refit_interval = 150;
    options.predictor.training_window = workload.step_slots;
    const StatusOr<std::unique_ptr<LoadPredictor>> model_check =
        MakePredictor(predictor_spec,
                      EnginePredictorContext(slot_seconds, options.controller));
    if (!model_check.ok()) {
      return Fail("--predictor: " + model_check.status().ToString());
    }
  }

  // One drill per requested controller.
  const std::vector<std::string> controller_names =
      SplitCommaList(controller_flag);
  if (controller_names.empty()) return Fail("--controller: lists nothing");
  std::vector<RunSpec> drills;
  for (const std::string& name : controller_names) {
    StatusOr<Strategy> strategy = ParseStrategy(name);
    if (!strategy.ok() || (*strategy != Strategy::kPredictive &&
                           *strategy != Strategy::kReactive)) {
      return Fail("--controller: want pstore or reactive, got " + name);
    }
    RunSpec drill;
    drill.label = StrategyName(*strategy);
    drill.strategy = *strategy;
    drill.workload = workload;
    drill.predictor_spec = predictor_spec;
    drills.push_back(std::move(drill));
  }

  // Structured run trace (single controller only: a Tracer is one
  // single-threaded sink).
  obs::Tracer tracer;
  if (!trace_out.empty()) {
    if (drills.size() > 1) {
      return Fail("--trace-out: needs a single --controller");
    }
    const Status opened = tracer.OpenJsonl(trace_out);
    if (!opened.ok()) return Fail(opened.ToString());
    drills[0].tracer = &tracer;
  }

  // Run the drills concurrently; results come back by drill index, so
  // the printed reports are in --controller order regardless of the
  // thread count.
  std::vector<EngineRunResult> results(drills.size());
  {
    ThreadPool pool(ResolveThreadCount(*threads));
    const Status ran =
        pool.ParallelForStatus(drills.size(), [&](size_t i) -> Status {
          StatusOr<EngineRunResult> result = RunEngine(drills[i], options);
          if (!result.ok()) return result.status();
          results[i] = std::move(result).value();
          return Status::OK();
        });
    if (!ran.ok()) return Fail(ran.ToString());
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

  if (!bench_json.empty()) {
    obs::MetricsRegistry registry;
    for (size_t i = 0; i < drills.size(); ++i) {
      const EngineRunResult& result = results[i];
      // Single-controller drills keep the historical metric names;
      // multi-controller runs qualify them per controller.
      const std::string prefix =
          drills.size() == 1 ? "" : drills[i].label + ".";
      registry.GetCounter(prefix + "engine.txn_submitted")
          ->Increment(result.submitted);
      registry.GetCounter(prefix + "engine.txn_committed")
          ->Increment(result.committed);
      registry.GetCounter(prefix + "engine.txn_unavailable")
          ->Increment(result.unavailable);
      registry.GetCounter(prefix + "migration.completed")
          ->Increment(result.reconfigurations);
      registry.GetCounter(prefix + "migration.failed")
          ->Increment(result.failed_reconfigurations);
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
