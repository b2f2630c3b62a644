// pstore_simulate: run the long-horizon capacity simulator over a trace
// CSV with one or more allocation strategies — the Fig. 12 machinery as
// a CLI for operators exploring their own traces.
//
// Usage:
//   pstore_simulate --trace=trace.csv --strategy=pstore
//       [--q=285 --qhat=350 --d-minutes=77 --partitions=6]
//       [--train-days=28] [--inflation=1.15]
//       [--predictor='spar(n=7,m=6)']
//
// --predictor takes a predictor spec (prediction/predictor_spec.h
// grammar): spar, ar(p=8), hw, mf(rank=4), shift(spar),
// ensemble(spar,ar,hw,mode=switch), ... The model is built at the
// planning granularity (period = one day of planning slots, max_tau =
// the planning horizon) and fitted on the pre-eval prefix of the
// 5-minute downsampled trace — the default spec reproduces the paper's
// SPAR(7,6) setup exactly.
//   pstore_simulate --trace=trace.csv --strategy=reactive [--watermark=1.1]
//   pstore_simulate --trace=trace.csv --strategy=static --nodes=10
//   pstore_simulate --trace=trace.csv --strategy=simple --day-nodes=10
//       --night-nodes=3
//
// --strategy accepts a comma list ("pstore,reactive,static"); the runs
// are independent RunSpecs evaluated concurrently on --threads N worker
// threads (default: hardware concurrency) with results reported in
// strategy order — identical for any thread count.
//
// Optional seeded-random fault injection (identical --seed reproduces
// the identical fault stream): node crashes and stragglers degrade the
// effective capacity while active, and violations occurring under a
// fault are reported separately.
//   pstore_simulate --trace=trace.csv --seed=7 --crash-rate=0.1
//       [--mean-outage-minutes=30] [--straggler-rate=0.2]
//       [--fault-nodes=10]
// Rates must be finite and >= 0 and the mean outage > 0. --q,
// --d-minutes, --inflation and --watermark must be finite and > 0,
// --qhat at least --q, --partitions, --day-nodes and --night-nodes at
// least 1, and --train-days at least 0; each violation exits with
// "error: --<flag>: ...". Unknown flags are rejected with
// "error: --<flag>: unknown flag".
//
// Machine-readable outputs:
//   --trace-out=run.jsonl   structured event trace with sweep telemetry
//                           (see pstore_report); per-cycle simulator
//                           events are included for single-strategy runs
//   --csv-out=sweep.csv     deterministic per-strategy result rows
//   --bench-json=out.json   headline metrics as a JSON metrics registry

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/time_series.h"
#include "fault/fault_schedule.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"
#include "sim/capacity_simulator.h"
#include "sim/run_spec.h"
#include "trace/trace_io.h"

using namespace pstore;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

void Report(const SimResult& result, double slot_seconds) {
  const double hours = result.machine_slots * slot_seconds / 3600.0;
  std::printf("machine-hours:        %.0f\n", hours);
  std::printf("insufficient slots:   %lld (%.3f%% of time)\n",
              static_cast<long long>(result.insufficient_slots),
              100.0 * result.insufficient_fraction);
  std::printf("reconfigurations:     %d\n", result.reconfigurations);
  if (result.fault_slots > 0) {
    std::printf("fault slots:          %lld (%lld insufficient during "
                "fault)\n",
                static_cast<long long>(result.fault_slots),
                static_cast<long long>(
                    result.insufficient_during_fault_slots));
  }
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

  const std::string trace_path = flags.GetString("trace", "");
  const std::string strategy_flag = flags.GetString("strategy", "pstore");
  const StatusOr<double> q = flags.GetDouble("q", 285.0);
  const StatusOr<double> qhat = flags.GetDouble("qhat", 350.0);
  const StatusOr<double> d_minutes = flags.GetDouble("d-minutes", 77.0);
  const StatusOr<int64_t> partitions = flags.GetInt("partitions", 6);
  const StatusOr<int64_t> train_days = flags.GetInt("train-days", 28);
  const StatusOr<double> inflation = flags.GetDouble("inflation", 1.15);
  const StatusOr<int64_t> threads = flags.GetInt("threads", 0);
  const std::string predictor_spec =
      flags.GetString("predictor", "spar(n=7,m=6)");
  // Strategy knobs, read whether or not their strategy runs.
  const StatusOr<double> watermark =
      flags.GetDouble("watermark", ReactiveSimParams{}.high_watermark);
  const StatusOr<int64_t> static_nodes = flags.GetInt("nodes", 10);
  const StatusOr<int64_t> day_nodes = flags.GetInt("day-nodes", 10);
  const StatusOr<int64_t> night_nodes = flags.GetInt("night-nodes", 3);
  // Seeded-random fault stream, mapped onto capacity windows.
  const StatusOr<int64_t> seed = flags.GetInt("seed", 0);
  const StatusOr<double> crash_rate = flags.GetDouble("crash-rate", 0.0);
  const StatusOr<double> mean_outage =
      flags.GetDouble("mean-outage-minutes", 30.0);
  const StatusOr<double> straggler_rate =
      flags.GetDouble("straggler-rate", 0.0);
  const StatusOr<int64_t> fault_nodes = flags.GetInt("fault-nodes", 10);
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string csv_out = flags.GetString("csv-out", "");
  const std::string bench_json = flags.GetString("bench-json", "");
  const Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) return Fail(all_read.message());
  for (const Status& status :
       {q.status(), qhat.status(), d_minutes.status(), partitions.status(),
        train_days.status(), inflation.status(), threads.status(),
        watermark.status(), static_nodes.status(), day_nodes.status(),
        night_nodes.status(), seed.status(), crash_rate.status(),
        mean_outage.status(), straggler_rate.status(),
        fault_nodes.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"crash-rate", *crash_rate},
        {"straggler-rate", *straggler_rate}}) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      return Fail(std::string("--") + name + ": must be finite and >= 0");
    }
  }
  if (!(std::isfinite(*mean_outage) && *mean_outage > 0.0)) {
    return Fail("--mean-outage-minutes: must be finite and > 0");
  }
  // Knobs the simulator would otherwise CHECK-abort on, or run with
  // silently: a zero or NaN inflation clamps every forecast to 0, and a
  // NaN watermark never fires.
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"q", *q}, {"d-minutes", *d_minutes},
        {"inflation", *inflation}, {"watermark", *watermark}}) {
    if (!(std::isfinite(value) && value > 0.0)) {
      return Fail(std::string("--") + name + ": must be finite and > 0");
    }
  }
  if (!(std::isfinite(*qhat) && *qhat >= *q)) {
    return Fail("--qhat: must be finite and >= --q");
  }
  for (const auto& [name, value] :
       {std::pair<const char*, int64_t>{"partitions", *partitions},
        {"day-nodes", *day_nodes}, {"night-nodes", *night_nodes}}) {
    if (value < 1 || value > std::numeric_limits<int>::max()) {
      return Fail(std::string("--") + name + ": must be >= 1 and fit an int");
    }
  }
  if (*train_days < 0) return Fail("--train-days: must be >= 0");

  if (trace_path.empty()) return Fail("--trace=<csv> is required");
  StatusOr<TimeSeries> trace = LoadTraceCsv(trace_path);
  if (!trace.ok()) return Fail(trace.status().ToString());

  const double slot_seconds = trace->slot_seconds();
  const size_t slots_per_day =
      static_cast<size_t>(86400.0 / slot_seconds + 0.5);

  SimOptions options;
  options.q = *q;
  options.q_hat = *qhat;
  options.d_fine_slots = *d_minutes * 60.0 / slot_seconds;
  options.partitions_per_node = static_cast<int>(*partitions);
  options.inflation = *inflation;
  options.initial_nodes = 4;
  options.max_nodes = 80;
  // Bounded by the trace before the multiply, so it cannot wrap.
  if (static_cast<uint64_t>(*train_days) >= trace->size()) {
    return Fail("trace too short for --train-days plus one day");
  }
  options.eval_begin = static_cast<size_t>(*train_days) * slots_per_day;
  if (options.eval_begin + slots_per_day >= trace->size()) {
    return Fail("trace too short for --train-days plus one day");
  }

  if (*seed != 0 && (*crash_rate > 0.0 || *straggler_rate > 0.0)) {
    if (*fault_nodes < 1) return Fail("--fault-nodes must be >= 1");
    FaultScheduleOptions fault_options;
    fault_options.seed = static_cast<uint64_t>(*seed);
    fault_options.horizon_seconds =
        static_cast<double>(trace->size()) * slot_seconds;
    fault_options.max_node = static_cast<int>(*fault_nodes) - 1;
    fault_options.crash_rate_per_hour = *crash_rate;
    fault_options.mean_outage_seconds = *mean_outage * 60.0;
    fault_options.straggler_rate_per_hour = *straggler_rate;
    const StatusOr<FaultSchedule> schedule =
        FaultSchedule::SeededRandom(fault_options);
    if (!schedule.ok()) return Fail(schedule.status().ToString());
    options.faults = ToCapacityFaults(*schedule, slot_seconds,
                                      static_cast<int>(*fault_nodes));
    std::printf("Fault stream: seed %lld, %zu events, %zu capacity "
                "windows\n",
                static_cast<long long>(*seed), schedule->events().size(),
                options.faults.size());
  }
  options.fine_slot_sim_seconds = slot_seconds;

  // One RunSpec per requested strategy, all borrowing the loaded trace.
  const std::vector<std::string> strategy_names =
      SplitCommaList(strategy_flag);
  if (strategy_names.empty()) return Fail("--strategy lists no strategy");

  // Predictor spec for kPredictive runs; built up front with RunOne's
  // context so a typo or an out-of-range knob fails before any strategy
  // runs. RunOne materializes and fits one instance per predictive task
  // (see RunSpec::predictor_spec).
  {
    const StatusOr<std::unique_ptr<LoadPredictor>> model_check =
        MakePredictor(predictor_spec,
                      SimPredictorContext(options, slot_seconds));
    if (!model_check.ok()) {
      return Fail("--predictor: " + model_check.status().ToString());
    }
  }

  std::vector<RunSpec> specs;
  for (const std::string& name : strategy_names) {
    StatusOr<Strategy> strategy = ParseStrategy(name);
    if (!strategy.ok()) return Fail(strategy.status().ToString());

    RunSpec spec;
    spec.label = StrategyName(*strategy);
    spec.workload.kind = WorkloadSpec::Kind::kProvided;
    spec.workload.provided = &*trace;
    spec.sim = options;
    spec.strategy = *strategy;
    switch (*strategy) {
      case Strategy::kPredictive: {
        spec.predictor_spec = predictor_spec;
        break;
      }
      case Strategy::kReactive: {
        spec.reactive.high_watermark = *watermark;
        break;
      }
      case Strategy::kStatic: {
        spec.static_nodes = static_cast<int>(*static_nodes);
        break;
      }
      case Strategy::kSimple: {
        spec.simple.slots_per_day = static_cast<int>(slots_per_day);
        spec.simple.day_nodes = static_cast<int>(*day_nodes);
        spec.simple.night_nodes = static_cast<int>(*night_nodes);
        break;
      }
    }
    specs.push_back(spec);
  }

  // Structured run trace: sweep telemetry always; per-cycle simulator
  // events only for a single-strategy run (a Tracer is single-threaded,
  // so concurrent specs cannot share it).
  obs::Tracer tracer;
  if (!trace_out.empty()) {
    const Status opened = tracer.OpenJsonl(trace_out);
    if (!opened.ok()) return Fail(opened.ToString());
    if (specs.size() == 1) specs[0].tracer = &tracer;
  }

  SweepOptions sweep_options;
  sweep_options.threads = static_cast<int>(*threads);
  if (!trace_out.empty()) sweep_options.tracer = &tracer;

  std::printf("Strategies [%s] over %zu evaluation slots (Q=%.0f "
              "Qhat=%.0f D=%.0fmin)\n",
              strategy_flag.c_str(),
              trace->size() - options.eval_begin, *q, *qhat, *d_minutes);
  const StatusOr<SweepResult> sweep = RunSweep(specs, sweep_options);
  if (!sweep.ok()) return Fail(sweep.status().ToString());
  std::printf("(%zu run(s) on %d thread(s))\n", specs.size(),
              sweep->threads);

  for (size_t i = 0; i < specs.size(); ++i) {
    std::printf("\n[%s]\n", specs[i].label.c_str());
    Report(sweep->results[i], slot_seconds);
  }

  if (!csv_out.empty()) {
    const std::string rows = SweepCsvRows(specs, *sweep);
    std::FILE* file = std::fopen(csv_out.c_str(), "w");
    if (file == nullptr) return Fail("cannot open " + csv_out);
    std::fwrite(rows.data(), 1, rows.size(), file);
    if (std::fclose(file) != 0) return Fail("write failed: " + csv_out);
    std::printf("\nSweep CSV: %s\n", csv_out.c_str());
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
    for (size_t i = 0; i < specs.size(); ++i) {
      const SimResult& sim_result = sweep->results[i];
      // Single-strategy runs keep the historical "sim." metric names;
      // sweeps qualify them per strategy.
      const std::string prefix =
          specs.size() == 1 ? "sim." : "sim." + specs[i].label + ".";
      registry.GetGauge(prefix + "machine_hours")
          ->Set(sim_result.machine_slots * slot_seconds / 3600.0);
      registry.GetGauge(prefix + "insufficient_fraction")
          ->Set(sim_result.insufficient_fraction);
      registry.GetCounter(prefix + "insufficient_slots")
          ->Increment(sim_result.insufficient_slots);
      registry.GetCounter(prefix + "insufficient_during_move_slots")
          ->Increment(sim_result.insufficient_during_move_slots);
      registry.GetCounter(prefix + "insufficient_during_fault_slots")
          ->Increment(sim_result.insufficient_during_fault_slots);
      registry.GetCounter(prefix + "move_slots")
          ->Increment(sim_result.move_slots);
      registry.GetCounter(prefix + "fault_slots")
          ->Increment(sim_result.fault_slots);
      registry.GetCounter(prefix + "reconfigurations")
          ->Increment(sim_result.reconfigurations);
    }
    const Status written = registry.WriteJson(bench_json);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("Metrics: %s\n", bench_json.c_str());
  }
  return 0;
}
