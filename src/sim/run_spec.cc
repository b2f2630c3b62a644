#include "sim/run_spec.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <string>
#include <vector>

#include <memory>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/time_series.h"
#include "obs/tracer.h"
#include "obs/wall_timer.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"
#include "sim/capacity_simulator.h"
#include "trace/b2w_trace_generator.h"
#include "trace/spike_injector.h"
#include "trace/wikipedia_trace_generator.h"

namespace pstore {
namespace {

void AppendDouble(std::string* out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

}  // namespace

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kPredictive:
      return "pstore";
    case Strategy::kReactive:
      return "reactive";
    case Strategy::kSimple:
      return "simple";
    case Strategy::kStatic:
      return "static";
  }
  return "unknown";
}

StatusOr<Strategy> ParseStrategy(const std::string& name) {
  if (name == "pstore" || name == "predictive") return Strategy::kPredictive;
  if (name == "reactive") return Strategy::kReactive;
  if (name == "simple") return Strategy::kSimple;
  if (name == "static") return Strategy::kStatic;
  return Status::InvalidArgument(
      "unknown strategy (pstore|reactive|simple|static): " + name);
}

StatusOr<TimeSeries> BuildWorkloadTrace(const WorkloadSpec& workload) {
  TimeSeries trace;
  switch (workload.kind) {
    case WorkloadSpec::Kind::kProvided: {
      if (workload.provided == nullptr) {
        return Status::InvalidArgument(
            "kProvided workload without a provided series");
      }
      trace = *workload.provided;
      break;
    }
    case WorkloadSpec::Kind::kB2wSynthetic: {
      trace = GenerateB2wTrace(workload.b2w);
      break;
    }
    case WorkloadSpec::Kind::kWikipedia: {
      trace = GenerateWikipediaTrace(workload.wikipedia);
      break;
    }
    case WorkloadSpec::Kind::kYcsbSteady: {
      if (workload.ycsb_slots == 0) {
        return Status::InvalidArgument(
            "kYcsbSteady workload with ycsb_slots == 0");
      }
      if (workload.ycsb_rate <= 0.0) {
        return Status::InvalidArgument(
            "kYcsbSteady workload with ycsb_rate <= 0");
      }
      trace = TimeSeries(workload.ycsb_slot_seconds);
      Rng rng(workload.ycsb_seed);
      // Mean-reverting drift (discretized OU process) multiplied by
      // per-slot noise around the constant offered rate.
      const double relax =
          workload.ycsb_drift_relaxation_slots > 1.0
              ? 1.0 / workload.ycsb_drift_relaxation_slots
              : 1.0;
      double drift = 0.0;
      for (size_t i = 0; i < workload.ycsb_slots; ++i) {
        drift += relax * (0.0 - drift) +
                 workload.ycsb_drift_sigma * std::sqrt(2.0 * relax) *
                     rng.NextGaussian();
        const double noise =
            1.0 + workload.ycsb_noise_sigma * rng.NextGaussian();
        const double rate = workload.ycsb_rate * (1.0 + drift) * noise;
        trace.Append(rate > 0.0 ? rate : 0.0);
      }
      break;
    }
    case WorkloadSpec::Kind::kStep: {
      if (workload.step_slots == 0) {
        return Status::InvalidArgument("kStep workload with step_slots == 0");
      }
      if (!(std::isfinite(workload.base_rate) && workload.base_rate >= 0.0 &&
            std::isfinite(workload.peak_rate) && workload.peak_rate >= 0.0)) {
        return Status::InvalidArgument(
            "kStep workload needs finite, non-negative rates");
      }
      trace = TimeSeries(workload.step_slot_seconds);
      for (size_t i = 0; i < workload.step_slots; ++i) {
        trace.Append(i < workload.step_at_slot ? workload.base_rate
                                               : workload.peak_rate);
      }
      break;
    }
  }
  if (workload.scale != 1.0) trace = trace.Scaled(workload.scale);
  if (workload.inject_spike) trace = InjectSpike(trace, workload.spike);
  return trace;
}

StatusOr<TimeSeries> BuildRunTrace(const RunSpec& spec) {
  WorkloadSpec workload = spec.workload;
  if (spec.seed != 0) {
    workload.b2w.seed = spec.seed;
    workload.wikipedia.seed = spec.seed;
    workload.ycsb_seed = spec.seed;
  }
  return BuildWorkloadTrace(workload);
}

PredictorContext SimPredictorContext(const SimOptions& sim,
                                     double trace_slot_seconds) {
  const size_t slots_per_day =
      static_cast<size_t>(86400.0 / trace_slot_seconds + 0.5);
  PredictorContext context;
  context.period = std::max<size_t>(
      1, slots_per_day / static_cast<size_t>(sim.plan_slot_factor));
  context.max_tau = static_cast<size_t>(sim.horizon_plan_slots);
  return context;
}

StatusOr<SimResult> RunOne(const RunSpec& spec) {
  StatusOr<TimeSeries> trace = BuildRunTrace(spec);
  if (!trace.ok()) return trace.status();

  CapacitySimulator sim(spec.sim);
  sim.set_tracer(spec.tracer);
  switch (spec.strategy) {
    case Strategy::kPredictive: {
      if (spec.predictor != nullptr) {
        return sim.RunPredictive(*trace, *spec.predictor);
      }
      if (spec.predictor_spec.empty()) {
        return Status::InvalidArgument("spec '" + spec.label +
                                       "': kPredictive needs a predictor");
      }
      // Materialize the spec'd model per task: built against the run's
      // coarse planning granularity and fitted on the pre-eval prefix,
      // mirroring what the tools did by hand before the spec grammar.
      const int factor = spec.sim.plan_slot_factor;
      const TimeSeries coarse =
          trace->DownsampleMean(static_cast<size_t>(factor));
      StatusOr<std::unique_ptr<LoadPredictor>> made = MakePredictor(
          spec.predictor_spec,
          SimPredictorContext(spec.sim, trace->slot_seconds()));
      if (!made.ok()) {
        return Status::InvalidArgument("spec '" + spec.label + "': " +
                                       made.status().message());
      }
      const Status fit = (*made)->Fit(coarse.Slice(
          0, spec.sim.eval_begin / static_cast<size_t>(factor)));
      if (!fit.ok()) {
        return Status::InvalidArgument("spec '" + spec.label + "': " +
                                       (*made)->name() +
                                       " fit: " + fit.message());
      }
      return sim.RunPredictive(*trace, **made);
    }
    case Strategy::kReactive:
      return sim.RunReactive(*trace, spec.reactive);
    case Strategy::kSimple:
      return sim.RunSimple(*trace, spec.simple);
    case Strategy::kStatic:
      return sim.RunStatic(*trace, spec.static_nodes);
  }
  return Status::InvalidArgument("unknown strategy");
}

StatusOr<SweepResult> RunSweep(const std::vector<RunSpec>& specs,
                               const SweepOptions& options) {
  // Reject ill-formed sweeps up front (deterministically, before any
  // task runs): a missing predictor or two tasks aliasing one Tracer.
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].strategy == Strategy::kPredictive &&
        specs[i].predictor == nullptr && specs[i].predictor_spec.empty()) {
      return Status::InvalidArgument("spec '" + specs[i].label +
                                     "': kPredictive needs a predictor");
    }
    if (specs[i].tracer == nullptr) continue;
    for (size_t j = i + 1; j < specs.size(); ++j) {
      if (specs[j].tracer == specs[i].tracer) {
        return Status::InvalidArgument(
            "specs '" + specs[i].label + "' and '" + specs[j].label +
            "' share a Tracer; concurrent tasks need distinct sinks");
      }
    }
  }

  ThreadPool* pool = options.pool;
  ThreadPool own_pool(pool != nullptr ? 1
                                      : ResolveThreadCount(options.threads));
  if (pool == nullptr) pool = &own_pool;

  SweepResult sweep;
  sweep.threads = pool->thread_count();
  sweep.results.resize(specs.size());
  sweep.task_wall_us.assign(specs.size(), 0.0);

  obs::WallTimer sweep_timer;
  const Status run_status =
      pool->ParallelForStatus(specs.size(), [&](size_t i) -> Status {
        obs::WallTimer task_timer;
        StatusOr<SimResult> result = RunOne(specs[i]);
        sweep.task_wall_us[i] =
            static_cast<double>(task_timer.ElapsedMicros());
        if (!result.ok()) return result.status();
        sweep.results[i] = *std::move(result);
        return Status::OK();
      });
  sweep.wall_us = static_cast<double>(sweep_timer.ElapsedMicros());
  if (!run_status.ok()) return run_status;

  // Sweep telemetry is emitted post-join from this thread, in spec
  // order, so the (single-threaded) tracer never sees concurrency.
  double serial_wall_us = 0.0;
  for (double task_wall : sweep.task_wall_us) serial_wall_us += task_wall;
  for (size_t i = 0; i < specs.size(); ++i) {
    PSTORE_TRACE(options.tracer, ::pstore::obs::TraceCategory::kReport, 0,
                 "sweep.task",
                 .With("index", static_cast<int64_t>(i))
                     .With("label", specs[i].label)
                     .With("strategy", StrategyName(specs[i].strategy))
                     .With("wall_us", sweep.task_wall_us[i]));
  }
  PSTORE_TRACE(options.tracer, ::pstore::obs::TraceCategory::kReport, 0,
               "sweep.done",
               .With("tasks", static_cast<int64_t>(specs.size()))
                   .With("threads", sweep.threads)
                   .With("wall_us", sweep.wall_us)
                   .With("serial_wall_us", serial_wall_us));
  return sweep;
}

std::string SweepCsvRows(const std::vector<RunSpec>& specs,
                         const SweepResult& sweep) {
  std::string out =
      "label,strategy,machine_slots,insufficient_slots,"
      "insufficient_fraction,insufficient_during_move_slots,move_slots,"
      "fault_slots,insufficient_during_fault_slots,reconfigurations\n";
  const size_t rows = std::min(specs.size(), sweep.results.size());
  for (size_t i = 0; i < rows; ++i) {
    const SimResult& r = sweep.results[i];
    out += specs[i].label;
    out += ',';
    out += StrategyName(specs[i].strategy);
    out += ',';
    AppendDouble(&out, r.machine_slots);
    out += ',';
    out += std::to_string(r.insufficient_slots);
    out += ',';
    AppendDouble(&out, r.insufficient_fraction);
    out += ',';
    out += std::to_string(r.insufficient_during_move_slots);
    out += ',';
    out += std::to_string(r.move_slots);
    out += ',';
    out += std::to_string(r.fault_slots);
    out += ',';
    out += std::to_string(r.insufficient_during_fault_slots);
    out += ',';
    out += std::to_string(r.reconfigurations);
    out += '\n';
  }
  return out;
}

}  // namespace pstore
