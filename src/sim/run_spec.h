#ifndef PSTORE_SIM_RUN_SPEC_H_
#define PSTORE_SIM_RUN_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/time_series.h"
#include "obs/tracer.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"
#include "sim/capacity_simulator.h"
#include "trace/b2w_trace_generator.h"
#include "trace/spike_injector.h"
#include "trace/wikipedia_trace_generator.h"

namespace pstore {

// The allocation strategies the capacity simulator can drive (paper
// §8.3, Fig. 12). The predictive-oracle variant is not a separate value:
// it is kPredictive with SimOptions::inflation = 1.0 and a perfect
// predictor.
enum class Strategy {
  kPredictive,
  kReactive,
  kSimple,
  kStatic,
};

// Short lowercase name as accepted by --strategy ("pstore", "reactive",
// "simple", "static").
const char* StrategyName(Strategy strategy);

// Parses a --strategy value; accepts "pstore" or "predictive" for
// kPredictive. Returns kInvalidArgument on anything else.
StatusOr<Strategy> ParseStrategy(const std::string& name);

// How a run obtains its load trace. Every sweep task builds (or copies)
// its own TimeSeries from this description, so tasks never share mutable
// workload state; generation is seeded and therefore bit-reproducible.
struct WorkloadSpec {
  enum class Kind {
    kProvided,      // borrow an existing series (e.g. loaded from CSV)
    kB2wSynthetic,  // GenerateB2wTrace(b2w)
    kWikipedia,     // GenerateWikipediaTrace(wikipedia)
    kYcsbSteady,    // steady YCSB-style rate with seeded noise and drift
    kStep,          // base_rate, jumping to peak_rate at step_at_slot
  };
  Kind kind = Kind::kB2wSynthetic;

  // kProvided: borrowed, must outlive the run; not modified.
  const TimeSeries* provided = nullptr;

  // kB2wSynthetic:
  B2wTraceOptions b2w;

  // kWikipedia:
  WikipediaTraceOptions wikipedia;

  // kYcsbSteady: YCSB drives a constant offered rate; the per-slot
  // multiplicative noise plus a slow mean-reverting drift model the
  // client-side jitter a real benchmark run shows. Deterministic in
  // ycsb_seed.
  double ycsb_slot_seconds = 60.0;
  size_t ycsb_slots = 0;
  double ycsb_rate = 0.0;
  double ycsb_noise_sigma = 0.05;
  double ycsb_drift_sigma = 0.08;
  double ycsb_drift_relaxation_slots = 240.0;
  uint64_t ycsb_seed = 13;

  // kStep:
  double step_slot_seconds = 60.0;
  size_t step_slots = 0;
  size_t step_at_slot = 0;
  double base_rate = 0.0;
  double peak_rate = 0.0;

  // Elementwise multiplier applied to the built trace (1.0 = none).
  double scale = 1.0;

  // Optional unexpected flash-crowd spike (Fig. 11), multiplied into the
  // scaled trace.
  bool inject_spike = false;
  SpikeOptions spike;
};

// Materializes the trace a WorkloadSpec describes. Pure function of the
// spec (seeds included), so equal specs give bit-identical traces.
StatusOr<TimeSeries> BuildWorkloadTrace(const WorkloadSpec& workload);

// One complete description of a run: the workload, the simulator
// options, the strategy plus its knobs, and the trace sink. RunOne (and
// RunSweep, in parallel) executes it on the capacity simulator;
// RunEngine (controller/engine_run.h) executes the label, strategy,
// workload, seed, predictor_spec and tracer on the live engine.
struct RunSpec {
  // Identifies the run in CSV output and sweep telemetry.
  std::string label;

  WorkloadSpec workload;
  SimOptions sim;

  Strategy strategy = Strategy::kPredictive;
  // Strategy knobs; only the one matching `strategy` is read.
  ReactiveSimParams reactive;
  SimpleSimParams simple;
  int static_nodes = 10;

  // Required (fitted) for kPredictive, ignored otherwise. Borrowed and
  // read-only; prediction is const, so one fitted predictor may be
  // shared by many specs in a sweep.
  const LoadPredictor* predictor = nullptr;

  // Alternative to `predictor`: a predictor spec string (see
  // prediction/predictor_spec.h, e.g. "spar(n=7,m=6)" or
  // "ensemble(spar,ar,hw)"). When `predictor` is null and this is
  // non-empty, RunOne materializes the model per task — built with the
  // run's coarse period/horizon as contextual defaults and fitted on the
  // pre-eval prefix of the coarse trace — so sweep tasks stay
  // independent even with stateful (adaptive) models. RunEngine also
  // accepts "oracle" here.
  std::string predictor_spec;

  // Convenience: when nonzero, overrides workload.b2w.seed so sweeps
  // over seeds need not reach into the workload description.
  uint64_t seed = 0;

  // Per-run structured trace sink. Runs executed concurrently must not
  // share a Tracer (it is not thread-safe); RunSweep rejects sweeps in
  // which two specs alias one.
  obs::Tracer* tracer = nullptr;
};

// Materializes the spec's workload trace, with a nonzero `spec.seed`
// overriding the seed of whichever generator the workload uses.
StatusOr<TimeSeries> BuildRunTrace(const RunSpec& spec);

// Context for a spec-built simulator model, as RunOne builds it: period
// = one day of coarse planning slots, max_tau = the planning horizon.
PredictorContext SimPredictorContext(const SimOptions& sim,
                                     double trace_slot_seconds);

// Executes one spec serially: builds the workload trace, constructs the
// CapacitySimulator and dispatches on the strategy.
StatusOr<SimResult> RunOne(const RunSpec& spec);

struct SweepOptions {
  // Worker threads; < 1 means hardware concurrency. Ignored when `pool`
  // is set.
  int threads = 0;
  // Optional caller-owned pool to run on (reused across sweeps).
  ThreadPool* pool = nullptr;
  // Sweep-level telemetry: one sweep.task event per spec (index, label,
  // wall_us) and a closing sweep.done (tasks, threads, wall_us,
  // serial_wall_us). Events are emitted from the calling thread after
  // the join, in spec order, so this tracer may be one of the per-spec
  // tracers' sibling or any other single-threaded sink.
  obs::Tracer* tracer = nullptr;
};

struct SweepResult {
  // By spec index — never by completion order.
  std::vector<SimResult> results;
  // Per-task wall time, by spec index (telemetry only: wall times are
  // scheduling-dependent and are deliberately excluded from CSV output).
  std::vector<double> task_wall_us;
  double wall_us = 0.0;
  int threads = 1;
};

// Evaluates independent specs concurrently and collects results by spec
// index, so the output is bit-identical for any thread count. Each task
// owns its trace, simulator, planner and RNG state; the only shared
// inputs (predictors, provided traces) are read-only. On failure the
// error of the lowest-index failing spec is returned.
StatusOr<SweepResult> RunSweep(const std::vector<RunSpec>& specs,
                               const SweepOptions& options = {});

// Renders a sweep as deterministic CSV (header plus one row per spec,
// doubles in %.17g): label, strategy, headline SimResult fields. Wall
// times are excluded on purpose — this is the artifact the golden test
// byte-compares across thread counts.
std::string SweepCsvRows(const std::vector<RunSpec>& specs,
                         const SweepResult& sweep);

}  // namespace pstore

#endif  // PSTORE_SIM_RUN_SPEC_H_
