#ifndef PSTORE_BENCH_BENCH_UTIL_H_
#define PSTORE_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/csv_writer.h"
#include "common/time_series.h"
#include "engine/metrics.h"
#include "fault/fault_schedule.h"
#include "sim/run_spec.h"

namespace pstore {
namespace bench {

// Prints a figure/table banner with the paper reference.
void PrintHeader(const std::string& experiment, const std::string& claim);

// Opens a CSV under bench_out/ (created on demand); returns nullptr when
// the directory cannot be created (output then goes to stdout only).
std::unique_ptr<CsvWriter> OpenCsv(const std::string& name);

// Closes a CSV opened with OpenCsv and surfaces any buffered I/O failure
// on stderr, so a bench never reports success over a truncated file.
// Null writers are ignored (the bench ran without CSV output).
void CloseCsv(CsvWriter* csv);

// ---- Shared engine experiment (Figs. 7-11, Table 2) ------------------------

// Configuration of one engine run replaying the B2W benchmark at 10x
// acceleration (paper §7: one trace minute = 6 simulated seconds).
//
// The run description lives in `spec` (sim/run_spec.h), the same type
// the capacity-simulator sweeps and CLI tools construct:
//   spec.label    - name used in banners and the run.summary event
//   spec.strategy - kPredictive / kReactive / kStatic (kSimple has no
//                   engine controller and is rejected)
//   spec.seed     - trace generator seed; equal seeds, equal workloads
//   spec.predictor_spec - kPredictive only, ignored under
//                   oracle_predictor: predictor spec string
//                   (prediction/predictor_spec.h) for the online model,
//                   built with a daily period and a 4-hour max_tau, e.g.
//                   "shift(spar(n=7,m=30))" or "ensemble(spar,ar,hw)".
//                   Empty keeps the paper's SPAR(7,30). Must build; the
//                   run CHECKs.
//   spec.tracer   - optional structured tracer wired through the whole
//                   stack (engine, driver, migration, predictor,
//                   controller, faults). The run emits sla.window events
//                   for violating windows and a final run.summary; the
//                   caller owns the tracer and must Close() it after the
//                   run.
// spec.workload is derived from the knobs below by EngineWorkload();
// callers leave it default-constructed.
struct EngineRunConfig {
  EngineRunConfig() {
    spec.label = "P-Store";
    spec.strategy = Strategy::kPredictive;
    spec.seed = 42;
  }

  RunSpec spec;
  // kPredictive only: drive the controller with a perfect oracle model
  // instead of SPAR (the paper's "P-Store Oracle" variant).
  bool oracle_predictor = false;
  // Days of trace replayed (after the training window).
  int replay_days = 3;
  // Days of history used to train SPAR (and to warm the predictor).
  int training_days = 28;
  // Machines for kStatic; initial machines otherwise.
  int nodes = 4;
  // Inject an unexpected flash-crowd spike (Fig. 11)?
  bool inject_spike = false;
  double spike_magnitude = 2.2;
  // Migration rate multiplier used by the predictive fallback.
  bool fast_reactive_fallback = false;
  // Scale-in confirmation cycles for the predictive controller (§6).
  int scale_in_confirm_cycles = 3;
  // Scale factor on the workload (and pools) to trade fidelity for run
  // time; 1.0 = paper scale (~2800 txn/s peak, ~1.1 GB database).
  double scale = 1.0;
  // Trace day carrying the Black-Friday surge (-1 = none); passed to the
  // trace generator, so it works in both training and replay windows.
  int black_friday_day = -1;
  // Scripted fault events injected during the replay (empty = no fault
  // injection; event times are simulated seconds from replay start).
  std::vector<FaultEvent> faults;
};

// Human-readable approach name derived from the spec ("Static",
// "Reactive", "P-Store (SPAR)", "P-Store (Oracle)").
const char* EngineApproachLabel(const EngineRunConfig& config);

// Result of one run: per-second window stats plus summary numbers.
struct EngineRunResult {
  std::vector<WindowStats> windows;
  SlaViolations violations;
  // Violations split into fault / migration / baseline windows.
  SlaAttribution attribution;
  double avg_machines = 0.0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t unavailable = 0;
  double duration_seconds = 0.0;
  int reconfigurations = 0;
  // Fault-recovery counters; nonzero only when faults were injected.
  int failed_reconfigurations = 0;
  int64_t chunk_retries = 0;
};

// Runs the full engine experiment for one approach. Deterministic for a
// given config.
EngineRunResult RunEngineExperiment(const EngineRunConfig& config);

// Runs independent engine experiments concurrently on a deterministic
// ThreadPool (threads < 1 = hardware concurrency) and returns results by
// config index, so the output is identical to running each serially.
// Concurrent configs must not share a spec.tracer (checked).
std::vector<EngineRunResult> RunEngineExperiments(
    const std::vector<EngineRunConfig>& configs, int threads);

// The workload description behind EngineTrace: a seeded B2W synthetic
// trace (txn/s units at 10x acceleration) including the training prefix,
// plus the optional Fig. 11 flash-crowd spike.
WorkloadSpec EngineWorkload(const EngineRunConfig& config);

// The per-minute B2W load trace used by the engine runs (txn/s units at
// 10x acceleration), including training prefix.
TimeSeries EngineTrace(const EngineRunConfig& config);

// Prints the standard summary block for a run.
void PrintRunSummary(const std::string& label, const EngineRunResult& run);

}  // namespace bench
}  // namespace pstore

#endif  // PSTORE_BENCH_BENCH_UTIL_H_
