#ifndef PSTORE_BENCH_BENCH_UTIL_H_
#define PSTORE_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/csv_writer.h"
#include "controller/engine_run.h"
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

// ---- Shared engine experiment (Figs. 9-11, Table 2) ------------------------

// Days of B2W history ahead of every engine replay: the predictor warms
// up on them (paper §8.2 trains SPAR on 4 weeks).
constexpr int kTrainingDays = 28;

// The two arguments of one RunEngine call (controller/engine_run.h).
struct EngineRun {
  RunSpec spec;
  EngineRunOptions options;
};

// The paper's engine experiment (§8.2): `replay_days` of the seeded B2W
// trace (seed 42, ~1500 txn/s peak) replayed at 10x after kTrainingDays
// of history, from `nodes` machines on a cluster of at most 16, with the
// paper-calibrated migration (D ~= 77 min for the ~1.1 GB database).
// kPredictive forecasts with SPAR(7,30) over a 4-hour horizon, fitting
// every 5th tau and re-fitting weekly. `scale` trades fidelity for run
// time: it multiplies the load, the data pools and the per-node rates.
// Benches adjust the returned run (spike, faults, controller knobs).
EngineRun PaperEngineRun(const std::string& label, Strategy strategy,
                         int nodes, int replay_days, double scale = 1.0);

// Runs independent engine runs concurrently on a deterministic
// ThreadPool (threads < 1 = hardware concurrency) and returns results by
// run index, so the output is identical to running each serially.
// CHECK-fails if any run fails.
std::vector<EngineRunResult> RunEngineExperiments(
    const std::vector<EngineRun>& runs, int threads);

// Prints the standard summary block for a run.
void PrintRunSummary(const std::string& label, const EngineRunResult& run);

}  // namespace bench
}  // namespace pstore

#endif  // PSTORE_BENCH_BENCH_UTIL_H_
