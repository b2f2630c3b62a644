// Figure 11: when an unexpected load spike makes the predictive plan
// infeasible, P-Store can migrate at the regular rate R (lower migration
// overhead, but capacity arrives late) or at R x 8 (some latency overhead
// during migration, but capacity arrives much sooner). The paper: at R
// the violation counts were 16/101/143 (p50/p95/p99); at R x 8 they were
// 22/44/51 — higher median impact but fewer total violation-seconds.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/status.h"

int main(int argc, char** argv) {
  using namespace pstore;
  FlagParser flags;
  PSTORE_CHECK_OK(flags.Parse(argc - 1, argv + 1));
  const StatusOr<int64_t> threads = flags.GetInt("threads", 0);
  PSTORE_CHECK_OK(threads.status());

  bench::PrintHeader(
      "Figure 11: reacting to an unexpected spike at rate R vs R x 8",
      "R x 8 trades a little migration overhead for far fewer "
      "violation-seconds (paper: 143 -> 51 p99 violations)");

  auto csv = bench::OpenCsv("fig11_reactive_rates.csv");
  if (csv) {
    csv->WriteRow({"mode", "p50_violations", "p95_violations",
                   "p99_violations", "avg_machines"});
  }

  const char* labels[2] = {"Rate R", "Rate R x 8"};
  std::vector<bench::EngineRun> runs;
  for (int fast = 0; fast < 2; ++fast) {
    bench::EngineRun run =
        bench::PaperEngineRun(labels[fast], Strategy::kPredictive, 4, 1);
    // The unexpected flash crowd: mid-afternoon of the replayed day, on
    // the peak's shoulder.
    run.spec.workload.inject_spike = true;
    SpikeOptions& spike = run.spec.workload.spike;
    spike.start_slot = static_cast<size_t>(bench::kTrainingDays) * 1440 + 660;
    spike.ramp_slots = 15;
    spike.sustain_slots = 90;
    spike.decay_slots = 90;
    spike.magnitude = 2.2;
    run.options.controller.fast_reactive_fallback = fast == 1;
    runs.push_back(run);
  }
  const std::vector<EngineRunResult> results =
      bench::RunEngineExperiments(runs, static_cast<int>(*threads));
  for (size_t fast = 0; fast < results.size(); ++fast) {
    bench::PrintRunSummary(labels[fast], results[fast]);
    if (csv) {
      csv->WriteRow({labels[fast],
                     std::to_string(results[fast].sla.total.p50),
                     std::to_string(results[fast].sla.total.p95),
                     std::to_string(results[fast].sla.total.p99),
                     std::to_string(results[fast].avg_machines)});
    }
  }

  const long long slow_total = results[0].sla.total.p95 +
                               results[0].sla.total.p99;
  const long long fast_total = results[1].sla.total.p95 +
                               results[1].sla.total.p99;
  std::printf(
      "\nShape check: tail violation-seconds at R x 8 (%lld) vs R (%lld) "
      "— the faster migration should cut the total substantially "
      "(paper: 95 vs 244).\n",
      fast_total, slow_total);
  bench::CloseCsv(csv.get());
  return 0;
}
