// Table 2: number of SLA violations (seconds in which the per-second
// 50th/95th/99th percentile latency exceeded 500 ms) and average
// machines allocated, for the four elasticity approaches. The paper:
//
//   approach     p50  p95  p99   avg machines
//   Static-10      0   13   25   10
//   Static-4       0  157  249    4
//   Reactive      35  220  327    4.02
//   P-Store        0   37   92    5.05
//
// i.e., P-Store causes ~1/3 the violations of reactive while using
// ~half the machines of peak provisioning.

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
      "Table 2: SLA violations (500 ms) and average machines (3-day replay)",
      "P-Store ~1/3 of reactive's violations at ~1/2 of static-10's "
      "machines");

  struct Config {
    const char* label;
    Strategy strategy;
    int nodes;
  };
  const Config configs[] = {
      {"Static-10", Strategy::kStatic, 10},
      {"Static-4", Strategy::kStatic, 4},
      {"Reactive", Strategy::kReactive, 4},
      {"P-Store", Strategy::kPredictive, 4},
  };

  std::vector<bench::EngineRun> engine_runs;
  for (const Config& config : configs) {
    engine_runs.push_back(
        bench::PaperEngineRun(config.label, config.strategy, config.nodes, 3));
  }
  const std::vector<EngineRunResult> runs =
      bench::RunEngineExperiments(engine_runs, static_cast<int>(*threads));

  auto csv = bench::OpenCsv("table2_sla_violations.csv");
  if (csv) {
    csv->WriteRow({"approach", "p50_violations", "p95_violations",
                   "p99_violations", "avg_machines"});
  }

  std::printf("%-12s %10s %10s %10s %14s\n", "approach", "p50 viol",
              "p95 viol", "p99 viol", "avg machines");
  for (size_t c = 0; c < runs.size(); ++c) {
    const Config& config = configs[c];
    const EngineRunResult& run = runs[c];
    std::printf("%-12s %10lld %10lld %10lld %14.2f\n", config.label,
                static_cast<long long>(run.sla.total.p50),
                static_cast<long long>(run.sla.total.p95),
                static_cast<long long>(run.sla.total.p99),
                run.avg_machines);
    if (csv) {
      csv->WriteRow({config.label, std::to_string(run.sla.total.p50),
                     std::to_string(run.sla.total.p95),
                     std::to_string(run.sla.total.p99),
                     std::to_string(run.avg_machines)});
    }
  }
  const EngineRunResult& static10_run = runs[0];
  const EngineRunResult& reactive_run = runs[2];
  const EngineRunResult& pstore_run = runs[3];

  std::printf("\nShape check:\n");
  std::printf("  P-Store p99 violations / reactive: %.2f (paper: ~0.28)\n",
              reactive_run.sla.total.p99 > 0
                  ? static_cast<double>(pstore_run.sla.total.p99) /
                        static_cast<double>(reactive_run.sla.total.p99)
                  : 0.0);
  std::printf("  P-Store avg machines / static-10:  %.2f (paper: ~0.50)\n",
              pstore_run.avg_machines / static10_run.avg_machines);
  bench::CloseCsv(csv.get());
  return 0;
}
