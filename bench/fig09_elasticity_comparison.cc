// Figure 9: three days of the B2W benchmark (10x accelerated) under four
// elasticity approaches: (a) static 10 machines, (b) static 4 machines,
// (c) reactive provisioning, (d) P-Store with SPAR. The paper's result:
// static-10 is clean but wasteful, static-4 cheap but slow at peak,
// reactive spikes latency at every ramp, and P-Store reconfigures ahead
// of demand with few violations at ~half the machines of static-10.
//
// The four runs are independent, so they are evaluated concurrently on
// the deterministic thread pool (--threads N, default: hardware
// concurrency); results are identical for any thread count.

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
      "Figure 9: comparison of elasticity approaches (3-day B2W replay)",
      "P-Store: few latency spikes at ~5 machines avg; reactive: spikes "
      "at every ramp; static-10 clean; static-4 overloaded at peak");

  struct Config {
    const char* label;
    Strategy strategy;
    int nodes;
    const char* csv;
  };
  const Config configs[] = {
      {"Static-10", Strategy::kStatic, 10, "fig09a_static10.csv"},
      {"Static-4", Strategy::kStatic, 4, "fig09b_static4.csv"},
      {"Reactive", Strategy::kReactive, 4, "fig09c_reactive.csv"},
      {"P-Store", Strategy::kPredictive, 4, "fig09d_pstore.csv"},
  };

  std::vector<bench::EngineRun> engine_runs;
  for (const Config& config : configs) {
    engine_runs.push_back(
        bench::PaperEngineRun(config.label, config.strategy, config.nodes, 3));
  }
  const std::vector<EngineRunResult> runs =
      bench::RunEngineExperiments(engine_runs, static_cast<int>(*threads));

  for (size_t c = 0; c < runs.size(); ++c) {
    const Config& config = configs[c];
    const EngineRunResult& run = runs[c];
    bench::PrintRunSummary(config.label, run);

    auto csv = bench::OpenCsv(config.csv);
    if (csv) {
      csv->WriteRow({"t_seconds", "throughput_txn_s", "avg_latency_ms",
                     "p99_ms", "machines", "migrating"});
      // 10-second aggregation, matching the paper's plotting window.
      for (size_t w = 0; w + 10 <= run.windows.size(); w += 10) {
        double completed = 0;
        double p50 = 0;
        double p99 = 0;
        int machines = 0;
        bool migrating = false;
        for (size_t i = w; i < w + 10; ++i) {
          completed += static_cast<double>(run.windows[i].completed);
          p50 = std::max(p50, run.windows[i].p50_ms);
          p99 = std::max(p99, run.windows[i].p99_ms);
          machines = run.windows[i].machines;
          migrating = migrating || run.windows[i].migrating;
        }
        csv->WriteNumericRow({run.windows[w].start_seconds, completed / 10.0,
                              p50, p99, static_cast<double>(machines),
                              migrating ? 1.0 : 0.0});
      }
    }
    bench::CloseCsv(csv.get());

    // Console: a coarse hourly picture of machines + p99.
    std::printf("    %-10s", "t(h):");
    for (size_t w = 0; w < run.windows.size(); w += 3600) {
      std::printf("%5.0f", run.windows[w].start_seconds / 3600.0);
    }
    std::printf("\n    %-10s", "machines:");
    for (size_t w = 0; w < run.windows.size(); w += 3600) {
      std::printf("%5d", run.windows[w].machines);
    }
    std::printf("\n    %-10s", "p99(ms):");
    for (size_t w = 0; w < run.windows.size(); w += 3600) {
      double p99 = 0;
      for (size_t i = w; i < std::min(w + 3600, run.windows.size()); ++i) {
        p99 = std::max(p99, run.windows[i].p99_ms);
      }
      std::printf("%5.0f", p99);
    }
    std::printf("\n\n");
  }
  std::printf(
      "Shape check: reactive shows p99 spikes at the daily ramps that "
      "P-Store avoids; P-Store's machine line stays above the load curve "
      "(see CSVs under bench_out/).\n");
  return 0;
}
