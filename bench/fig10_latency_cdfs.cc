// Figure 10: CDFs of the top 1% of per-second 50th/95th/99th percentile
// latencies for the four elasticity approaches. Higher/left curves are
// better. The paper: reactive is clearly worst everywhere; static-4
// beats P-Store at p50 but is much worse at p95/p99; static-10 is best.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/status.h"

namespace {

using namespace pstore;

// The top 1% (largest) of the given per-window percentile values,
// ascending — the x axis of one CDF curve.
std::vector<double> TopOnePercent(const std::vector<WindowStats>& windows,
                                  double WindowStats::*field) {
  std::vector<double> values;
  for (const WindowStats& w : windows) {
    if (w.completed > 0) values.push_back(w.*field);
  }
  std::sort(values.begin(), values.end());
  const size_t keep = std::max<size_t>(10, values.size() / 100);
  return std::vector<double>(values.end() - std::min(keep, values.size()),
                             values.end());
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  PSTORE_CHECK_OK(flags.Parse(argc - 1, argv + 1));
  const StatusOr<int64_t> threads = flags.GetInt("threads", 0);
  PSTORE_CHECK_OK(threads.status());

  bench::PrintHeader(
      "Figure 10: CDFs of the top 1% of per-second p50/p95/p99 latencies",
      "reactive worst everywhere; static-4 loses badly at p95/p99; "
      "P-Store close to static-10");

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

  auto csv = bench::OpenCsv("fig10_latency_cdfs.csv");
  if (csv) {
    csv->WriteRow({"approach", "percentile", "cum_prob", "latency_ms"});
  }

  struct Curves {
    std::string label;
    std::vector<double> p50;
    std::vector<double> p95;
    std::vector<double> p99;
  };
  std::vector<bench::EngineRun> engine_runs;
  for (const Config& config : configs) {
    engine_runs.push_back(
        bench::PaperEngineRun(config.label, config.strategy, config.nodes, 2));
  }
  const std::vector<EngineRunResult> runs =
      bench::RunEngineExperiments(engine_runs, static_cast<int>(*threads));

  std::vector<Curves> all;
  for (size_t c = 0; c < runs.size(); ++c) {
    const EngineRunResult& run = runs[c];
    Curves curves;
    curves.label = configs[c].label;
    curves.p50 = TopOnePercent(run.windows, &WindowStats::p50_ms);
    curves.p95 = TopOnePercent(run.windows, &WindowStats::p95_ms);
    curves.p99 = TopOnePercent(run.windows, &WindowStats::p99_ms);
    all.push_back(std::move(curves));
  }

  const char* percentile_names[] = {"p50", "p95", "p99"};
  for (int which = 0; which < 3; ++which) {
    std::printf("\nTop-1%% CDF of per-second %s latencies (ms):\n",
                percentile_names[which]);
    std::printf("%-12s %8s %8s %8s %8s %8s\n", "approach", "min", "25%",
                "50%", "75%", "max");
    for (const Curves& curves : all) {
      const std::vector<double>& v = which == 0   ? curves.p50
                                     : which == 1 ? curves.p95
                                                  : curves.p99;
      if (v.empty()) continue;
      auto at = [&](double q) {
        return v[std::min(v.size() - 1,
                          static_cast<size_t>(q * (v.size() - 1)))];
      };
      std::printf("%-12s %8.0f %8.0f %8.0f %8.0f %8.0f\n",
                  curves.label.c_str(), at(0.0), at(0.25), at(0.5), at(0.75),
                  at(1.0));
      if (csv) {
        for (size_t i = 0; i < v.size(); ++i) {
          csv->WriteRow({curves.label, percentile_names[which],
                         std::to_string(static_cast<double>(i + 1) /
                                        static_cast<double>(v.size())),
                         std::to_string(v[i])});
        }
      }
    }
  }
  std::printf(
      "\nShape check: the reactive curve sits far right of P-Store for "
      "p95/p99 (its tail latencies are worse); static-10 is the leftmost "
      "curve.\n");
  bench::CloseCsv(csv.get());
  return 0;
}
