// Extension: the scalability premise. §2 states H-Store-style engines
// scale (almost) linearly when data is uniform and distributed
// transactions are rare — it is why cap(N) = Q*N (Eq. 5) is a sound
// model. This bench measures sustained throughput at a fixed per-machine
// offered rate for growing cluster sizes (now up to 128 nodes, past the
// paper's 10-machine testbed) and reports the scaling efficiency.
//
// Results land in BENCH_ext_linear_scalability.json (override with
// --bench-json=...).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/time_series.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "obs/metrics_registry.h"

namespace {

using namespace pstore;

constexpr double kPerNodeRate = 285.0;  // Q per machine
constexpr int kHorizonSeconds = 60;
constexpr int kWarmupWindows = 20;

struct RunResult {
  double completed_per_s = 0.0;
  double worst_p99_ms = 0.0;
};

// One flat-rate run on `nodes` machines.
RunResult RunFlat(int nodes) {
  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 128;
  cluster_options.initial_nodes = nodes;
  cluster_options.num_buckets = 15360;  // 20 per partition at 128 nodes
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 100000;
  workload_options.checkout_pool = 40000;
  b2w::Workload workload(workload_options);
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));

  EventLoop loop;

  const double rate = kPerNodeRate * nodes;
  TimeSeries flat(1.0, std::vector<double>(kHorizonSeconds, rate));
  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 1.0;
  driver_options.rate_factor = 1.0;
  driver_options.seed = 13;
  WorkloadDriver driver(
      &loop, &executor, flat,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);

  driver.Start(kHorizonSeconds * kSecond);
  loop.RunUntil(kHorizonSeconds * kSecond);

  RunResult result;
  const auto windows = metrics.Finalize(kHorizonSeconds * kSecond);
  int64_t completed = 0;
  int counted = 0;
  for (size_t w = kWarmupWindows; w < windows.size(); ++w) {
    completed += windows[w].completed;
    result.worst_p99_ms = std::max(result.worst_p99_ms, windows[w].p99_ms);
    ++counted;
  }
  result.completed_per_s = static_cast<double>(completed) / counted;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  PSTORE_CHECK_OK(flags.Parse(argc - 1, argv + 1));
  bench::PrintHeader(
      "Extension: linear scalability of the engine (the Eq. 5 premise)",
      "uniform single-key workload: throughput ~ Q x N with flat tail "
      "latency, up to 128 nodes");

  obs::MetricsRegistry registry;
  auto csv = bench::OpenCsv("ext_linear_scalability.csv");
  if (csv) {
    csv->WriteRow({"nodes", "offered_txn_s", "completed_txn_s",
                   "efficiency_percent", "worst_p99_ms"});
  }

  std::printf("%8s %12s %12s %12s %12s\n", "nodes", "offered", "completed",
              "efficiency", "worst p99");
  double baseline = 0.0;
  for (const int nodes : {1, 2, 4, 8, 16, 32, 64, 100, 128}) {
    const RunResult r = RunFlat(nodes);
    if (nodes == 1) baseline = r.completed_per_s;
    const double efficiency =
        100.0 * r.completed_per_s / (baseline * nodes);
    std::printf("%8d %12.0f %12.1f %11.1f%% %12.1f\n", nodes,
                kPerNodeRate * nodes, r.completed_per_s, efficiency,
                r.worst_p99_ms);
    if (csv) {
      csv->WriteNumericRow({static_cast<double>(nodes), kPerNodeRate * nodes,
                            r.completed_per_s, efficiency, r.worst_p99_ms});
    }
    const std::string prefix = "linear.nodes." + std::to_string(nodes) + ".";
    registry.GetGauge(prefix + "completed_txn_s")->Set(r.completed_per_s);
    registry.GetGauge(prefix + "efficiency_percent")->Set(efficiency);
    registry.GetGauge(prefix + "worst_p99_ms")->Set(r.worst_p99_ms);
  }

  std::printf(
      "\nReading: efficiency stays ~100%% and tail latency flat as the "
      "cluster grows — the precondition for modeling capacity as Q x N "
      "(Eq. 5). Contrast with ablation_distributed_txns, where breaking "
      "the single-key assumption destroys this.\n");
  bench::CloseCsv(csv.get());

  const std::string bench_json =
      flags.GetString("bench-json", "BENCH_ext_linear_scalability.json");
  PSTORE_CHECK_OK(registry.WriteJson(bench_json));
  std::printf("Metrics: %s\n", bench_json.c_str());
  return 0;
}
