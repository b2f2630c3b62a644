// Figure 8: 50th/99th percentile latency while reconfiguring 1 -> 2
// machines with different migration chunk sizes, with the per-machine
// rate pinned at Q-hat. Small chunks barely disturb latency; larger
// chunks migrate faster but spike the tail. The 1000 kB setting defines
// the paper's D (~77 minutes for the full database).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "migration/squall_migrator.h"

namespace {

using namespace pstore;

struct ChunkResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_p99_ms = 0.0;
  double migration_seconds = 0.0;
  int violation_windows = 0;  // seconds with p99 > 500 ms
};

// Exact median of `values` in the nearest-rank sense: the k-th smallest
// with k = max(1, round(n / 2)); 0 for an empty set.
int64_t Median(std::vector<int64_t> values) {
  if (values.empty()) return 0;
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(
             std::llround(0.5 * static_cast<double>(values.size()))));
  const auto kth = values.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(values.begin(), kth, values.end());
  return *kth;
}

// Runs 1 -> 2 with the given chunk size at per-node rate Q-hat; the
// total offered rate keeps the source machine at Q-hat as data drains.
ChunkResult RunChunkExperiment(int64_t chunk_bytes, bool migrate) {
  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 2;
  cluster_options.initial_nodes = 1;
  cluster_options.num_buckets = 1200;
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));

  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 30000;   // ~110 MB: keeps runs quick
  workload_options.checkout_pool = 12000;
  b2w::Workload workload(workload_options);
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));

  EventLoop loop;
  MigrationOptions migration_options;
  migration_options.net_rate_bytes_per_sec = 500e3;
  migration_options.chunk_spacing_seconds = 2.0;
  migration_options.chunk_bytes = chunk_bytes;
  migration_options.extract_rate_bytes_per_sec = 20e6;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);

  // Offered load: Q-hat per *source* machine. As data moves, the source
  // sheds load; the total rises so the source stays pinned (paper:
  // "total throughput varies so per-machine throughput is fixed at
  // Q-hat"). For 1 -> 2, the source's share is 1 - FractionMoved/2.
  SimTime migration_end = 0;
  if (migrate) {
    PSTORE_CHECK_OK(migration.StartReconfiguration(
        NodeCount(2), 1.0, [&](const Status&) { migration_end = loop.now(); }));
  }
  const SimTime end = FromSeconds(240.0);
  Rng rng(5);
  std::function<void()> tick = [&] {
    const SimTime tick_start = loop.now();
    if (tick_start >= end) return;
    const double moved = migration.InProgress()
                             ? migration.FractionMoved()
                             : (migrate && migration_end > 0 ? 1.0 : 0.0);
    const double source_share = 1.0 - 0.5 * moved;
    const double rate = 350.0 / source_share;
    SimTime t = tick_start + FromSeconds(rng.NextExponential(1.0 / rate));
    while (t < tick_start + kSecond && t < end) {
      executor.Submit(workload.NextTransaction(rng), t);
      t += FromSeconds(rng.NextExponential(1.0 / rate));
    }
    loop.ScheduleAt(tick_start + kSecond, tick);
  };
  loop.ScheduleAt(0, tick);
  loop.RunUntil(end);
  if (migrate && migration_end == 0) migration_end = end;

  const auto windows = metrics.Finalize(end);
  ChunkResult result;
  result.migration_seconds = migrate ? ToSeconds(migration_end) : 0.0;
  // Summarize only the windows while migration was running (or the
  // matching time range for the static baseline), skipping the first
  // few seconds of warmup.
  const size_t stats_end = migrate
                               ? static_cast<size_t>(result.migration_seconds)
                               : 120u;
  std::vector<int64_t> p50s;
  std::vector<int64_t> p99s;
  double max_p99 = 0.0;
  for (size_t w = 5; w < windows.size() && w < stats_end; ++w) {
    if (windows[w].completed == 0) continue;
    p50s.push_back(static_cast<int64_t>(windows[w].p50_ms * 1000));
    p99s.push_back(static_cast<int64_t>(windows[w].p99_ms * 1000));
    max_p99 = std::max(max_p99, windows[w].p99_ms);
    if (windows[w].p99_ms > 500.0) ++result.violation_windows;
  }
  result.p50_ms = static_cast<double>(Median(std::move(p50s))) / 1000.0;
  result.p99_ms = static_cast<double>(Median(std::move(p99s))) / 1000.0;
  result.max_p99_ms = max_p99;
  return result;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 8: latency vs migration chunk size at per-machine Q-hat",
      "1000 kB chunks ~ static latency; larger chunks finish faster but "
      "spike p99; paper derives D = 77 min from the 1000 kB run");

  auto csv = bench::OpenCsv("fig08_chunk_size.csv");
  if (csv) {
    csv->WriteRow({"config", "median_p50_ms", "median_p99_ms", "max_p99_ms",
                   "migration_s"});
  }

  std::printf("%-10s %12s %12s %12s %10s %14s\n", "config", "p50(ms)",
              "p99(ms)", "max p99(ms)", "viol(s)", "migration(s)");
  const ChunkResult baseline = RunChunkExperiment(1000 * 1000, false);
  std::printf("%-10s %12.1f %12.1f %12.1f %10d %14s\n", "static",
              baseline.p50_ms, baseline.p99_ms, baseline.max_p99_ms,
              baseline.violation_windows, "-");
  if (csv) {
    csv->WriteRow({"static", std::to_string(baseline.p50_ms),
                   std::to_string(baseline.p99_ms),
                   std::to_string(baseline.max_p99_ms), "0"});
  }
  for (const int64_t chunk_kb : {1000, 2000, 4000, 6000, 8000}) {
    const ChunkResult result = RunChunkExperiment(chunk_kb * 1000, true);
    char label[32];
    std::snprintf(label, sizeof(label), "%lld kB",
                  static_cast<long long>(chunk_kb));
    std::printf("%-10s %12.1f %12.1f %12.1f %10d %14.0f\n", label,
                result.p50_ms, result.p99_ms, result.max_p99_ms,
                result.violation_windows, result.migration_seconds);
    if (csv) {
      csv->WriteRow({label, std::to_string(result.p50_ms),
                     std::to_string(result.p99_ms),
                     std::to_string(result.max_p99_ms),
                     std::to_string(result.migration_seconds)});
    }
  }
  std::printf(
      "\nShape check: p99 grows with chunk size while migration time "
      "shrinks — the Fig. 8 tradeoff. With 1000 kB chunks the sustained "
      "pair rate is ~250 kB/s, so the full 1.1 GB database would take "
      "~74 min to move single-threaded (paper: 77 min incl. buffer).\n");
  bench::CloseCsv(csv.get());
  return 0;
}
