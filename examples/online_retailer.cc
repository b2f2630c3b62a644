// Online retailer demo: one compressed day of the B2W shopping-cart and
// checkout workload running on the simulated shared-nothing cluster,
// with the full P-Store stack (online SPAR predictor -> DP planner ->
// Squall-style migration) elastically resizing the cluster.
//
// Build & run:  ./build/examples/online_retailer [days]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/time_series.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/transaction.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "migration/squall_migrator.h"
#include "prediction/online_predictor.h"
#include "prediction/spar_model.h"
#include "trace/b2w_trace_generator.h"

using namespace pstore;

int main(int argc, char** argv) {
  const int replay_days = argc > 1 ? std::atoi(argv[1]) : 1;
  const int training_days = 28;

  // Synthetic B2W aggregate load, in txn/s at the paper's 10x replay
  // speed (one trace minute = 6 simulated seconds).
  B2wTraceOptions trace_options;
  trace_options.days = training_days + replay_days;
  trace_options.peak_requests_per_min = 9000.0;
  trace_options.seed = 3;
  const TimeSeries trace = GenerateB2wTrace(trace_options).Scaled(10.0 / 60.0);

  // The cluster: machines of 6 partitions, 1.1 GB of carts/checkouts.
  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 16;
  cluster_options.initial_nodes = 3;
  cluster_options.num_buckets = 3600;
  Cluster cluster(cluster_options);

  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));
  std::printf("Loaded %lld rows (%.0f MB nominal) across %d machines\n",
              static_cast<long long>(cluster.TotalRowCount()),
              cluster.TotalDataBytes() / 1e6, cluster.active_nodes());

  EventLoop loop;
  MigrationOptions migration_options;  // paper-calibrated (D ~= 77 min)
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);
  metrics.RecordMachines(0, cluster.active_nodes());

  // Online SPAR predictor warmed on four weeks of history.
  SparOptions spar_options;
  spar_options.period = 1440;
  spar_options.num_periods = 7;
  spar_options.num_recent = 30;
  spar_options.max_tau = 240;
  spar_options.tau_stride = 5;
  OnlinePredictorOptions online_options;
  online_options.training_window = training_days * 1440;
  online_options.refit_interval = 7 * 1440;
  online_options.inflation = 1.15;
  OnlinePredictor predictor(std::make_unique<SparPredictor>(spar_options),
                            online_options);
  PSTORE_CHECK_OK(predictor.Warmup(trace.Slice(0, training_days * 1440)));

  PredictiveControllerOptions controller_options;
  controller_options.slot_sim_seconds = 6.0;
  controller_options.plan_slot_factor = 5;
  controller_options.horizon_plan_slots = 48;
  controller_options.planner_params.target_rate_per_node = 285.0;
  controller_options.planner_params.max_rate_per_node = 350.0;
  controller_options.planner_params.partitions_per_node = 6;
  controller_options.planner_params.d_slots =
      SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                       migration_options) /
      30.0;
  PredictiveController controller(&loop, &cluster, &executor, &migration,
                                  &predictor, controller_options);
  controller.Start();

  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;
  driver_options.rate_factor = 1.0;
  driver_options.start_slot = training_days * 1440;
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);

  const SimTime end = FromSeconds(replay_days * 1440 * 6.0);
  driver.Start(end);

  // Run hour by hour (of compressed benchmark time) with progress.
  std::printf("\n%8s %10s %10s %10s %10s\n", "hour", "txn/s", "machines",
              "p99(ms)", "migrating");
  const SimTime hour = FromSeconds(360.0);  // one trace hour at 10x
  for (SimTime t = hour; t <= end; t += hour) {
    loop.RunUntil(t);
    const auto windows = metrics.Finalize(t);
    const auto& last = windows.back();
    double p99 = 0;
    int64_t completed = 0;
    for (size_t w = windows.size() - 360; w < windows.size(); ++w) {
      p99 = std::max(p99, windows[w].p99_ms);
      completed += windows[w].completed;
    }
    std::printf("%8lld %10.0f %10d %10.0f %10s\n",
                static_cast<long long>(t / hour), completed / 360.0,
                last.machines, p99, last.migrating ? "yes" : "no");
  }

  const auto windows = metrics.Finalize(end);
  const SlaViolations violations = MetricsCollector::CountViolations(windows);
  std::printf("\nDay complete: %lld txns committed, %lld aborted.\n",
              static_cast<long long>(executor.committed_count()),
              static_cast<long long>(executor.aborted_count()));
  std::printf("SLA violations (500 ms): p50=%lld p95=%lld p99=%lld; "
              "average machines %.2f; %lld reconfigurations.\n",
              static_cast<long long>(violations.p50),
              static_cast<long long>(violations.p95),
              static_cast<long long>(violations.p99),
              metrics.AverageMachines(end),
              static_cast<long long>(migration.reconfigurations_completed()));

  std::printf("\nTransaction mix:\n%-24s %12s %10s %8s\n", "procedure",
              "committed", "aborted", "abort%%");
  for (ProcedureId id = 0; id < b2w::kNumProcedures; ++id) {
    const auto& stats = executor.procedure_stats(id);
    const int64_t total = stats.committed + stats.aborted;
    if (total == 0) continue;
    std::printf("%-24s %12lld %10lld %7.2f%%\n", b2w::ProcedureName(id),
                static_cast<long long>(stats.committed),
                static_cast<long long>(stats.aborted),
                100.0 * static_cast<double>(stats.aborted) /
                    static_cast<double>(total));
  }
  return 0;
}
