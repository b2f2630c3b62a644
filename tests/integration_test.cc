// End-to-end test: the full P-Store stack (trace -> SPAR -> DP planner ->
// migration -> engine) against the reactive baseline on a compressed
// diurnal B2W day, checking the paper's headline qualitative result:
// predictive provisioning causes fewer SLA violations than reactive at a
// comparable machine budget, and far fewer machines than static peak
// provisioning.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/time_series.h"
#include "controller/engine_run.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "migration/squall_migrator.h"
#include "planner/move_model.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "sim/run_spec.h"

namespace pstore {
namespace {

// A compressed synthetic "day": 360 slots of 6 sim-seconds each (36
// sim-minutes), diurnal-shaped between ~250 and ~1450 txn/s so the
// cluster needs between 1 and 6 nodes.
TimeSeries CompressedDay(int days) {
  TimeSeries trace(6.0);
  for (int d = 0; d < days; ++d) {
    for (int slot = 0; slot < 360; ++slot) {
      const double phase = 2.0 * M_PI * (slot - 180) / 360.0;
      // Cubed raised cosine: a steep morning ramp like B2W's (Fig. 1),
      // which is exactly where reactive provisioning hurts.
      const double shape = std::pow(0.5 * (1.0 + std::cos(phase)), 3.0);
      trace.Append(250.0 + 1200.0 * shape);
    }
  }
  return trace;
}

struct RunStats {
  SlaViolations violations;
  double avg_machines = 0.0;
  int64_t committed = 0;
};

// One RunEngine call over `trace`: a 10-node-max cluster with a fast
// migration, and for kPredictive an oracle forecast inflated by 15%.
RunStats RunExperiment(Strategy strategy, const TimeSeries& trace,
                       int initial_nodes) {
  RunSpec spec;
  spec.label = StrategyName(strategy);
  spec.strategy = strategy;
  spec.workload.kind = WorkloadSpec::Kind::kProvided;
  spec.workload.provided = &trace;
  spec.predictor_spec = "oracle";

  EngineRunOptions options;
  options.cluster.max_nodes = 10;
  options.cluster.initial_nodes = initial_nodes;
  options.cluster.num_buckets = 1200;
  options.b2w.cart_pool = 20000;
  options.b2w.checkout_pool = 8000;
  options.migration.net_rate_bytes_per_sec = 200e3;
  options.migration.chunk_spacing_seconds = 0.5;
  options.migration.chunk_bytes = 256 * 1024;
  options.driver.seed = 33;
  options.predictor.refit_interval = 1u << 30;
  options.predictor.training_window = 10;
  options.controller.horizon_plan_slots = 24;

  RunStats stats;
  const StatusOr<EngineRunResult> run = RunEngine(spec, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return stats;
  stats.violations = run->sla.total;
  stats.avg_machines = run->avg_machines;
  stats.committed = run->committed;
  return stats;
}

TEST(IntegrationTest, PredictiveBeatsReactiveAndHalvesStaticCost) {
  const TimeSeries trace = CompressedDay(2);

  const RunStats pstore = RunExperiment(Strategy::kPredictive, trace, 2);
  const RunStats reactive = RunExperiment(Strategy::kReactive, trace, 2);
  const RunStats static6 = RunExperiment(Strategy::kStatic, trace, 6);

  // The static peak allocation serves everything without violations.
  EXPECT_EQ(static6.violations.p50, 0);
  EXPECT_LE(static6.violations.p99, 2);

  // P-Store uses roughly half the machines of peak provisioning...
  EXPECT_LT(pstore.avg_machines, 0.72 * static6.avg_machines);
  // ...and causes fewer tail-latency violations than reactive.
  EXPECT_LE(pstore.violations.p99, reactive.violations.p99);
  EXPECT_LE(pstore.violations.p95, reactive.violations.p95);
  // Reactive visibly hurts at each morning ramp.
  EXPECT_GE(reactive.violations.p99, 1);
  // P-Store stays close to the static system's service quality.
  EXPECT_LE(pstore.violations.p50, 2);

  // All runs processed comparable work.
  EXPECT_GT(pstore.committed, 0);
  EXPECT_NEAR(static_cast<double>(pstore.committed),
              static_cast<double>(static6.committed),
              0.02 * static_cast<double>(static6.committed));
}

TEST(IntegrationTest, PredictiveTracksLoadUpAndDown) {
  // Over two compressed days the controller must both scale out and
  // scale back in (receding horizon with scale-in confirmation).
  const TimeSeries trace = CompressedDay(2);
  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 10;
  cluster_options.initial_nodes = 2;
  cluster_options.num_buckets = 1200;
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 20000;
  workload_options.checkout_pool = 8000;
  b2w::Workload workload(workload_options);
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));
  EventLoop loop;
  MigrationOptions migration_options;
  migration_options.net_rate_bytes_per_sec = 200e3;
  migration_options.chunk_spacing_seconds = 0.5;
  migration_options.chunk_bytes = 256 * 1024;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);
  metrics.RecordMachines(0, 2);

  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;
  driver_options.rate_factor = 1.0;
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);

  OnlinePredictorOptions online_options;
  online_options.inflation = 1.15;
  online_options.refit_interval = 1u << 30;
  online_options.training_window = 10;
  OnlinePredictor predictor(std::make_unique<OraclePredictor>(trace),
                            online_options);
  PSTORE_CHECK_OK(predictor.Warmup(trace.Slice(0, 1)));

  PredictiveControllerOptions options;
  options.slot_sim_seconds = 6.0;
  options.plan_slot_factor = 5;
  options.horizon_plan_slots = 24;
  options.planner_params.target_rate_per_node = 285.0;
  options.planner_params.max_rate_per_node = 350.0;
  options.planner_params.partitions_per_node = 6;
  options.planner_params.d_slots =
      SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                       migration_options) /
      30.0;
  PredictiveController controller(&loop, &cluster, &executor, &migration,
                                  &predictor, options);
  controller.Start();

  const SimTime end = FromSeconds(trace.size() * 6.0);
  driver.Start(end);

  // Peak of day 1 (slot 180): several nodes.
  loop.RunUntil(FromSeconds(185 * 6.0));
  const int peak_nodes = cluster.active_nodes();
  EXPECT_GE(peak_nodes, 4);

  // Trough before day 2's ramp (slot ~360): scaled back down.
  loop.RunUntil(FromSeconds(360 * 6.0));
  EXPECT_LT(cluster.active_nodes(), peak_nodes);

  // Peak of day 2: back up.
  loop.RunUntil(FromSeconds(545 * 6.0));
  EXPECT_GE(cluster.active_nodes(), 4);
  loop.RunUntil(end);
  EXPECT_GE(controller.reconfigurations_started(), 3);
}

}  // namespace
}  // namespace pstore
