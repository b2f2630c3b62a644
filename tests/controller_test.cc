#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/time_series.h"
#include "controller/controller.h"
#include "controller/predictive_controller.h"
#include "controller/reactive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "migration/squall_migrator.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"

namespace pstore {
namespace {

// Shared harness: a small cluster running the B2W workload from an
// explicit txn/s trace, with a migration manager slow enough that
// proactive vs. reactive timing matters.
struct Harness {
  explicit Harness(TimeSeries trace_txn_per_s, int initial_nodes)
      : trace(std::move(trace_txn_per_s)),
        cluster(MakeClusterOptions(initial_nodes)),
        metrics(1.0),
        executor(&cluster, &metrics, ExecutorOptions{}),
        migration(&loop, &cluster, &metrics, MakeMigrationOptions()),
        workload(MakeWorkloadOptions()) {
    PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
    PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));
    DriverOptions driver_options;
    driver_options.slot_sim_seconds = 6.0;
    driver_options.rate_factor = 1.0;  // trace already in txn/s
    driver_options.seed = 21;
    driver = std::make_unique<WorkloadDriver>(
        &loop, &executor, trace,
        [this](Rng& rng) { return workload.NextTransaction(rng); },
        driver_options);
    metrics.RecordMachines(0, cluster.active_nodes());
  }

  static ClusterOptions MakeClusterOptions(int initial_nodes) {
    ClusterOptions options;
    options.partitions_per_node = 6;
    options.max_nodes = 10;
    options.initial_nodes = initial_nodes;
    options.num_buckets = 1200;
    return options;
  }
  static MigrationOptions MakeMigrationOptions() {
    MigrationOptions options;
    options.net_rate_bytes_per_sec = 200e3;
    options.chunk_spacing_seconds = 0.5;
    options.chunk_bytes = 256 * 1024;
    options.extract_rate_bytes_per_sec = 20e6;
    return options;
  }
  static b2w::B2wWorkloadOptions MakeWorkloadOptions() {
    b2w::B2wWorkloadOptions options;
    options.cart_pool = 20000;
    options.checkout_pool = 8000;
    return options;
  }

  PredictiveControllerOptions MakePredictiveOptions() const {
    PredictiveControllerOptions options;
    options.slot_sim_seconds = 6.0;
    options.plan_slot_factor = 5;       // plan on 30 s slots
    options.horizon_plan_slots = 20;    // 600 s lookahead
    options.planner_params.target_rate_per_node = 285.0;
    options.planner_params.max_rate_per_node = 350.0;
    options.planner_params.partitions_per_node = 6;
    options.planner_params.d_slots =
        SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                         MakeMigrationOptions()) /
        30.0;
    return options;
  }

  // An oracle wrapped for the online interface: observes measurements
  // but forecasts from the reference trace.
  std::unique_ptr<OnlinePredictor> MakeOracle(const TimeSeries& truth,
                                              double inflation = 1.1) {
    OnlinePredictorOptions options;
    options.inflation = inflation;
    options.refit_interval = 1u << 30;
    options.training_window = 10;
    auto online = std::make_unique<OnlinePredictor>(
        std::make_unique<OraclePredictor>(truth), options);
    PSTORE_CHECK_OK(online->Warmup(truth.Slice(0, 1)));
    return online;
  }

  void RunFor(SimTime duration) {
    driver->Start(loop.now() + duration);
    loop.RunUntil(loop.now() + duration);
  }

  TimeSeries trace;
  EventLoop loop;
  Cluster cluster;
  MetricsCollector metrics;
  TxnExecutor executor;
  MigrationManager migration;
  b2w::Workload workload;
  std::unique_ptr<WorkloadDriver> driver;
};

TimeSeries StepTrace(size_t slots, size_t step_at, double before,
                     double after) {
  TimeSeries trace(6.0);
  for (size_t i = 0; i < slots; ++i) {
    trace.Append(i < step_at ? before : after);
  }
  return trace;
}

TEST(PredictiveControllerTest, ScalesOutBeforePredictedRamp) {
  // Load steps 300 -> 800 txn/s at slot 120 (t = 720 s): 2 nodes
  // suffice before, 3 are needed after. With an oracle predictor the
  // controller must complete the scale-out before the ramp arrives.
  const TimeSeries trace = StepTrace(240, 120, 300.0, 800.0);
  Harness harness(trace, 2);
  auto oracle = harness.MakeOracle(trace);
  PredictiveController controller(&harness.loop, &harness.cluster,
                                  &harness.executor, &harness.migration,
                                  oracle.get(),
                                  harness.MakePredictiveOptions());
  controller.Start();

  harness.driver->Start(240 * 6 * kSecond);
  // Run right up to the ramp: the scale-out must at least be underway
  // (machines for a small move come up at the start of the move), and
  // the Q-hat - Q slack covers any residual migration overlap.
  harness.loop.RunUntil(119 * 6 * kSecond);
  EXPECT_GE(harness.cluster.active_nodes(), 3)
      << "controller failed to scale out ahead of the predicted ramp";
  // Shortly after the ramp the move must have completed.
  harness.loop.RunUntil(130 * 6 * kSecond);
  EXPECT_FALSE(harness.migration.InProgress());
  EXPECT_GE(harness.cluster.active_nodes(), 3);
  harness.loop.RunUntil(240 * 6 * kSecond);

  EXPECT_GE(controller.reconfigurations_started(), 1);
  const auto windows = harness.metrics.Finalize(240 * 6 * kSecond);
  const SlaViolations violations =
      MetricsCollector::CountViolations(windows);
  EXPECT_EQ(violations.p50, 0);
  EXPECT_LE(violations.p99, 3);
}

TEST(PredictiveControllerTest, ScaleInWaitsForConfirmation) {
  // Load drops 700 -> 150 at slot 40 (700 * 1.1 inflation still fits in
  // 3 nodes). With a huge confirmation requirement the controller must
  // never scale in; with the default (3 cycles) it must.
  const TimeSeries trace = StepTrace(200, 40, 700.0, 150.0);
  for (const int confirm_cycles : {1000, 3}) {
    Harness harness(trace, 3);
    auto oracle = harness.MakeOracle(trace);
    PredictiveControllerOptions options = harness.MakePredictiveOptions();
    options.scale_in_confirm_cycles = confirm_cycles;
    PredictiveController controller(&harness.loop, &harness.cluster,
                                    &harness.executor, &harness.migration,
                                    oracle.get(), options);
    controller.Start();
    harness.RunFor(200 * 6 * kSecond);
    if (confirm_cycles == 1000) {
      EXPECT_EQ(harness.cluster.active_nodes(), 3);
    } else {
      EXPECT_LT(harness.cluster.active_nodes(), 3);
    }
  }
}

TEST(PredictiveControllerTest, FallsBackWhenSpikeUnpredicted) {
  // The oracle believes load stays at 300 txn/s, but the actual driver
  // ramps to 900 at slot 60: no feasible plan exists once the spike is
  // measured, so the reactive fallback must kick in (§4.3.1).
  const TimeSeries believed = StepTrace(300, 300, 300.0, 300.0);
  const TimeSeries actual = StepTrace(300, 60, 300.0, 900.0);
  Harness harness(actual, 2);
  auto oracle = harness.MakeOracle(believed, /*inflation=*/1.0);
  PredictiveController controller(&harness.loop, &harness.cluster,
                                  &harness.executor, &harness.migration,
                                  oracle.get(),
                                  harness.MakePredictiveOptions());
  controller.Start();
  harness.RunFor(300 * 6 * kSecond);
  EXPECT_GE(controller.infeasible_plans(), 1);
  EXPECT_GE(harness.cluster.active_nodes(), 4);  // ceil(900/285) = 4
}


TEST(PredictiveControllerTest, PegsAtMaxNodesWhenDemandExceedsCluster) {
  // The oracle predicts demand needing ~14 machines but the cluster has
  // only 10: the controller must scale to the ceiling and stay there,
  // not stall retrying an impossible target.
  const TimeSeries trace = StepTrace(240, 60, 300.0, 3800.0);
  Harness harness(trace, 3);
  auto oracle = harness.MakeOracle(trace);
  PredictiveController controller(&harness.loop, &harness.cluster,
                                  &harness.executor, &harness.migration,
                                  oracle.get(),
                                  harness.MakePredictiveOptions());
  controller.Start();
  harness.RunFor(240 * 6 * kSecond);
  EXPECT_EQ(harness.cluster.active_nodes(),
            harness.cluster.options().max_nodes);
  EXPECT_GE(controller.reconfigurations_started(), 1);
}

TEST(ReactiveControllerTest, ReconfiguresOnlyAfterOverload) {
  const TimeSeries trace = StepTrace(240, 120, 300.0, 800.0);
  Harness harness(trace, 2);
  ReactiveControllerOptions options;
  options.slot_sim_seconds = 6.0;
  options.planner_params.target_rate_per_node = 285.0;
  options.planner_params.max_rate_per_node = 350.0;
  options.planner_params.partitions_per_node = 6;
  ReactiveController controller(&harness.loop, &harness.cluster,
                                &harness.executor, &harness.migration,
                                options);
  controller.Start();

  harness.driver->Start(240 * 6 * kSecond);
  harness.loop.RunUntil(119 * 6 * kSecond);
  // Before the ramp there is nothing to react to.
  EXPECT_EQ(harness.cluster.active_nodes(), 2);
  harness.loop.RunUntil(240 * 6 * kSecond);
  EXPECT_GE(harness.cluster.active_nodes(), 3);
  EXPECT_GE(controller.scale_outs(), 1);

  // Reacting late causes SLA violations around the ramp (the paper's
  // core observation about reactive systems).
  const auto windows = harness.metrics.Finalize(240 * 6 * kSecond);
  const SlaViolations violations =
      MetricsCollector::CountViolations(windows);
  EXPECT_GE(violations.p99, 1);
}

TEST(ReactiveControllerTest, ScalesInAfterSustainedLowLoad) {
  const TimeSeries trace = StepTrace(200, 20, 800.0, 120.0);
  Harness harness(trace, 3);
  ReactiveControllerOptions options;
  options.slot_sim_seconds = 6.0;
  options.low_slots_required = 5;
  options.planner_params.target_rate_per_node = 285.0;
  options.planner_params.max_rate_per_node = 350.0;
  options.planner_params.partitions_per_node = 6;
  ReactiveController controller(&harness.loop, &harness.cluster,
                                &harness.executor, &harness.migration,
                                options);
  controller.Start();
  harness.RunFor(200 * 6 * kSecond);
  EXPECT_LT(harness.cluster.active_nodes(), 3);
  EXPECT_GE(controller.scale_ins(), 1);
}

TEST(LoadMonitorTest, RatesAreDeltas) {
  Cluster cluster(Harness::MakeClusterOptions(1));
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  LoadMonitor monitor(&executor, 10.0);
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    executor.Submit(workload.NextTransaction(rng), 0);
  }
  EXPECT_NEAR(monitor.SampleSlotRate(), 5.0, 1e-9);
  EXPECT_NEAR(monitor.SampleSlotRate(), 0.0, 1e-9);
}

}  // namespace
}  // namespace pstore
