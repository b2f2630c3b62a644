#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/schema.h"
#include "b2w/workload.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/time_series.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/table.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "fault/fault_schedule.h"
#include "migration/squall_migrator.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "sim/capacity_simulator.h"

namespace pstore {
namespace {

// The seeded stream for options a test knows to be valid.
FaultSchedule Seeded(const FaultScheduleOptions& options) {
  StatusOr<FaultSchedule> schedule = FaultSchedule::SeededRandom(options);
  EXPECT_TRUE(schedule.ok()) << schedule.status().ToString();
  return schedule.ok() ? std::move(schedule).value() : FaultSchedule();
}

ClusterOptions TestCluster(int initial_nodes, int max_nodes = 16) {
  ClusterOptions options;
  options.partitions_per_node = 2;
  options.max_nodes = max_nodes;
  options.initial_nodes = initial_nodes;
  options.num_buckets = 512;
  return options;
}

MigrationOptions FastMigration() {
  MigrationOptions options;
  options.net_rate_bytes_per_sec = 10e6;
  options.chunk_spacing_seconds = 0.01;
  options.extract_rate_bytes_per_sec = 200e6;
  options.chunk_bytes = 256 * 1024;
  return options;
}

void LoadData(Cluster* cluster, uint64_t rows, uint32_t row_bytes) {
  Row row;
  row.payload_bytes = row_bytes;
  for (uint64_t key = 0; key < rows; ++key) {
    const BucketId bucket = cluster->BucketForKey(key);
    row.f0 = static_cast<int64_t>(key);
    cluster->partition(cluster->PartitionOfBucket(bucket))
        .Put(bucket, 0, key, row);
  }
}

FaultEvent MakeEvent(double at_seconds, FaultKind kind, int node = -1,
                     double multiplier = 1.0) {
  FaultEvent event;
  event.at = FromSeconds(at_seconds);
  event.kind = kind;
  event.node = node;
  event.multiplier = multiplier;
  return event;
}

// ---- FaultSchedule ---------------------------------------------------------

TEST(FaultScheduleTest, ScriptedSortsByTime) {
  const FaultSchedule schedule = FaultSchedule::Scripted({
      MakeEvent(5.0, FaultKind::kNodeRecover, 1),
      MakeEvent(1.0, FaultKind::kNodeCrash, 1),
      MakeEvent(3.0, FaultKind::kChunkAbort),
  });
  ASSERT_EQ(schedule.events().size(), 3u);
  EXPECT_EQ(schedule.events()[0].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(schedule.events()[1].kind, FaultKind::kChunkAbort);
  EXPECT_EQ(schedule.events()[2].kind, FaultKind::kNodeRecover);
}

TEST(FaultScheduleTest, SeededRandomIsReproducible) {
  FaultScheduleOptions options;
  options.seed = 12345;
  options.horizon_seconds = 7200.0;
  options.max_node = 7;
  options.crash_rate_per_hour = 4.0;
  options.chunk_abort_rate_per_hour = 10.0;
  options.straggler_rate_per_hour = 6.0;
  options.degrade_rate_per_hour = 2.0;

  const FaultSchedule a = Seeded(options);
  const FaultSchedule b = Seeded(options);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at) << "event " << i;
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << "event " << i;
    EXPECT_EQ(a.events()[i].node, b.events()[i].node) << "event " << i;
    EXPECT_EQ(a.events()[i].multiplier, b.events()[i].multiplier)
        << "event " << i;
  }

  options.seed = 54321;
  const FaultSchedule c = Seeded(options);
  bool differs = c.events().size() != a.events().size();
  for (size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].at != c.events()[i].at ||
              a.events()[i].kind != c.events()[i].kind;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical streams";
}

TEST(FaultScheduleTest, SeededRandomRejectsBadOptions) {
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  const std::vector<void (*)(FaultScheduleOptions*)> breakers = {
      [](FaultScheduleOptions* o) { o->crash_rate_per_hour = -5.0; },
      [](FaultScheduleOptions* o) { o->chunk_abort_rate_per_hour = -1.0; },
      [](FaultScheduleOptions* o) { o->straggler_rate_per_hour = -0.5; },
      [](FaultScheduleOptions* o) { o->degrade_rate_per_hour = -2.0; },
      [](FaultScheduleOptions* o) { o->horizon_seconds = 0.0; },
      [](FaultScheduleOptions* o) { o->mean_outage_seconds = 0.0; },
      [](FaultScheduleOptions* o) { o->mean_straggler_seconds = -1.0; },
      [](FaultScheduleOptions* o) { o->mean_degrade_seconds = 0.0; },
      [](FaultScheduleOptions* o) { o->straggler_multiplier = 0.0; },
      [](FaultScheduleOptions* o) { o->degrade_multiplier = 1.5; },
      [](FaultScheduleOptions* o) { o->max_node = -1; },
  };
  const std::vector<void (*)(FaultScheduleOptions*, double)> non_finite = {
      [](FaultScheduleOptions* o, double v) { o->crash_rate_per_hour = v; },
      [](FaultScheduleOptions* o, double v) { o->horizon_seconds = v; },
      [](FaultScheduleOptions* o, double v) { o->mean_outage_seconds = v; },
      [](FaultScheduleOptions* o, double v) { o->straggler_multiplier = v; },
  };
  FaultScheduleOptions valid;
  valid.seed = 3;
  valid.max_node = 9;
  valid.crash_rate_per_hour = 20.0;
  ASSERT_TRUE(FaultSchedule::SeededRandom(valid).ok());
  for (size_t i = 0; i < breakers.size(); ++i) {
    FaultScheduleOptions options = valid;
    breakers[i](&options);
    const StatusOr<FaultSchedule> schedule =
        FaultSchedule::SeededRandom(options);
    EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument)
        << "case " << i;
  }
  for (size_t i = 0; i < non_finite.size(); ++i) {
    for (const double value : {nan, inf}) {
      FaultScheduleOptions options = valid;
      non_finite[i](&options, value);
      const StatusOr<FaultSchedule> schedule =
          FaultSchedule::SeededRandom(options);
      EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument)
          << "case " << i << " value " << value;
    }
  }
}

TEST(FaultScheduleTest, SeededRandomPairsWindowedFaults) {
  FaultScheduleOptions options;
  options.seed = 99;
  options.horizon_seconds = 36000.0;
  options.max_node = 3;
  options.crash_rate_per_hour = 3.0;
  options.straggler_rate_per_hour = 3.0;
  options.degrade_rate_per_hour = 1.0;
  const FaultSchedule schedule = Seeded(options);

  int64_t counts[7] = {};
  for (const FaultEvent& event : schedule.events()) {
    ++counts[static_cast<int>(event.kind)];
    EXPECT_GE(event.at, 0);
    if (event.kind == FaultKind::kNodeCrash ||
        event.kind == FaultKind::kStragglerStart) {
      EXPECT_GE(event.node, 0);
      EXPECT_LE(event.node, options.max_node);
    }
  }
  EXPECT_GT(counts[static_cast<int>(FaultKind::kNodeCrash)], 0);
  EXPECT_EQ(counts[static_cast<int>(FaultKind::kNodeCrash)],
            counts[static_cast<int>(FaultKind::kNodeRecover)]);
  EXPECT_EQ(counts[static_cast<int>(FaultKind::kStragglerStart)],
            counts[static_cast<int>(FaultKind::kStragglerEnd)]);
  EXPECT_EQ(counts[static_cast<int>(FaultKind::kNetworkDegrade)],
            counts[static_cast<int>(FaultKind::kNetworkRestore)]);
}

TEST(FaultScheduleTest, ToCapacityFaultsBuildsWindows) {
  // One crash (60 s..120 s), one straggler at 0.25 (30 s..90 s); network
  // degradation has no serving-capacity footprint and must be dropped.
  const FaultSchedule schedule = FaultSchedule::Scripted({
      MakeEvent(60.0, FaultKind::kNodeCrash, 2),
      MakeEvent(120.0, FaultKind::kNodeRecover, 2),
      MakeEvent(30.0, FaultKind::kStragglerStart, 1, 0.25),
      MakeEvent(90.0, FaultKind::kStragglerEnd, 1),
      MakeEvent(10.0, FaultKind::kNetworkDegrade, -1, 0.5),
      MakeEvent(200.0, FaultKind::kNetworkRestore, -1),
  });
  const std::vector<CapacityFault> faults =
      ToCapacityFaults(schedule, 30.0, 4);
  ASSERT_EQ(faults.size(), 2u);
  // Sorted by event time: straggler first.
  EXPECT_EQ(faults[0].begin_fine_slot, 1u);  // 30 s / 30 s slots
  EXPECT_EQ(faults[0].end_fine_slot, 3u);
  EXPECT_NEAR(faults[0].capacity_multiplier, (4 - 1 + 0.25) / 4.0, 1e-12);
  EXPECT_EQ(faults[1].begin_fine_slot, 2u);
  EXPECT_EQ(faults[1].end_fine_slot, 4u);
  EXPECT_NEAR(faults[1].capacity_multiplier, 3.0 / 4.0, 1e-12);
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjectorTest, CrashTogglesNodeHealthAndMetrics) {
  Cluster cluster(TestCluster(2, 4));
  EventLoop loop;
  MetricsCollector metrics(1.0);
  FaultInjector injector(&loop, &cluster, &metrics,
                         FaultSchedule::Scripted({
                             MakeEvent(1.0, FaultKind::kNodeCrash, 1),
                             MakeEvent(3.0, FaultKind::kNodeRecover, 1),
                         }));
  injector.Arm();

  EXPECT_TRUE(cluster.IsNodeUp(1));
  loop.RunUntil(FromSeconds(2.0));
  EXPECT_FALSE(cluster.IsNodeUp(1));
  loop.RunUntil(FromSeconds(4.0));
  EXPECT_TRUE(cluster.IsNodeUp(1));
  EXPECT_EQ(injector.stats().crashes, 1);
  EXPECT_EQ(injector.stats().recoveries, 1);

  // The fault window must be visible in the finalized window stats.
  const std::vector<WindowStats> windows = metrics.Finalize(FromSeconds(5.0));
  ASSERT_EQ(windows.size(), 5u);
  EXPECT_FALSE(windows[0].fault);
  EXPECT_TRUE(windows[1].fault);
  EXPECT_TRUE(windows[2].fault);
  EXPECT_TRUE(windows[3].fault);  // recovery toggles inside this window
  EXPECT_FALSE(windows[4].fault);
}

TEST(FaultInjectorTest, StragglerAndDegradeSlowChunkRate) {
  Cluster cluster(TestCluster(2, 4));
  EventLoop loop;
  FaultInjector injector(&loop, &cluster, nullptr,
                         FaultSchedule::Scripted({
                             MakeEvent(1.0, FaultKind::kStragglerStart, 0, 0.25),
                             MakeEvent(2.0, FaultKind::kNetworkDegrade, -1, 0.5),
                             MakeEvent(3.0, FaultKind::kStragglerEnd, 0),
                             MakeEvent(4.0, FaultKind::kNetworkRestore, -1),
                         }));
  injector.Arm();

  EXPECT_EQ(injector.ChunkRateMultiplier(NodeId(0), NodeId(1)), 1.0);
  loop.RunUntil(FromSeconds(1.5));
  EXPECT_DOUBLE_EQ(injector.ChunkRateMultiplier(NodeId(0), NodeId(1)), 0.25);
  EXPECT_DOUBLE_EQ(injector.ChunkRateMultiplier(NodeId(1), NodeId(2)), 1.0);  // other pair
  loop.RunUntil(FromSeconds(2.5));
  EXPECT_DOUBLE_EQ(injector.ChunkRateMultiplier(NodeId(0), NodeId(1)), 0.25 * 0.5);
  EXPECT_DOUBLE_EQ(injector.ChunkRateMultiplier(NodeId(1), NodeId(2)), 0.5);
  loop.RunUntil(FromSeconds(5.0));
  EXPECT_EQ(injector.ChunkRateMultiplier(NodeId(0), NodeId(1)), 1.0);
  EXPECT_EQ(injector.stats().stragglers, 1);
  EXPECT_EQ(injector.stats().degradations, 1);
}

TEST(FaultInjectorTest, ChunkAbortIsConsumedOnce) {
  Cluster cluster(TestCluster(2, 4));
  EventLoop loop;
  FaultInjector injector(&loop, &cluster, nullptr,
                         FaultSchedule::Scripted({
                             MakeEvent(1.0, FaultKind::kChunkAbort),
                         }));
  injector.Arm();
  EXPECT_FALSE(injector.TakeChunkAbort(NodeId(0), NodeId(1)));
  loop.RunUntil(FromSeconds(2.0));
  EXPECT_TRUE(injector.TakeChunkAbort(NodeId(0), NodeId(1)));
  EXPECT_FALSE(injector.TakeChunkAbort(NodeId(0), NodeId(1)));  // consumed
  EXPECT_EQ(injector.stats().chunk_aborts_armed, 1);
  EXPECT_EQ(injector.stats().chunk_aborts_consumed, 1);
}

// Regression for the SLA counters' outage blind spot, driven through the
// chaos-drill path (FaultInjector toggling node health, executor
// fast-failing kUnavailable): a full outage — every node down, every
// arrival rejected, nothing completing — must score as violated windows
// in the fault bucket. The counters used to skip completed == 0 windows
// entirely, scoring a dead cluster as a perfect SLA.
TEST(FaultInjectorTest, FullOutageWindowsCountAsFaultViolations) {
  Cluster cluster(TestCluster(2, 4));
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));
  EventLoop loop;
  FaultInjector injector(&loop, &cluster, &metrics,
                         FaultSchedule::Scripted({
                             MakeEvent(1.0, FaultKind::kNodeCrash, 0),
                             MakeEvent(1.0, FaultKind::kNodeCrash, 1),
                             MakeEvent(3.0, FaultKind::kNodeRecover, 0),
                             MakeEvent(3.0, FaultKind::kNodeRecover, 1),
                         }));
  injector.Arm();
  Rng rng(42);
  for (int tick = 0; tick < 50; ++tick) {
    loop.ScheduleAt(tick * 100 * kMillisecond, [&executor, &workload, &rng,
                                                &loop] {
      for (int i = 0; i < 5; ++i) {
        executor.Submit(workload.NextTransaction(rng), loop.now());
      }
    });
  }
  loop.RunUntil(5 * kSecond);

  EXPECT_GT(executor.unavailable_count(), 0);
  const auto windows = metrics.Finalize(5 * kSecond);
  ASSERT_EQ(windows.size(), 5u);
  // Windows 1 and 2 are total outages: arrivals, zero completions.
  for (const size_t w : {1u, 2u}) {
    EXPECT_GT(windows[w].submitted, 0) << "window " << w;
    EXPECT_EQ(windows[w].completed, 0) << "window " << w;
    EXPECT_TRUE(windows[w].fault) << "window " << w;
  }
  const SlaViolations violations =
      MetricsCollector::CountViolations(windows, 500.0);
  EXPECT_GE(violations.p50, 2);
  const SlaAttribution attribution =
      MetricsCollector::AttributeViolations(windows, 500.0);
  EXPECT_GE(attribution.during_fault.p99, 2);
}

// ---- Migration-level recovery ----------------------------------------------

// Acceptance scenario (a): a node crashes mid-migration and recovers.
// The in-flight chunks retry with backoff and the move still completes,
// with a duration inflated by the outage but bounded.
TEST(FaultRecoveryTest, CrashMidMigrationRetriesAndCompletes) {
  auto run = [](bool with_fault) {
    Cluster cluster(TestCluster(2));
    const uint64_t kRows = 3000;
    LoadData(&cluster, kRows, 2048);
    EventLoop loop;
    MigrationManager manager(&loop, &cluster, nullptr, FastMigration());
    std::unique_ptr<FaultInjector> injector;
    if (with_fault) {
      // Node 2 is a scale-out target: crash it shortly into the move,
      // bring it back 0.4 s later.
      injector = std::make_unique<FaultInjector>(
          &loop, &cluster, nullptr,
          FaultSchedule::Scripted({
              MakeEvent(0.05, FaultKind::kNodeCrash, 2),
              MakeEvent(0.45, FaultKind::kNodeRecover, 2),
          }));
      manager.set_fault_hook(injector.get());
      injector->Arm();
    }
    Status done = Status::Internal("never finished");
    SimTime finished_at = -1;
    PSTORE_CHECK_OK(manager.StartReconfiguration(NodeCount(4), 1.0, [&](const Status& s) {
      done = s;
      finished_at = loop.now();
    }));
    loop.RunToCompletion();
    PSTORE_CHECK(done.ok());
    PSTORE_CHECK(cluster.TotalRowCount() == static_cast<int64_t>(kRows));
    return std::make_tuple(finished_at, manager.chunk_retries());
  };

  const auto [clean_duration, clean_retries] = run(false);
  const auto [faulted_duration, faulted_retries] = run(true);
  EXPECT_EQ(clean_retries, ChunkCount(0));
  EXPECT_GT(faulted_retries, ChunkCount(0))
      << "crash did not intersect the migration";
  EXPECT_GT(faulted_duration, clean_duration);
  // Bounded: the outage (0.4 s) plus a couple of backoff steps, not a
  // runaway stall.
  EXPECT_LT(faulted_duration, clean_duration + FromSeconds(5.0));
}

// Acceptance scenario (b), migrator half: a crash that outlives the
// retry budget aborts the reconfiguration with kAborted and leaves the
// cluster routing every surviving row.
TEST(FaultRecoveryTest, RetryBudgetExhaustionAbortsMove) {
  Cluster cluster(TestCluster(2));
  const uint64_t kRows = 3000;
  LoadData(&cluster, kRows, 2048);
  EventLoop loop;
  MigrationOptions options = FastMigration();
  options.max_chunk_retries = 2;
  options.retry_backoff_seconds = 0.05;
  MigrationManager manager(&loop, &cluster, nullptr, options);
  FaultInjector injector(&loop, &cluster, nullptr,
                         FaultSchedule::Scripted({
                             MakeEvent(0.05, FaultKind::kNodeCrash, 2),
                             // never recovers
                         }));
  manager.set_fault_hook(&injector);
  injector.Arm();

  Status done = Status::OK();
  bool called = false;
  PSTORE_CHECK_OK(manager.StartReconfiguration(NodeCount(4), 1.0, [&](const Status& s) {
    done = s;
    called = true;
  }));
  loop.RunToCompletion();

  ASSERT_TRUE(called);
  EXPECT_EQ(done.code(), StatusCode::kAborted) << done.ToString();
  EXPECT_FALSE(manager.InProgress());
  EXPECT_EQ(manager.reconfigurations_failed(), 1);
  EXPECT_EQ(manager.reconfigurations_completed(), 0);
  EXPECT_EQ(manager.last_failure().code(), StatusCode::kAborted);
  EXPECT_GT(manager.chunk_retries(), ChunkCount(0));

  // Chunks commit atomically, so no row was lost or duplicated and
  // routing stays internally consistent.
  EXPECT_EQ(cluster.TotalRowCount(), static_cast<int64_t>(kRows));
  for (uint64_t key = 0; key < kRows; key += 13) {
    const BucketId bucket = cluster.BucketForKey(key);
    const Row* row = cluster.partition(cluster.PartitionOfBucket(bucket))
                         .Get(bucket, 0, key);
    ASSERT_NE(row, nullptr) << "key " << key;
  }

  // The abort leaves the cluster at the expanded machine count with
  // whatever buckets already landed on the new nodes; once the node is
  // back, a follow-up reconfiguration (here: scaling to 3) succeeds.
  cluster.MarkNodeUp(2);
  Status second = Status::Internal("never finished");
  PSTORE_CHECK_OK(manager.StartReconfiguration(
      NodeCount(3), 1.0, [&](const Status& s) { second = s; }));
  loop.RunToCompletion();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(cluster.TotalRowCount(), static_cast<int64_t>(kRows));
}

// ---- Controller-level recovery ---------------------------------------------

// Small B2W harness matching controller_test.cc.
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
    driver_options.rate_factor = 1.0;
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
    // Keep recovery prompt at test scale.
    options.max_chunk_retries = 3;
    options.retry_backoff_seconds = 0.5;
    options.max_backoff_seconds = 4.0;
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
    options.plan_slot_factor = 5;
    options.horizon_plan_slots = 20;
    options.planner_params.target_rate_per_node = 285.0;
    options.planner_params.max_rate_per_node = 350.0;
    options.planner_params.partitions_per_node = 6;
    options.planner_params.d_slots =
        SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                         MakeMigrationOptions()) /
        30.0;
    return options;
  }

  std::unique_ptr<OnlinePredictor> MakeOracle(const TimeSeries& truth) {
    OnlinePredictorOptions options;
    options.inflation = 1.1;
    options.refit_interval = 1u << 30;
    options.training_window = 10;
    auto online = std::make_unique<OnlinePredictor>(
        std::make_unique<OraclePredictor>(truth), options);
    PSTORE_CHECK_OK(online->Warmup(truth.Slice(0, 1)));
    return online;
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

// Acceptance scenario (b), controller half: the scale-out target node
// crashes permanently, the move's retry budget runs out, and the
// controller must see the failure and re-plan immediately (not wait for
// operator intervention or a stuck in_progress flag).
TEST(FaultRecoveryTest, ControllerReplansAfterPermanentMoveFailure) {
  // Load steps 300 -> 800 txn/s at slot 120 (t = 720 s); the oracle
  // controller starts the 2 -> 3 scale-out around t = 610 s. Node 2 (the
  // scale-out target) goes down at t = 600 s and never comes back.
  const TimeSeries trace = StepTrace(240, 120, 300.0, 800.0);
  Harness harness(trace, 2);
  FaultInjector injector(&harness.loop, &harness.cluster, &harness.metrics,
                         FaultSchedule::Scripted({
                             MakeEvent(600.0, FaultKind::kNodeCrash, 2),
                         }));
  harness.migration.set_fault_hook(&injector);
  injector.Arm();

  auto oracle = harness.MakeOracle(trace);
  PredictiveController controller(&harness.loop, &harness.cluster,
                                  &harness.executor, &harness.migration,
                                  oracle.get(),
                                  harness.MakePredictiveOptions());
  controller.Start();

  harness.driver->Start(240 * 6 * kSecond);
  harness.loop.RunUntil(240 * 6 * kSecond);

  EXPECT_GT(harness.migration.reconfigurations_failed(), 0)
      << "the crash never made a move fail";
  EXPECT_GE(controller.move_failures(), 1);
  // Every failure triggers an immediate re-plan, within the same control
  // cycle.
  EXPECT_EQ(controller.replans_after_failure(), controller.move_failures());
  // The crashed node was a scale-out *target*: no bucket ever landed on
  // it (its chunks kept failing), so no transaction routed to it either.
  EXPECT_EQ(harness.executor.unavailable_count(), 0);
}

// ---- End-to-end determinism ------------------------------------------------

// Serializes every window plus the executor/migration counters with full
// float precision, so two runs compare bit-for-bit.
std::string Snapshot(const std::vector<WindowStats>& windows,
                     const TxnExecutor& executor,
                     const MigrationManager& migration) {
  std::string out;
  char buf[256];
  for (const WindowStats& w : windows) {
    std::snprintf(buf, sizeof(buf),
                  "%lld/%lld/%lld %.17g/%.17g/%.17g m%d g%d f%d\n",
                  static_cast<long long>(w.submitted),
                  static_cast<long long>(w.completed),
                  static_cast<long long>(w.unavailable), w.p50_ms, w.p95_ms,
                  w.p99_ms, w.machines, w.migrating ? 1 : 0, w.fault ? 1 : 0);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "ctr %lld/%lld/%lld/%lld/%lld mig %lld/%lld/%lld\n",
                static_cast<long long>(executor.submitted_count()),
                static_cast<long long>(executor.committed_count()),
                static_cast<long long>(executor.aborted_count()),
                static_cast<long long>(executor.distributed_count()),
                static_cast<long long>(executor.unavailable_count()),
                static_cast<long long>(migration.reconfigurations_completed()),
                static_cast<long long>(migration.reconfigurations_failed()),
                static_cast<long long>(migration.chunk_retries().value()));
  out += buf;
  return out;
}

// Acceptance scenario (c): the same seed reproduces the identical fault
// stream and, run against the identical engine setup, the identical
// final window statistics.
TEST(FaultDeterminismTest, SameSeedSameWindows) {
  auto run = [](uint64_t seed) {
    FaultScheduleOptions fault_options;
    fault_options.seed = seed;
    fault_options.horizon_seconds = 600.0;
    fault_options.max_node = 3;
    fault_options.crash_rate_per_hour = 18.0;
    fault_options.mean_outage_seconds = 20.0;
    fault_options.straggler_rate_per_hour = 12.0;
    fault_options.chunk_abort_rate_per_hour = 30.0;
    const FaultSchedule schedule = Seeded(fault_options);

    Harness harness(StepTrace(100, 50, 300.0, 800.0), 2);
    FaultInjector injector(&harness.loop, &harness.cluster, &harness.metrics,
                           schedule);
    harness.migration.set_fault_hook(&injector);
    injector.Arm();
    auto oracle = harness.MakeOracle(harness.trace);
    PredictiveController controller(&harness.loop, &harness.cluster,
                                    &harness.executor, &harness.migration,
                                    oracle.get(),
                                    harness.MakePredictiveOptions());
    controller.Start();
    harness.driver->Start(100 * 6 * kSecond);
    harness.loop.RunUntil(100 * 6 * kSecond);

    return std::make_pair(
        schedule.events(),
        Snapshot(harness.metrics.Finalize(100 * 6 * kSecond),
                 harness.executor, harness.migration));
  };

  const auto [events_a, snapshot_a] = run(7);
  const auto [events_b, snapshot_b] = run(7);

  ASSERT_FALSE(events_a.empty());
  ASSERT_EQ(events_a.size(), events_b.size());
  for (size_t i = 0; i < events_a.size(); ++i) {
    EXPECT_EQ(events_a[i].at, events_b[i].at);
    EXPECT_EQ(events_a[i].kind, events_b[i].kind);
    EXPECT_EQ(events_a[i].node, events_b[i].node);
  }

  // Every window and counter of the full stack (B2W workload, oracle
  // predictive controller, live migration, crashes mid-run) reproduces
  // bit-for-bit.
  EXPECT_EQ(snapshot_a, snapshot_b);
  EXPECT_NE(snapshot_a.find(" f1\n"), std::string::npos);
  EXPECT_EQ(snapshot_a.find(" mig 0/"), std::string::npos);
}

// Runs the full stack on the serial engine: B2W workload on a 300 -> 900
// txn/s step trace, oracle predictive controller, live migration, and a
// scripted crash of node 1 from t = 50 s to t = 70 s.
std::string RunGoldenStack() {
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
  migration_options.extract_rate_bytes_per_sec = 20e6;
  migration_options.max_chunk_retries = 3;
  migration_options.retry_backoff_seconds = 0.5;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);

  TimeSeries trace(6.0);
  for (int i = 0; i < 40; ++i) trace.Append(i < 20 ? 300.0 : 900.0);

  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;
  driver_options.rate_factor = 1.0;
  driver_options.seed = 21;
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);
  metrics.RecordMachines(0, cluster.active_nodes());

  FaultInjector injector(&loop, &cluster, &metrics,
                         FaultSchedule::Scripted({
                             MakeEvent(50.0, FaultKind::kNodeCrash, 1),
                             MakeEvent(70.0, FaultKind::kNodeRecover, 1),
                         }));
  migration.set_fault_hook(&injector);
  injector.Arm();

  OnlinePredictorOptions predictor_options;
  predictor_options.inflation = 1.1;
  predictor_options.refit_interval = 1u << 30;
  predictor_options.training_window = 10;
  OnlinePredictor oracle(std::make_unique<OraclePredictor>(trace),
                         predictor_options);
  PSTORE_CHECK_OK(oracle.Warmup(trace.Slice(0, 1)));

  PredictiveControllerOptions controller_options;
  controller_options.slot_sim_seconds = 6.0;
  controller_options.plan_slot_factor = 5;
  controller_options.horizon_plan_slots = 20;
  controller_options.planner_params.target_rate_per_node = 285.0;
  controller_options.planner_params.max_rate_per_node = 350.0;
  controller_options.planner_params.partitions_per_node = 6;
  controller_options.planner_params.d_slots =
      SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                       migration_options) /
      30.0;
  PredictiveController controller(&loop, &cluster, &executor, &migration,
                                  &oracle, controller_options);
  controller.Start();

  const SimTime end = 40 * 6 * kSecond;
  driver.Start(end);
  loop.RunUntil(end);
  return Snapshot(metrics.Finalize(end), executor, migration);
}

// The serial golden run (scripted crash, step trace, scale-out under the
// oracle controller) reproduces bit-for-bit from one run to the next.
TEST(ShardedEngineEquivalenceTest, FullStackMatchesSerialGoldenRun) {
  const std::string golden = RunGoldenStack();
  EXPECT_EQ(golden, RunGoldenStack());
  EXPECT_EQ(golden, RunGoldenStack());
  // Sanity: the run did real work (a scale-out and a fault window).
  EXPECT_NE(golden.find(" f1\n"), std::string::npos);
  EXPECT_NE(golden.find("mig "), std::string::npos);
  EXPECT_EQ(golden.find(" mig 0/"), std::string::npos);
}

}  // namespace
}  // namespace pstore
