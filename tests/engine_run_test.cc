#include "controller/engine_run.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/metrics.h"
#include "fault/fault_schedule.h"
#include "sim/run_spec.h"

namespace pstore {
namespace {

// A pstore_chaos-shaped drill: 300 -> 800 txn/s at minute 8 on 6 s
// slots, a 10-node-max cluster with a fast migration, an oracle
// forecast, and a crash of node 1 while the scale-out runs.
RunSpec DrillSpec(int minutes) {
  RunSpec spec;
  spec.label = "drill";
  spec.strategy = Strategy::kPredictive;
  spec.predictor_spec = "oracle";
  spec.workload.kind = WorkloadSpec::Kind::kStep;
  spec.workload.step_slot_seconds = 6.0;
  spec.workload.step_slots = static_cast<size_t>(minutes) * 10;
  spec.workload.step_at_slot = 80;
  spec.workload.base_rate = 300.0;
  spec.workload.peak_rate = 800.0;
  return spec;
}

EngineRunOptions DrillOptions() {
  EngineRunOptions options;
  options.cluster.max_nodes = 10;
  options.cluster.initial_nodes = 2;
  options.cluster.num_buckets = 1200;
  options.b2w.cart_pool = 20000;
  options.b2w.checkout_pool = 8000;
  options.migration.net_rate_bytes_per_sec = 200e3;
  options.migration.chunk_spacing_seconds = 0.5;
  options.migration.chunk_bytes = 256 * 1024;
  options.driver.seed = 21;
  options.predictor.inflation = 1.1;
  options.predictor.refit_interval = 1u << 30;
  options.predictor.training_window = 10;
  options.controller.horizon_plan_slots = 20;
  FaultEvent crash;
  crash.at = FromSeconds(640.0);
  crash.kind = FaultKind::kNodeCrash;
  crash.node = 1;
  FaultEvent recover = crash;
  recover.at = FromSeconds(700.0);
  recover.kind = FaultKind::kNodeRecover;
  options.faults = {crash, recover};
  return options;
}

Status RunStatus(const RunSpec& spec, const EngineRunOptions& options) {
  return RunEngine(spec, options).status();
}

// Every window and counter of a run, doubles in %.17g, so two runs
// compare bit for bit.
std::string Fingerprint(const EngineRunResult& run) {
  std::string out;
  char buf[512];
  for (const WindowStats& w : run.windows) {
    std::snprintf(buf, sizeof(buf), "%.17g %lld %lld %lld %.17g %.17g %.17g "
                  "%d %d %d\n",
                  w.start_seconds, static_cast<long long>(w.submitted),
                  static_cast<long long>(w.completed),
                  static_cast<long long>(w.unavailable), w.p50_ms, w.p95_ms,
                  w.p99_ms, w.machines, w.migrating ? 1 : 0,
                  w.fault ? 1 : 0);
    out += buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "sla %lld/%lld/%lld fault %lld migration %lld machines %.17g "
      "txns %lld/%lld/%lld reconfigs %lld+%lld chunks %lld/%lld "
      "faults %zu crashes %lld controller %lld %lld %lld %lld\n",
      static_cast<long long>(run.sla.total.p50),
      static_cast<long long>(run.sla.total.p95),
      static_cast<long long>(run.sla.total.p99),
      static_cast<long long>(run.sla.during_fault.p99),
      static_cast<long long>(run.sla.during_migration.p99), run.avg_machines,
      static_cast<long long>(run.submitted),
      static_cast<long long>(run.committed),
      static_cast<long long>(run.unavailable),
      static_cast<long long>(run.reconfigurations),
      static_cast<long long>(run.failed_reconfigurations),
      static_cast<long long>(run.chunk_retries),
      static_cast<long long>(run.chunks_aborted), run.fault_events,
      static_cast<long long>(run.fault_stats.crashes),
      static_cast<long long>(run.moves_started),
      static_cast<long long>(run.move_failures),
      static_cast<long long>(run.replans),
      static_cast<long long>(run.model_switches));
  out += buf;
  return out;
}

TEST(RunEngineTest, RejectsSimpleStrategy) {
  RunSpec spec = DrillSpec(2);
  spec.strategy = Strategy::kSimple;
  EXPECT_EQ(RunStatus(spec, DrillOptions()).code(),
            StatusCode::kInvalidArgument);
}

TEST(RunEngineTest, RejectsPredictiveWithoutSpec) {
  RunSpec spec = DrillSpec(2);
  spec.predictor_spec.clear();
  EXPECT_EQ(RunStatus(spec, DrillOptions()).code(),
            StatusCode::kInvalidArgument);
}

TEST(RunEngineTest, RejectsSpecThatDoesNotBuild) {
  for (const char* bad : {"nosuch", "ar(p=0)", "spar(bogus=1)"}) {
    RunSpec spec = DrillSpec(2);
    spec.predictor_spec = bad;
    const Status status = RunStatus(spec, DrillOptions());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(RunEngineTest, RejectsInitialNodesOutsideCluster) {
  for (const int nodes : {0, -1, 11}) {
    EngineRunOptions options = DrillOptions();
    options.cluster.initial_nodes = nodes;
    EXPECT_EQ(RunStatus(DrillSpec(2), options).code(),
              StatusCode::kInvalidArgument)
        << nodes;
  }
}

TEST(RunEngineTest, RejectsFailedTraceBuild) {
  RunSpec negative = DrillSpec(2);
  negative.workload.base_rate = -5.0;
  EXPECT_EQ(RunStatus(negative, DrillOptions()).code(),
            StatusCode::kInvalidArgument);
  RunSpec infinite = DrillSpec(2);
  infinite.workload.peak_rate = HUGE_VAL;
  EXPECT_EQ(RunStatus(infinite, DrillOptions()).code(),
            StatusCode::kInvalidArgument);
  RunSpec missing = DrillSpec(2);
  missing.workload.kind = WorkloadSpec::Kind::kProvided;
  EXPECT_EQ(RunStatus(missing, DrillOptions()).code(),
            StatusCode::kInvalidArgument);
}

TEST(RunEngineTest, RejectsStartPastTheTraceEnd) {
  EngineRunOptions options = DrillOptions();
  options.driver.start_slot = 20;  // a 2-minute trace has 20 slots
  EXPECT_EQ(RunStatus(DrillSpec(2), options).code(),
            StatusCode::kInvalidArgument);
}

TEST(RunEngineTest, FailedWarmupIsAnErrorOnlyWithATrainingPrefix) {
  // SPAR needs a week of history; two minutes cannot fit it.
  RunSpec spec = DrillSpec(2);
  spec.predictor_spec = "spar";
  EngineRunOptions options = DrillOptions();
  options.driver.start_slot = 10;
  EXPECT_EQ(RunStatus(spec, options).code(), StatusCode::kInvalidArgument);

  // Without a prefix the run starts cold on the flat fallback.
  options.driver.start_slot = 0;
  const StatusOr<EngineRunResult> cold = RunEngine(spec, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->committed, 0);
}

// The chaos drill is deterministic: one run serially and two at once on
// a 2-thread pool give identical windows and counters.
TEST(RunEngineTest, ConcurrentDrillsMatchTheSerialRun) {
  const RunSpec spec = DrillSpec(16);
  const EngineRunOptions options = DrillOptions();
  const StatusOr<EngineRunResult> serial = RunEngine(spec, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_GT(serial->committed, 0);
  EXPECT_GT(serial->moves_started, 0);
  EXPECT_EQ(serial->fault_stats.crashes, 1);
  EXPECT_EQ(serial->fault_events, 2u);

  std::vector<std::string> concurrent(2);
  ThreadPool pool(2);
  const Status ran = pool.ParallelForStatus(2, [&](size_t i) -> Status {
    const StatusOr<EngineRunResult> run = RunEngine(spec, options);
    if (!run.ok()) return run.status();
    concurrent[i] = Fingerprint(*run);
    return Status::OK();
  });
  ASSERT_TRUE(ran.ok()) << ran.ToString();
  const std::string expected = Fingerprint(*serial);
  EXPECT_EQ(concurrent[0], expected);
  EXPECT_EQ(concurrent[1], expected);
}

}  // namespace
}  // namespace pstore
