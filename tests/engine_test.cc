#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/schema.h"
#include "b2w/workload.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/time_series.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/transaction.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "obs/trace_event.h"
#include "obs/tracer.h"

namespace pstore {
namespace {

ClusterOptions OneNodeCluster() {
  ClusterOptions options;
  options.partitions_per_node = 6;
  options.max_nodes = 4;
  options.initial_nodes = 1;
  options.num_buckets = 600;
  return options;
}

// ---- Executor ---------------------------------------------------------------

TEST(TxnExecutorTest, UnknownProcedureAborts) {
  Cluster cluster(OneNodeCluster());
  MetricsCollector metrics;
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  TxnRequest request;
  request.procedure = 63;
  const TxnResult result = executor.Submit(request, 0);
  EXPECT_EQ(result.status, TxnStatus::kUnknownProcedure);
  EXPECT_EQ(executor.aborted_count(), 1);
}

TEST(TxnExecutorTest, RegistrationGuards) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  // Double registration rejected.
  EXPECT_FALSE(b2w::RegisterProcedures(&executor).ok());
}

TEST(TxnExecutorTest, ExecutesProcedureLogicAndChargesService) {
  Cluster cluster(OneNodeCluster());
  MetricsCollector metrics;
  ExecutorOptions options;
  options.mean_service_seconds = 0.010;
  TxnExecutor executor(&cluster, &metrics, options);
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());

  TxnRequest request;
  request.procedure = b2w::kAddLineToCart;
  request.key = b2w::CartKey(1);
  request.arg = b2w::kNewCartFlag | 100;
  const TxnResult result = executor.Submit(request, 0);
  EXPECT_EQ(result.status, TxnStatus::kCommitted);
  EXPECT_EQ(executor.committed_count(), 1);

  // The row landed on the partition owning the key's bucket.
  const BucketId bucket = cluster.BucketForKey(request.key);
  const Partition& partition =
      cluster.partition(cluster.PartitionOfBucket(bucket));
  EXPECT_EQ(partition.jobs_executed(), 1);
  EXPECT_GT(partition.total_busy_time(), 0);
  ASSERT_NE(partition.Get(bucket, b2w::kCartTable, request.key), nullptr);
}

TEST(TxnExecutorTest, PerProcedureStatsTracked) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  // Two commits of AddLineToCart and one abort of GetCart (missing key).
  TxnRequest add;
  add.procedure = b2w::kAddLineToCart;
  add.key = b2w::CartKey(1);
  add.arg = b2w::kNewCartFlag | 100;
  executor.Submit(add, 0);
  add.arg = 100;
  executor.Submit(add, 1);
  TxnRequest get;
  get.procedure = b2w::kGetCart;
  get.key = b2w::CartKey(999);
  executor.Submit(get, 2);

  EXPECT_EQ(executor.procedure_stats(b2w::kAddLineToCart).committed, 2);
  EXPECT_EQ(executor.procedure_stats(b2w::kAddLineToCart).aborted, 0);
  EXPECT_EQ(executor.procedure_stats(b2w::kGetCart).committed, 0);
  EXPECT_EQ(executor.procedure_stats(b2w::kGetCart).aborted, 1);
  EXPECT_EQ(executor.procedure_stats(b2w::kDeleteCart).committed, 0);
}

TEST(TxnExecutorTest, SingleNodeSaturatesNearCalibratedRate) {
  // The calibration behind Fig. 7: with the default service model, a
  // 6-partition node keeps tail latency bounded at 285 txn/s (Q) and
  // melts down at ~550 txn/s (beyond the ~438 saturation point).
  for (const auto& [rate, should_saturate] :
       {std::pair<double, bool>{285.0, false},
        std::pair<double, bool>{550.0, true}}) {
    Cluster cluster(OneNodeCluster());
    MetricsCollector metrics;
    TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
    ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
    b2w::B2wWorkloadOptions wl_options;
    wl_options.cart_pool = 20000;
    wl_options.checkout_pool = 8000;
    b2w::Workload workload(wl_options);
    ASSERT_TRUE(workload.LoadInitialData(&cluster).ok());

    EventLoop loop;
    TimeSeries trace(60.0, std::vector<double>(10, rate));
    DriverOptions driver_options;
    driver_options.slot_sim_seconds = 6.0;
    driver_options.rate_factor = 1.0;  // trace already in txn/s
    WorkloadDriver driver(
        &loop, &executor, trace,
        [&workload](Rng& rng) { return workload.NextTransaction(rng); },
        driver_options);
    driver.Start(60 * kSecond);
    loop.RunUntil(60 * kSecond);

    const auto windows = metrics.Finalize(60 * kSecond);
    // Inspect the last 10 seconds.
    double p99_ms = 0.0;
    for (size_t w = windows.size() - 10; w < windows.size(); ++w) {
      p99_ms = std::max(p99_ms, windows[w].p99_ms);
    }
    if (should_saturate) {
      EXPECT_GT(p99_ms, 500.0) << "rate " << rate;
    } else {
      // M/M/1 at utilization 0.65 per partition: p99 sojourn ~180 ms.
      EXPECT_LT(p99_ms, 450.0) << "rate " << rate;
    }
  }
}

// ---- Driver ------------------------------------------------------------------

TEST(WorkloadDriverTest, ArrivalCountTracksTrace) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  EventLoop loop;
  // 100 txn/s for 30 slots of 1 s each.
  TimeSeries trace(1.0, std::vector<double>(30, 100.0));
  DriverOptions options;
  options.slot_sim_seconds = 1.0;
  options.rate_factor = 1.0;
  options.seed = 12;
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  driver.Start(30 * kSecond);
  loop.RunUntil(30 * kSecond);
  // Poisson(3000) total: within 5 sigma.
  EXPECT_NEAR(static_cast<double>(driver.arrivals_generated()), 3000.0,
              5.0 * std::sqrt(3000.0));
  EXPECT_EQ(executor.submitted_count(), driver.arrivals_generated());
}

TEST(WorkloadDriverTest, OfferedRateFollowsSlots) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  EventLoop loop;
  TimeSeries trace(60.0, {60.0, 120.0});  // req/min
  DriverOptions options;
  options.slot_sim_seconds = 6.0;
  options.rate_factor = 10.0 / 60.0;  // 10x accelerated replay
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  EXPECT_NEAR(driver.OfferedRate(0), 10.0, 1e-9);
  EXPECT_NEAR(driver.OfferedRate(7 * kSecond), 20.0, 1e-9);
  EXPECT_EQ(driver.OfferedRate(13 * kSecond), 0.0);  // past the trace
}

TEST(WorkloadDriverTest, StartSlotOffset) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  EventLoop loop;
  TimeSeries trace(60.0, {60.0, 120.0, 180.0});
  DriverOptions options;
  options.slot_sim_seconds = 6.0;
  options.rate_factor = 1.0;
  options.start_slot = 2;
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  EXPECT_NEAR(driver.OfferedRate(0), 180.0, 1e-9);
}

TEST(WorkloadDriverTest, FractionalSlotsRateTicksPiecewise) {
  // Regression: Tick() sampled OfferedRate once at tick start for the
  // whole 1 s batch. With a fractional slot_sim_seconds a trace-slot
  // boundary lands mid-tick and the whole tick was generated at the old
  // slot's rate. Here slot 0 (rate 0) covers [0, 1.5) and slot 1 (rate
  // 400) covers [1.5, 3.0): the tick spanning [1, 2) starts in the
  // silent slot, so the pre-fix driver produced zero arrivals by t = 2 s
  // even though [1.5, 2.0) should see Poisson(200) of them.
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  EventLoop loop;
  TimeSeries trace(60.0, {0.0, 400.0});
  DriverOptions options;
  options.slot_sim_seconds = 1.5;
  options.rate_factor = 1.0;
  options.seed = 9;
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  driver.Start(2 * kSecond);
  loop.RunUntil(2 * kSecond);
  // Poisson(200) over the half-second at 400 txn/s: within 5 sigma.
  EXPECT_NEAR(static_cast<double>(driver.arrivals_generated()), 200.0,
              5.0 * std::sqrt(200.0));
}

TEST(WorkloadDriverTest, FractionalSlotsStopAtMidTickBoundary) {
  // The mirror case: the rate drops to zero at a mid-tick boundary
  // (t = 1.5 s), so arrivals over [0, 3) must track 1.5 s of load, not
  // the full 2 ticks the start-of-tick sample would produce.
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  EventLoop loop;
  TimeSeries trace(60.0, {400.0, 0.0});
  DriverOptions options;
  options.slot_sim_seconds = 1.5;
  options.rate_factor = 1.0;
  options.seed = 9;
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  driver.Start(3 * kSecond);
  loop.RunUntil(3 * kSecond);
  // Poisson(600) over [0, 1.5): within 5 sigma — and clearly below the
  // ~800 a whole-tick sample of slot 0's rate would generate.
  EXPECT_NEAR(static_cast<double>(driver.arrivals_generated()), 600.0,
              5.0 * std::sqrt(600.0));
}

// Records the sim time and procedure of every engine.txn event.
class TxnEventSink : public obs::TraceSink {
 public:
  explicit TxnEventSink(std::vector<std::pair<SimTime, int64_t>>* txns)
      : txns_(txns) {}
  void Write(const obs::TraceEvent& event) override {
    if (std::string(event.name()) != "engine.txn") return;
    for (const obs::TraceEvent::Field& field : event.fields()) {
      if (std::string(field.key) == "proc") {
        txns_->emplace_back(event.ts(), field.int_value);
      }
    }
  }
  Status Close() override { return Status::OK(); }

 private:
  std::vector<std::pair<SimTime, int64_t>>* txns_;
};

TEST(WorkloadDriverTest, ArrivalStreamFollowsDocumentedDrawOrder) {
  // The driver's Rng draws, per constant-rate segment, an exponential
  // gap, then a request for each arrival before the segment's end
  // followed by the next gap: gap, request, gap, ..., gap. Slots of
  // 1.5 s put boundaries inside the ticks [1, 2) and [4, 5), slot 2 is
  // silent, and end_time (5.25 s) falls inside the last tick. The
  // submitted stream must equal an independent re-draw in that order.
#if defined(PSTORE_TRACE_DISABLED)
  GTEST_SKIP() << "engine.txn events are compiled out";
#endif
  constexpr uint64_t kSeed = 31;
  const std::vector<double> rates = {400.0, 100.0, 0.0, 250.0};
  const SimTime end = FromSeconds(5.25);
  b2w::B2wWorkloadOptions wl;
  wl.cart_pool = 1000;
  wl.checkout_pool = 500;

  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  b2w::Workload workload(wl);
  ASSERT_TRUE(workload.LoadInitialData(&cluster).ok());
  std::vector<std::pair<SimTime, int64_t>> submitted;
  obs::Tracer tracer;
  tracer.SetSink(std::make_unique<TxnEventSink>(&submitted));
  tracer.Enable(obs::TraceCategory::kVerbose);
  executor.set_tracer(&tracer);
  EventLoop loop;
  DriverOptions options;
  options.slot_sim_seconds = 1.5;
  options.rate_factor = 1.0;
  options.seed = kSeed;
  WorkloadDriver driver(
      &loop, &executor, TimeSeries(60.0, rates),
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  driver.Start(end);
  loop.RunUntil(7 * kSecond);

  // The constant-rate segments: the ticks split at slot boundaries.
  struct Segment {
    double start_s;
    double end_s;
    double rate;
  };
  const Segment segments[] = {
      {0.0, 1.0, rates[0]}, {1.0, 1.5, rates[0]}, {1.5, 2.0, rates[1]},
      {2.0, 3.0, rates[1]}, {3.0, 4.0, rates[2]}, {4.0, 4.5, rates[2]},
      {4.5, 5.0, rates[3]}, {5.0, 6.0, rates[3]}};
  Rng rng(kSeed);
  b2w::Workload redraw(wl);
  std::vector<std::pair<SimTime, int64_t>> expected;
  for (const Segment& segment : segments) {
    if (segment.rate <= 0.0) continue;
    const SimTime limit = std::min(FromSeconds(segment.end_s), end);
    SimTime t = FromSeconds(segment.start_s) +
                FromSeconds(rng.NextExponential(1.0 / segment.rate));
    while (t < limit) {
      expected.emplace_back(t, redraw.NextTransaction(rng).procedure);
      t += FromSeconds(rng.NextExponential(1.0 / segment.rate));
    }
  }
  ASSERT_GT(expected.size(), 800u);
  EXPECT_EQ(driver.arrivals_generated(),
            static_cast<int64_t>(expected.size()));
  ASSERT_EQ(submitted.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(submitted[i], expected[i]) << "arrival " << i;
  }
}

TEST(WorkloadDriverTest, DeterministicReplay) {
  auto run = [] {
    Cluster cluster(OneNodeCluster());
    TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
    EXPECT_TRUE(b2w::RegisterProcedures(&executor).ok());
    EventLoop loop;
    TimeSeries trace(1.0, std::vector<double>(10, 200.0));
    DriverOptions options;
    options.slot_sim_seconds = 1.0;
    options.rate_factor = 1.0;
    options.seed = 77;
    b2w::B2wWorkloadOptions wl;
    wl.cart_pool = 1000;
    wl.checkout_pool = 500;
    b2w::Workload workload(wl);
    EXPECT_TRUE(workload.LoadInitialData(&cluster).ok());
    WorkloadDriver driver(
        &loop, &executor, trace,
        [&workload](Rng& rng) { return workload.NextTransaction(rng); },
        options);
    driver.Start(10 * kSecond);
    loop.RunUntil(10 * kSecond);
    return std::make_pair(driver.arrivals_generated(),
                          cluster.TotalDataBytes());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace pstore
