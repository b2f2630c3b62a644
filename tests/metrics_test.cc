#include "engine/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/sim_time.h"

namespace pstore {
namespace {

TEST(WindowHistogramTest, EmptyQuantileIsZero) {
  WindowHistogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0);
  EXPECT_EQ(h.count(), 0);
}

TEST(WindowHistogramTest, SingleValue) {
  WindowHistogram h;
  h.Record(123 * kMillisecond);
  EXPECT_EQ(h.count(), 1);
  const SimTime p50 = h.ValueAtQuantile(0.5);
  EXPECT_LE(p50, 123 * kMillisecond);
  EXPECT_GE(p50, 100 * kMillisecond);
}

TEST(WindowHistogramTest, QuantileAccuracyWithinBucketResolution) {
  WindowHistogram h;
  for (int i = 0; i < 900; ++i) h.Record(10 * kMillisecond);
  for (int i = 0; i < 100; ++i) h.Record(800 * kMillisecond);
  const double p50_ms = ToSeconds(h.ValueAtQuantile(0.5)) * 1e3;
  const double p95_ms = ToSeconds(h.ValueAtQuantile(0.95)) * 1e3;
  EXPECT_NEAR(p50_ms, 10.0, 1.5);
  EXPECT_NEAR(p95_ms, 800.0, 100.0);
}

TEST(WindowHistogramTest, SubMillisecondLatenciesLandInFirstBucket) {
  WindowHistogram h;
  h.Record(50);  // 50 us
  EXPECT_LE(h.ValueAtQuantile(1.0), 100);
}

TEST(WindowHistogramTest, QuantileEdgeCases) {
  WindowHistogram empty;
  EXPECT_EQ(empty.ValueAtQuantile(0.0), 0);
  EXPECT_EQ(empty.ValueAtQuantile(1.0), 0);

  WindowHistogram h;
  h.Record(10 * kMillisecond);
  h.Record(400 * kMillisecond);
  // q = 0.0 still reports the smallest recorded sample's bucket (its
  // upper edge, within the ~9% bucket resolution), not 0.
  EXPECT_GT(h.ValueAtQuantile(0.0), 0);
  EXPECT_LE(h.ValueAtQuantile(0.0), 11 * kMillisecond);
  // q = 1.0 is capped at the true maximum, not the bucket's upper edge.
  EXPECT_EQ(h.ValueAtQuantile(1.0), 400 * kMillisecond);
  // Out-of-range quantiles clamp instead of reading out of bounds.
  EXPECT_EQ(h.ValueAtQuantile(-0.5), h.ValueAtQuantile(0.0));
  EXPECT_EQ(h.ValueAtQuantile(2.0), h.ValueAtQuantile(1.0));
}

TEST(WindowHistogramTest, BeyondTopBucketStaysBoundedAndMonotone) {
  WindowHistogram h;
  // ~28 hours: far past the top bucket's edge. The sample lands in the
  // last bucket; quantiles stay within [top-bucket range, observed max]
  // instead of overflowing or crashing.
  const SimTime huge = 100000 * kSecond;
  h.Record(huge);
  const SimTime p50 = h.ValueAtQuantile(0.5);
  EXPECT_EQ(p50, h.ValueAtQuantile(1.0));
  EXPECT_GT(p50, FromSeconds(5.0));
  EXPECT_LE(p50, huge);
}

TEST(WindowHistogramTest, BucketCountersSaturateInsteadOfWrapping) {
  WindowHistogram h;
  // Overfill one low-latency bucket past uint32_t range, then add a
  // smaller high-latency population. If the bucket wrapped (the pre-fix
  // behavior), the low bucket would hold ~1 sample and the median would
  // jump to the 800 ms population; saturation keeps it at the low edge.
  const int64_t kMax = 4294967295LL;  // UINT32_MAX
  h.Record(1 * kMillisecond, kMax);
  h.Record(1 * kMillisecond, 2);  // would wrap the bucket to 1
  h.Record(800 * kMillisecond, 100);
  EXPECT_EQ(h.count(), kMax + 2 + 100);
  EXPECT_LE(h.ValueAtQuantile(0.5), 2 * kMillisecond);
  // The true maximum is still reported even though its bucket is tiny
  // relative to the saturated one.
  EXPECT_EQ(h.ValueAtQuantile(1.0), 800 * kMillisecond);
}

TEST(WindowHistogramTest, QuantilesSurviveBucketSaturation) {
  // Regression: ValueAtQuantile derived its rank target from the exact
  // 64-bit count_ but accumulated `seen` over the saturating uint32
  // buckets. Once a bucket saturated, count_ > sum(buckets) and
  // mid-range quantile targets exceeded the total stored mass, so every
  // quantile silently collapsed to the observed maximum. The target must
  // clamp to the stored mass.
  WindowHistogram h;
  const int64_t kMax = 4294967295LL;  // UINT32_MAX
  h.Record(1 * kMillisecond, kMax);
  h.Record(1 * kMillisecond, kMax);  // bucket saturates; count_ = 2*kMax
  h.Record(800 * kMillisecond, 10);
  // p50's rank (~kMax + 5) exceeds the stored mass (kMax + 10); pre-fix
  // this returned 800 ms. The overwhelming majority of samples are 1 ms.
  EXPECT_LE(h.ValueAtQuantile(0.5), 2 * kMillisecond);
  EXPECT_LE(h.ValueAtQuantile(0.95), 2 * kMillisecond);
  // The true maximum is still reachable at the top.
  EXPECT_EQ(h.ValueAtQuantile(1.0), 800 * kMillisecond);
}

TEST(WindowHistogramTest, NonPositiveWeightIsIgnored) {
  WindowHistogram h;
  h.Record(10 * kMillisecond, 0);
  h.Record(10 * kMillisecond, -5);
  EXPECT_EQ(h.count(), 0);
}

// The log2 formula the bucket table is bisected from, restated as the
// reference: 8 buckets per octave above 100 us, bucket 0 below it.
int Log2Bucket(SimTime latency) {
  if (latency < 100) return 0;
  const double octaves = std::log2(static_cast<double>(latency) / 100.0);
  return std::min(static_cast<int>(octaves * 8) + 1,
                  WindowHistogram::kNumBuckets - 1);
}

TEST(WindowHistogramTest, BucketTableMatchesLog2Formula) {
  // One below, at and one above every bucket's lower edge...
  for (int bucket = 1; bucket < WindowHistogram::kNumBuckets; ++bucket) {
    SimTime lo = 0;
    SimTime hi = SimTime{1} << 40;
    while (lo < hi) {
      const SimTime mid = lo + (hi - lo) / 2;
      if (Log2Bucket(mid) >= bucket) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    for (const SimTime latency : {lo - 1, lo, lo + 1}) {
      EXPECT_EQ(WindowHistogram::BucketFor(latency), Log2Bucket(latency))
          << "latency " << latency;
    }
  }
  // ...and across the latencies a run records, up to 6000 s.
  Rng rng(6);
  for (int i = 0; i < 1000000; ++i) {
    const auto latency =
        static_cast<SimTime>(rng.NextUint64(6'000'000'001ULL));
    ASSERT_EQ(WindowHistogram::BucketFor(latency), Log2Bucket(latency))
        << "latency " << latency;
  }
}

TEST(MetricsCollectorTest, ThroughputPerWindow) {
  MetricsCollector metrics(1.0);
  // Three txns complete in window 0, one in window 2.
  metrics.RecordTxn(0, 100 * kMillisecond);
  metrics.RecordTxn(0, 200 * kMillisecond);
  metrics.RecordTxn(kSecond - 1, kSecond - 1);
  metrics.RecordTxn(kSecond / 2, 2 * kSecond + 1);
  const auto windows = metrics.Finalize(3 * kSecond);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].completed, 3);
  EXPECT_EQ(windows[0].submitted, 4);
  EXPECT_EQ(windows[1].completed, 0);
  EXPECT_EQ(windows[2].completed, 1);
}

TEST(MetricsCollectorTest, LatencyLandsInCompletionWindow) {
  MetricsCollector metrics(1.0);
  // Submitted in window 0, completes in window 4 with 4.2 s latency.
  metrics.RecordTxn(800 * kMillisecond, 5 * kSecond);
  const auto windows = metrics.Finalize(6 * kSecond);
  ASSERT_EQ(windows.size(), 6u);
  EXPECT_EQ(windows[5].completed, 1);
  EXPECT_NEAR(windows[5].p99_ms, 4200.0, 400.0);
}

TEST(MetricsCollectorTest, MachineStepSeries) {
  MetricsCollector metrics(1.0);
  metrics.RecordMachines(0, 2);
  metrics.RecordMachines(2 * kSecond + kSecond / 2, 5);
  const auto windows = metrics.Finalize(5 * kSecond);
  ASSERT_EQ(windows.size(), 5u);
  EXPECT_EQ(windows[0].machines, 2);
  EXPECT_EQ(windows[1].machines, 2);
  EXPECT_EQ(windows[2].machines, 5);  // step within the window
  EXPECT_EQ(windows[4].machines, 5);
}

TEST(MetricsCollectorTest, AverageMachinesTimeWeighted) {
  MetricsCollector metrics(1.0);
  metrics.RecordMachines(0, 2);
  metrics.RecordMachines(6 * kSecond, 4);
  // 6 s at 2 machines + 4 s at 4 machines over 10 s = 2.8.
  EXPECT_NEAR(metrics.AverageMachines(10 * kSecond), 2.8, 1e-9);
}

TEST(MetricsCollectorTest, MigrationFlagPerWindow) {
  MetricsCollector metrics(1.0);
  metrics.RecordMigrationActive(kSecond, true);
  metrics.RecordMigrationActive(3 * kSecond, false);
  const auto windows = metrics.Finalize(5 * kSecond);
  EXPECT_FALSE(windows[0].migrating);
  EXPECT_TRUE(windows[1].migrating);
  EXPECT_TRUE(windows[2].migrating);
  EXPECT_FALSE(windows[4].migrating);
}

TEST(MetricsCollectorTest, SlaViolationCounting) {
  MetricsCollector metrics(1.0);
  // Window 0: fast txns. Window 1: p99 over 500 ms but p50 fine.
  for (int i = 0; i < 100; ++i) {
    metrics.RecordTxn(0, 10 * kMillisecond);
  }
  for (int i = 0; i < 98; ++i) {
    metrics.RecordTxn(kSecond, kSecond + 20 * kMillisecond);
  }
  for (int i = 0; i < 2; ++i) {
    metrics.RecordTxn(kSecond, kSecond + 900 * kMillisecond);
  }
  const auto windows = metrics.Finalize(2 * kSecond);
  const SlaViolations violations =
      MetricsCollector::CountViolations(windows, 500.0);
  EXPECT_EQ(violations.p50, 0);
  EXPECT_EQ(violations.p95, 0);
  EXPECT_EQ(violations.p99, 1);
}

TEST(MetricsCollectorTest, UnavailableTxnsCountedPerWindow) {
  MetricsCollector metrics(1.0);
  metrics.RecordTxn(0, 10 * kMillisecond);
  metrics.RecordUnavailable(100 * kMillisecond);
  metrics.RecordUnavailable(kSecond + 1);
  const auto windows = metrics.Finalize(2 * kSecond);
  ASSERT_EQ(windows.size(), 2u);
  // Fast-failed txns count as submitted but never complete, so they
  // leave the latency percentiles untouched.
  EXPECT_EQ(windows[0].submitted, 2);
  EXPECT_EQ(windows[0].completed, 1);
  EXPECT_EQ(windows[0].unavailable, 1);
  EXPECT_EQ(windows[1].unavailable, 1);
  EXPECT_EQ(windows[1].completed, 0);
}

TEST(MetricsCollectorTest, AttributionSplitsByFaultAndMigration) {
  MetricsCollector metrics(1.0);
  // Four windows, all violating at p99: 0 baseline, 1 migrating,
  // 2 fault-only, 3 fault AND migrating (fault wins).
  for (SimTime w = 0; w < 4; ++w) {
    for (int i = 0; i < 10; ++i) {
      metrics.RecordTxn(w * kSecond, w * kSecond + 900 * kMillisecond);
    }
  }
  metrics.RecordMigrationActive(kSecond, true);
  metrics.RecordMigrationActive(2 * kSecond, false);
  metrics.RecordMigrationActive(3 * kSecond, true);
  metrics.RecordFaultActive(2 * kSecond, true);
  const auto windows = metrics.Finalize(5 * kSecond);
  const SlaAttribution attribution =
      MetricsCollector::AttributeViolations(windows, 500.0);
  EXPECT_EQ(attribution.total.p99, 4);
  EXPECT_EQ(attribution.baseline.p99, 1);
  EXPECT_EQ(attribution.during_migration.p99, 1);
  EXPECT_EQ(attribution.during_fault.p99, 2);
  EXPECT_EQ(attribution.during_fault.p99 + attribution.during_migration.p99 +
                attribution.baseline.p99,
            attribution.total.p99);
}

TEST(MetricsCollectorTest, IntraWindowMigrationIsNotDropped) {
  // Regression: a migration that starts and finishes inside one metrics
  // window used to leave every window's `migrating` flag false, because
  // Finalize only sampled the step series at window boundaries. Table
  // 2's during_migration attribution then under-counted short moves.
  MetricsCollector metrics(1.0);
  metrics.RecordMigrationActive(kSecond + 200 * kMillisecond, true);
  metrics.RecordMigrationActive(kSecond + 800 * kMillisecond, false);
  const auto windows = metrics.Finalize(3 * kSecond);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_FALSE(windows[0].migrating);
  EXPECT_TRUE(windows[1].migrating);
  EXPECT_FALSE(windows[2].migrating);
}

TEST(MetricsCollectorTest, IntraWindowFaultIsNotDropped) {
  MetricsCollector metrics(1.0);
  metrics.RecordFaultActive(2 * kSecond + 100 * kMillisecond, true);
  metrics.RecordFaultActive(2 * kSecond + 900 * kMillisecond, false);
  const auto windows = metrics.Finalize(4 * kSecond);
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_FALSE(windows[1].fault);
  EXPECT_TRUE(windows[2].fault);
  EXPECT_FALSE(windows[3].fault);
}

TEST(MetricsCollectorTest, IntraWindowTogglesFeedAttribution) {
  MetricsCollector metrics(1.0);
  // A violating window whose entire migration falls inside it must be
  // attributed to during_migration, not baseline.
  for (int i = 0; i < 10; ++i) {
    metrics.RecordTxn(0, 900 * kMillisecond);
  }
  metrics.RecordMigrationActive(200 * kMillisecond, true);
  metrics.RecordMigrationActive(700 * kMillisecond, false);
  const auto windows = metrics.Finalize(kSecond);
  const SlaAttribution attribution =
      MetricsCollector::AttributeViolations(windows, 500.0);
  EXPECT_EQ(attribution.total.p99, 1);
  EXPECT_EQ(attribution.during_migration.p99, 1);
  EXPECT_EQ(attribution.baseline.p99, 0);
}

TEST(MetricsCollectorTest, FullOutageWindowsViolateEveryPercentile) {
  // Regression: windows with completed == 0 used to be skipped by both
  // SLA counters even when they had submissions — a total outage (every
  // arrival rejected kUnavailable, e.g. the node owning all buckets is
  // down) was scored as zero violations, the best possible SLA. Such
  // windows have no latency samples because nothing completed, which is
  // worse than any latency, not better.
  MetricsCollector metrics(1.0);
  for (int i = 0; i < 50; ++i) {
    metrics.RecordUnavailable(100 * kMillisecond);
  }
  metrics.RecordFaultActive(0, true);
  const auto windows = metrics.Finalize(kSecond);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].submitted, 50);
  EXPECT_EQ(windows[0].unavailable, 50);
  EXPECT_EQ(windows[0].completed, 0);
  const SlaViolations violations =
      MetricsCollector::CountViolations(windows);
  EXPECT_EQ(violations.p50, 1);
  EXPECT_EQ(violations.p95, 1);
  EXPECT_EQ(violations.p99, 1);
  // The outage happened under an active fault, so attribution lands in
  // the fault bucket (not baseline).
  const SlaAttribution attribution =
      MetricsCollector::AttributeViolations(windows);
  EXPECT_EQ(attribution.total.p99, 1);
  EXPECT_EQ(attribution.during_fault.p99, 1);
  EXPECT_EQ(attribution.baseline.p99, 0);
}

TEST(MetricsCollectorTest, IdleWindowsAreStillSkipped) {
  // The outage rule only fires on submitted > 0: a window with no
  // arrivals at all (overnight lull) keeps not violating.
  MetricsCollector metrics(1.0);
  metrics.RecordTxn(2 * kSecond, 2 * kSecond + 10 * kMillisecond);
  const auto windows = metrics.Finalize(3 * kSecond);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].submitted, 0);
  const SlaViolations violations =
      MetricsCollector::CountViolations(windows);
  EXPECT_EQ(violations.p50 + violations.p95 + violations.p99, 0);
}

TEST(MetricsCollectorTest, AverageMachinesFirstStepAfterZero) {
  MetricsCollector metrics(1.0);
  // No sample at t=0: the first step's value extends back to the start
  // of the run, matching how Finalize fills early windows.
  metrics.RecordMachines(4 * kSecond, 2);
  metrics.RecordMachines(8 * kSecond, 4);
  // 8 s at 2 machines + 2 s at 4 machines over 10 s = 2.4.
  EXPECT_NEAR(metrics.AverageMachines(10 * kSecond), 2.4, 1e-9);
  const auto windows = metrics.Finalize(10 * kSecond);
  EXPECT_EQ(windows[0].machines, 2);
  EXPECT_EQ(windows[8].machines, 4);
}

TEST(MetricsCollectorTest, EmptyWindowsDoNotViolate) {
  MetricsCollector metrics(1.0);
  const auto windows = metrics.Finalize(10 * kSecond);
  const SlaViolations violations =
      MetricsCollector::CountViolations(windows);
  EXPECT_EQ(violations.p50 + violations.p95 + violations.p99, 0);
}

}  // namespace
}  // namespace pstore
