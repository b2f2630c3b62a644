#include "ycsb/ycsb_workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "engine/cluster.h"
#include "engine/metrics.h"
#include "engine/transaction.h"
#include "engine/txn_executor.h"

namespace pstore {
namespace ycsb {
namespace {

ClusterOptions SmallCluster() {
  ClusterOptions options;
  options.partitions_per_node = 2;
  options.max_nodes = 2;
  options.initial_nodes = 2;
  options.num_buckets = 128;
  return options;
}

// ---- Zipf sampler --------------------------------------------------------

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfGenerator zipf(10, 0.0);
  Rng rng(1);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.NextRank(rng)];
  for (int c : counts) {
    EXPECT_NEAR(c, 5000, 500);
  }
}

TEST(ZipfTest, HighThetaConcentratesOnTopRanks) {
  ZipfGenerator zipf(10000, 0.99);
  Rng rng(2);
  int top10 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (zipf.NextRank(rng) < 10) ++top10;
  }
  // With theta = 0.99 over 10k items the top 10 ranks draw a large
  // share (~30%).
  EXPECT_GT(top10, n / 5);
}

TEST(ZipfTest, RanksMonotonicallyPopular) {
  ZipfGenerator zipf(100, 1.2);
  Rng rng(3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.NextRank(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[60]);
}

TEST(ZipfTest, KeysStayInRange) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.NextKey(rng), 1000u);
  }
}

TEST(ZipfTest, GuideTableMatchesFullBinarySearch) {
  // The guide table only narrows the search: every rank must be the plain
  // lower_bound over the whole CDF, so the key stream cannot move.
  for (const uint64_t n : {uint64_t{10}, uint64_t{300007}}) {
    for (const double theta : {0.0, 0.6, 0.99, 1.2}) {
      const ZipfGenerator zipf(n, theta);
      const std::vector<double>& cdf = zipf.cdf();
      const auto full_search = [&cdf](double u) {
        return static_cast<uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      };
      for (const double value : cdf) {
        for (const double u : {std::nextafter(value, 0.0), value,
                               std::nextafter(value, 1.0)}) {
          ASSERT_EQ(zipf.RankOf(u), full_search(u))
              << "n=" << n << " theta=" << theta << " u=" << u;
        }
      }
      Rng rng(9);
      Rng replay(9);
      for (int i = 0; i < 1000000; ++i) {
        ASSERT_EQ(zipf.NextRank(rng), full_search(replay.NextDouble()))
            << "n=" << n << " theta=" << theta << " draw " << i;
      }
    }
  }
}

// ---- Workload ---------------------------------------------------------------

TEST(YcsbWorkloadTest, LoadsRecords) {
  Cluster cluster(SmallCluster());
  YcsbWorkloadOptions options;
  options.record_count = 5000;
  options.record_bytes = 512;
  Workload workload(options);
  ASSERT_TRUE(workload.LoadInitialData(&cluster).ok());
  EXPECT_EQ(cluster.TotalRowCount(), 5000);
  EXPECT_EQ(cluster.TotalDataBytes(), 5000 * 512);
}

TEST(YcsbWorkloadTest, MixCFullyReadOnly) {
  YcsbWorkloadOptions options;
  options.mix = Mix::kC;
  Workload workload(options);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(workload.NextTransaction(rng).procedure, kRead);
  }
}

TEST(YcsbWorkloadTest, MixProportions) {
  YcsbWorkloadOptions options;
  options.mix = Mix::kA;
  Workload workload(options);
  Rng rng(6);
  std::map<ProcedureId, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[workload.NextTransaction(rng).procedure];
  }
  EXPECT_NEAR(counts[kRead] / static_cast<double>(n), 0.5, 0.02);
  EXPECT_NEAR(counts[kUpdate] / static_cast<double>(n), 0.48, 0.02);
  EXPECT_NEAR(counts[kInsert] / static_cast<double>(n), 0.02, 0.01);
}

TEST(YcsbWorkloadTest, ProceduresExecute) {
  Cluster cluster(SmallCluster());
  MetricsCollector metrics;
  ExecutorOptions exec_options;
  exec_options.mean_service_seconds = 1e-4;
  TxnExecutor executor(&cluster, &metrics, exec_options);
  ASSERT_TRUE(Workload::RegisterProcedures(&executor).ok());
  YcsbWorkloadOptions options;
  options.record_count = 2000;
  Workload workload(options);
  ASSERT_TRUE(workload.LoadInitialData(&cluster).ok());
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    executor.Submit(workload.NextTransaction(rng), i * 100);
  }
  // Reads against a fully-loaded table should essentially all commit.
  EXPECT_GT(executor.committed_count(), 19900);
}

TEST(YcsbWorkloadTest, UpdateBumpsVersion) {
  Cluster cluster(SmallCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(Workload::RegisterProcedures(&executor).ok());
  YcsbWorkloadOptions options;
  options.record_count = 10;
  Workload workload(options);
  ASSERT_TRUE(workload.LoadInitialData(&cluster).ok());

  TxnRequest update;
  update.procedure = kUpdate;
  update.key = UserKey(3);
  update.arg = 99;
  EXPECT_EQ(executor.Submit(update, 0).status, TxnStatus::kCommitted);
  TxnRequest read;
  read.procedure = kRead;
  read.key = UserKey(3);
  const TxnResult result = executor.Submit(read, 1);
  EXPECT_EQ(result.status, TxnStatus::kCommitted);
  EXPECT_EQ(result.value, 2);  // version bumped from 1 to 2
}

TEST(YcsbWorkloadTest, ReadMissingKeyAborts) {
  Cluster cluster(SmallCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(Workload::RegisterProcedures(&executor).ok());
  TxnRequest read;
  read.procedure = kRead;
  read.key = UserKey(1);
  EXPECT_EQ(executor.Submit(read, 0).status, TxnStatus::kAborted);
}

TEST(YcsbWorkloadTest, SkewedKeysCreatePartitionImbalance) {
  // The scenario the HotSpotBalancer exists for: with high skew some
  // partitions see far more traffic than others.
  Cluster cluster(SmallCluster());
  MetricsCollector metrics;
  ExecutorOptions exec_options;
  exec_options.mean_service_seconds = 1e-5;
  TxnExecutor executor(&cluster, &metrics, exec_options);
  ASSERT_TRUE(Workload::RegisterProcedures(&executor).ok());
  YcsbWorkloadOptions options;
  options.record_count = 20000;
  options.zipf_theta = 1.3;
  Workload workload(options);
  ASSERT_TRUE(workload.LoadInitialData(&cluster).ok());
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) {
    executor.Submit(workload.NextTransaction(rng), i * 10);
  }
  int64_t max_accesses = 0;
  int64_t total = 0;
  for (int p = 0; p < cluster.total_active_partitions(); ++p) {
    const int64_t a = cluster.partition(p).TotalAccesses();
    max_accesses = std::max(max_accesses, a);
    total += a;
  }
  const double mean =
      static_cast<double>(total) / cluster.total_active_partitions();
  EXPECT_GT(static_cast<double>(max_accesses), 1.3 * mean);
}

}  // namespace
}  // namespace ycsb
}  // namespace pstore
