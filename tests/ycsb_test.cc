#include "ycsb/ycsb_workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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

// The CDF as one plain loop computes it: the running sum of
// 1 / (r+1)^theta, then every entry divided by the total.
std::vector<double> ReferenceCdf(uint64_t n, double theta) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (uint64_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf[r] = sum;
  }
  for (double& v : cdf) v /= sum;
  return cdf;
}

uint64_t FullSearch(const std::vector<double>& cdf, double u) {
  return static_cast<uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin());
}

TEST(ZipfTest, CertifiedRankMatchesFullBinarySearch) {
  // The model only proposes and certifies: every rank must be the plain
  // lower_bound over the whole CDF, whose bits must not move, so the key
  // stream cannot move. A CDF entry and its two neighbours straddle a
  // rank boundary, where the certificate must decline and the search
  // decide; n = 1, 2, 10 and 257 never leave the search's head.
  struct Case {
    uint64_t n;
    double theta;
  };
  std::vector<Case> cases;
  for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{10},
                           uint64_t{257}, uint64_t{300007}}) {
    for (const double theta : {0.0, 0.3, 0.6, 0.99, 1.0, 1.1, 1.3, 2.0, 5.0}) {
      cases.push_back({n, theta});
    }
  }
  cases.push_back({1000000, 0.6});
  for (const Case& c : cases) {
    const ZipfGenerator zipf(c.n, c.theta);
    const std::vector<double>& cdf = zipf.cdf();
    const std::vector<double> reference = ReferenceCdf(c.n, c.theta);
    ASSERT_EQ(cdf.size(), reference.size());
    ASSERT_EQ(std::memcmp(cdf.data(), reference.data(),
                          cdf.size() * sizeof(double)),
              0)
        << "n=" << c.n << " theta=" << c.theta;
    for (const double value : cdf) {
      for (const double u : {std::nextafter(value, 0.0), value,
                             std::nextafter(value, 1.0)}) {
        ASSERT_EQ(zipf.RankOf(u), FullSearch(cdf, u))
            << "n=" << c.n << " theta=" << c.theta << " u=" << u;
      }
    }
    for (const double u : {0.0, 1.0}) {
      ASSERT_EQ(zipf.RankOf(u), FullSearch(cdf, u))
          << "n=" << c.n << " theta=" << c.theta << " u=" << u;
    }
    Rng rng(9);
    Rng replay(9);
    for (int i = 0; i < 200000; ++i) {
      ASSERT_EQ(zipf.NextRank(rng), FullSearch(cdf, replay.NextDouble()))
          << "n=" << c.n << " theta=" << c.theta << " draw " << i;
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

// ycsb_skew_32n's generator (mix A, theta 0.6, 10% two-key transfers,
// 1 M records), replayed from the same Rng sequence with every rank taken
// by a full lower_bound over the CDF: every request must match.
TEST(YcsbWorkloadTest, SkewedStreamMatchesFullSearchReplay) {
  YcsbWorkloadOptions options;
  options.mix = Mix::kA;
  options.zipf_theta = 0.6;
  options.multi_key_fraction = 0.10;
  options.record_count = 1000000;
  Workload workload(options);
  const ZipfGenerator zipf(options.record_count, options.zipf_theta);
  const auto next_index = [&](Rng& rng) {
    const uint64_t rank = FullSearch(zipf.cdf(), rng.NextDouble());
    return (rank * 0x9e3779b97f4a7c15ULL) % options.record_count;
  };
  Rng rng(42);
  Rng replay(42);
  uint64_t insert_cursor = 0;
  for (int i = 0; i < 1000000; ++i) {
    const TxnRequest got = workload.NextTransaction(rng);
    TxnRequest want;
    want.arg = static_cast<uint32_t>(replay.NextUint64(1 << 16));
    if (replay.NextBool(options.multi_key_fraction)) {
      want.procedure = kMultiTransfer;
      want.key = UserKey(next_index(replay));
      want.num_extra_keys = 1;
      uint64_t other = next_index(replay);
      if (UserKey(other) == want.key) {
        other = (other + 1) % options.record_count;
      }
      want.extra_keys[0] = UserKey(other);
    } else {
      const double roll = replay.NextDouble();
      want.procedure = roll < 0.5 ? kRead : kUpdate;
      if (roll > 0.98) {
        want.procedure = kInsert;
        want.key = UserKey(insert_cursor);
        insert_cursor = (insert_cursor + 1) % options.record_count;
        want.arg = options.record_bytes;
      } else {
        want.key = UserKey(next_index(replay));
      }
    }
    ASSERT_EQ(got.procedure, want.procedure) << "request " << i;
    ASSERT_EQ(got.key, want.key) << "request " << i;
    ASSERT_EQ(got.arg, want.arg) << "request " << i;
    ASSERT_EQ(got.num_extra_keys, want.num_extra_keys) << "request " << i;
    ASSERT_EQ(got.extra_keys[0], want.extra_keys[0]) << "request " << i;
  }
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
