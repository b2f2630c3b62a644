#include "engine/partition.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "engine/row_table.h"
#include "engine/table.h"

namespace pstore {
namespace {

Row MakeRow(uint32_t bytes, int64_t f0 = 0) {
  Row row;
  row.payload_bytes = bytes;
  row.f0 = f0;
  return row;
}

// ---- Queueing model ------------------------------------------------------

TEST(PartitionQueueTest, IdlePartitionServesImmediately) {
  Partition p;
  const SimTime completion = p.Submit(100, 10);
  EXPECT_EQ(completion, 110);
  EXPECT_EQ(p.busy_until(), 110);
}

TEST(PartitionQueueTest, FifoBackToBack) {
  Partition p;
  EXPECT_EQ(p.Submit(0, 10), 10);
  EXPECT_EQ(p.Submit(0, 10), 20);   // queues behind the first
  EXPECT_EQ(p.Submit(5, 10), 30);   // still queued
  EXPECT_EQ(p.Submit(100, 10), 110);  // idle again
}

TEST(PartitionQueueTest, QueueDelayReflectsBacklog) {
  Partition p;
  p.Submit(0, 50);
  EXPECT_EQ(p.QueueDelay(10), 40);
  EXPECT_EQ(p.QueueDelay(50), 0);
  EXPECT_EQ(p.QueueDelay(60), 0);
}

TEST(PartitionQueueTest, BusyTimeAccumulates) {
  Partition p;
  p.Submit(0, 10);
  p.Submit(0, 15);
  EXPECT_EQ(p.total_busy_time(), 25);
  EXPECT_EQ(p.jobs_executed(), 2);
}

TEST(PartitionQueueTest, LatencyGrowsUnderOverload) {
  // Offered rate 2x the service rate: queueing delay grows linearly —
  // the saturation behaviour behind Fig. 7.
  Partition p;
  SimTime last_latency = 0;
  for (int i = 0; i < 1000; ++i) {
    const SimTime arrival = i * 5;
    const SimTime completion = p.Submit(arrival, 10);
    last_latency = completion - arrival;
  }
  EXPECT_GT(last_latency, 4000);
}

// ---- Storage -----------------------------------------------------------------

TEST(PartitionStorageTest, PutGetErase) {
  Partition p;
  p.Put(7, 0, 42, MakeRow(100, 5));
  const Row* row = p.Get(7, 0, 42);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->f0, 5);
  EXPECT_EQ(p.row_count(), 1);
  EXPECT_EQ(p.data_bytes(), 100);
  EXPECT_TRUE(p.Erase(7, 0, 42));
  EXPECT_EQ(p.Get(7, 0, 42), nullptr);
  EXPECT_EQ(p.row_count(), 0);
  EXPECT_EQ(p.data_bytes(), 0);
}

TEST(PartitionStorageTest, GetMissingReturnsNull) {
  Partition p;
  EXPECT_EQ(p.Get(0, 0, 1), nullptr);
  EXPECT_EQ(p.GetMutable(0, 0, 1), nullptr);
  EXPECT_FALSE(p.Erase(0, 0, 1));
}

TEST(PartitionStorageTest, OverwriteAdjustsBytes) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(100));
  p.Put(1, 0, 9, MakeRow(250));
  EXPECT_EQ(p.row_count(), 1);
  EXPECT_EQ(p.data_bytes(), 250);
}

TEST(PartitionStorageTest, TablesAreIndependentNamespaces) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(10, 1));
  p.Put(1, 1, 9, MakeRow(20, 2));
  EXPECT_EQ(p.Get(1, 0, 9)->f0, 1);
  EXPECT_EQ(p.Get(1, 1, 9)->f0, 2);
  EXPECT_EQ(p.row_count(), 2);
}

TEST(PartitionStorageTest, BucketsAreIndependent) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(10, 1));
  p.Put(2, 0, 9, MakeRow(20, 2));
  EXPECT_EQ(p.Get(1, 0, 9)->f0, 1);
  EXPECT_EQ(p.Get(2, 0, 9)->f0, 2);
  // Key 9 in bucket 3 does not exist.
  EXPECT_EQ(p.Get(3, 0, 9), nullptr);
}

TEST(PartitionStorageTest, GetMutableEditsInPlace) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(10, 1));
  p.GetMutable(1, 0, 9)->f0 = 99;
  EXPECT_EQ(p.Get(1, 0, 9)->f0, 99);
}

TEST(PartitionBucketTest, ExtractAndInsertMovesEverything) {
  Partition source;
  Partition dest;
  source.Put(5, 0, 1, MakeRow(100, 11));
  source.Put(5, 0, 2, MakeRow(200, 22));
  source.Put(5, 1, 3, MakeRow(300, 33));
  source.Put(6, 0, 4, MakeRow(50, 44));  // different bucket, stays

  BucketData moved = source.ExtractBucket(5);
  EXPECT_EQ(moved.rows, 3);
  EXPECT_EQ(moved.bytes, 600);
  EXPECT_EQ(source.row_count(), 1);
  EXPECT_EQ(source.data_bytes(), 50);
  EXPECT_FALSE(source.HasBucket(5));
  EXPECT_TRUE(source.HasBucket(6));

  dest.InsertBucket(5, std::move(moved));
  EXPECT_EQ(dest.row_count(), 3);
  EXPECT_EQ(dest.data_bytes(), 600);
  ASSERT_NE(dest.Get(5, 0, 2), nullptr);
  EXPECT_EQ(dest.Get(5, 0, 2)->f0, 22);
  EXPECT_EQ(dest.Get(5, 1, 3)->f0, 33);
}

TEST(PartitionBucketTest, BucketBytes) {
  Partition p;
  EXPECT_EQ(p.BucketBytes(1), 0);
  p.Put(1, 0, 9, MakeRow(123));
  EXPECT_EQ(p.BucketBytes(1), 123);
}

TEST(PartitionBucketTest, EraseUpdatesBucketAccounting) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(100));
  p.Put(1, 0, 10, MakeRow(100));
  EXPECT_TRUE(p.Erase(1, 0, 9));
  EXPECT_EQ(p.BucketBytes(1), 100);
  BucketData data = p.ExtractBucket(1);
  EXPECT_EQ(data.rows, 1);
  EXPECT_EQ(data.bytes, 100);
}

// ---- Hot-spot monitoring determinism -------------------------------------

TEST(PartitionMonitorTest, HottestBucketTiesBreakTowardLowestId) {
  // Three buckets tied at the max: the winner must be the lowest id,
  // not whichever the hash table happens to enumerate first.
  Partition p;
  for (const BucketId id : {42, 7, 19}) {
    p.RecordAccess(id);
    p.RecordAccess(id);
  }
  p.RecordAccess(3);  // below the tie
  int64_t accesses = 0;
  EXPECT_EQ(p.HottestBucket(&accesses), 7);
  EXPECT_EQ(accesses, 2);
  EXPECT_EQ(p.HottestBucketBelow(1, &accesses), 3);
  EXPECT_EQ(accesses, 1);
}

TEST(PartitionMonitorTest, HottestBucketIsInsertionOrderIndependent) {
  // Regression for the nondet-iteration fix: identical access counts
  // recorded in different insertion orders (different hash layouts)
  // must produce identical monitoring results.
  const std::vector<BucketId> forward = {1, 5, 9, 13, 17, 21};
  std::vector<BucketId> reversed(forward.rbegin(), forward.rend());
  Partition a;
  Partition b;
  for (const BucketId id : forward) {
    for (BucketId k = 0; k < 4; ++k) a.RecordAccess(id);
  }
  for (const BucketId id : reversed) {
    for (BucketId k = 0; k < 4; ++k) b.RecordAccess(id);
  }
  int64_t accesses_a = 0;
  int64_t accesses_b = 0;
  EXPECT_EQ(a.HottestBucket(&accesses_a), b.HottestBucket(&accesses_b));
  EXPECT_EQ(a.HottestBucket(nullptr), 1);  // all tied: lowest id wins
  EXPECT_EQ(accesses_a, accesses_b);
  EXPECT_EQ(a.HottestBucketBelow(4, nullptr), b.HottestBucketBelow(4, nullptr));
  EXPECT_EQ(a.TotalAccesses(), b.TotalAccesses());
  a.ResetAccessCounts();
  EXPECT_EQ(a.HottestBucket(nullptr), -1);
  EXPECT_EQ(a.TotalAccesses(), 0);
}

// ---- Prefetch -----------------------------------------------------------------

// Prefetch only reads. With no buckets, or with a record whose tables
// never allocated (RecordAccess makes one), it has no slot array to form
// a pointer from, and it must not create a record.
TEST(PartitionPrefetchTest, NoBucketsAndUnallocatedTablesStayUnchanged) {
  Partition empty;
  empty.Prefetch(7, 42);
  EXPECT_FALSE(empty.HasBucket(7));
  EXPECT_EQ(empty.row_count(), 0);

  Partition p;
  p.RecordAccess(3);
  for (uint64_t key = 0; key < 64; ++key) {
    p.Prefetch(3, key);
    p.Prefetch(4, key);
  }
  EXPECT_TRUE(p.HasBucket(3));
  EXPECT_FALSE(p.HasBucket(4));
  EXPECT_EQ(p.row_count(), 0);
  EXPECT_EQ(p.data_bytes(), 0);
  EXPECT_EQ(p.TotalAccesses(), 1);
  for (TableId table = 0; table < kMaxTables; ++table) {
    EXPECT_EQ(p.Get(3, table, 42), nullptr);
  }

  RowTable never_allocated;
  never_allocated.Prefetch(42);
  EXPECT_EQ(never_allocated.Find(42), nullptr);
}

// ---- Differential test against a reference model ---------------------------

// What one bucket should hold: rows by (table, key), their payload bytes
// and the access count.
struct ModelBucket {
  std::map<std::pair<TableId, uint64_t>, Row> rows;
  int64_t bytes = 0;
  int64_t accesses = 0;
};
using Model = std::map<BucketId, ModelBucket>;

bool SameRow(const Row& a, const Row& b) {
  return a.payload_bytes == b.payload_bytes && a.f0 == b.f0 &&
         a.f1 == b.f1 && a.f2 == b.f2 && a.f3 == b.f3;
}

Row* ModelRow(Model& model, BucketId bucket, TableId table, uint64_t key) {
  const auto data = model.find(bucket);
  if (data == model.end()) return nullptr;
  const auto row = data->second.rows.find({table, key});
  return row == data->second.rows.end() ? nullptr : &row->second;
}

// Keys whose hash lies in the top 2^-12 of its range: in every table of up
// to 4096 slots their home is the last slot, so they collide there and
// their probe run wraps around to slot 0.
std::vector<uint64_t> KeysHomedAtLastSlot(size_t count, Rng& rng) {
  std::vector<uint64_t> keys;
  while (keys.size() < count) {
    const uint64_t key = rng.NextUint64();
    if (RowTable::HomeSlot(key, 4096) == 4095) keys.push_back(key);
  }
  return keys;
}

// Compares the partition's counters, per-bucket bytes and hot-spot
// answers with the model, and every stored row too when `all_rows`.
void ExpectMatchesModel(const Partition& p, const Model& model,
                        BucketId num_buckets, int64_t cap, bool all_rows) {
  int64_t rows = 0;
  int64_t bytes = 0;
  int64_t total_accesses = 0;
  BucketId hottest = -1;
  int64_t hottest_count = 0;
  BucketId below = -1;
  int64_t below_count = 0;
  for (BucketId bucket = 0; bucket < num_buckets; ++bucket) {
    const auto it = model.find(bucket);
    ASSERT_EQ(p.HasBucket(bucket), it != model.end()) << "bucket " << bucket;
    if (it == model.end()) {
      ASSERT_EQ(p.BucketBytes(bucket), 0);
      continue;
    }
    const ModelBucket& data = it->second;
    ASSERT_EQ(p.BucketBytes(bucket), data.bytes) << "bucket " << bucket;
    rows += static_cast<int64_t>(data.rows.size());
    bytes += data.bytes;
    total_accesses += data.accesses;
    // Ascending ids and a strict `>`: ties go to the lowest id.
    if (data.accesses > hottest_count) {
      hottest_count = data.accesses;
      hottest = bucket;
    }
    if (data.accesses > below_count && data.accesses <= cap) {
      below_count = data.accesses;
      below = bucket;
    }
    if (!all_rows) continue;
    for (const auto& [id, row] : data.rows) {
      const Row* stored = p.Get(bucket, id.first, id.second);
      ASSERT_NE(stored, nullptr) << "bucket " << bucket << " key " << id.second;
      ASSERT_TRUE(SameRow(*stored, row))
          << "bucket " << bucket << " key " << id.second;
    }
  }
  ASSERT_EQ(p.row_count(), rows);
  ASSERT_EQ(p.data_bytes(), bytes);
  ASSERT_EQ(p.TotalAccesses(), total_accesses);
  int64_t accesses = -1;
  ASSERT_EQ(p.HottestBucket(&accesses), hottest);
  ASSERT_EQ(accesses, hottest_count);
  ASSERT_EQ(p.HottestBucketBelow(cap, &accesses), below);
  ASSERT_EQ(accesses, below_count);
}

// Seeded random operations on two partitions, mirrored on the model and
// compared after every step. Insert-heavy and erase-heavy phases
// alternate, so tables grow through several capacities and then churn;
// with the colliding keys, erases shift rows back across the wrap from
// the last slot to the first. Prefetch is one of the operations; the
// bucket hint behind Get, Put and RecordAccess is checked by every
// comparison, since moves shift the records it points at.
TEST(PartitionDifferentialTest, RandomOperationsMatchReferenceModel) {
  constexpr BucketId kBuckets = 4;
  constexpr TableId kTables[] = {0, kMaxTables - 1};
  Rng rng(13);
  std::vector<uint64_t> keys = KeysHomedAtLastSlot(40, rng);
  for (uint64_t key = 0; key < 60; ++key) keys.push_back(key);
  Partition partitions[2];
  Model models[2];
  for (int step = 0; step < 40000; ++step) {
    const bool erasing = (step / 4000) % 2 == 1;
    const int side = static_cast<int>(rng.NextUint64(2));
    Partition& p = partitions[side];
    Model& model = models[side];
    const auto bucket = static_cast<BucketId>(rng.NextUint64(kBuckets));
    const TableId table = kTables[rng.NextUint64(2)];
    const uint64_t key = keys[rng.NextUint64(keys.size())];
    const uint64_t roll = rng.NextUint64(110);
    if (roll < (erasing ? 15u : 45u)) {
      const Row row =
          MakeRow(static_cast<uint32_t>(1 + rng.NextUint64(500)), step);
      p.Put(bucket, table, key, row);
      ModelBucket& data = model[bucket];
      Row& stored = data.rows[{table, key}];
      data.bytes += static_cast<int64_t>(row.payload_bytes) -
                    static_cast<int64_t>(stored.payload_bytes);
      stored = row;
    } else if (roll < 60) {
      Row* expected = ModelRow(model, bucket, table, key);
      ASSERT_EQ(p.Erase(bucket, table, key), expected != nullptr);
      if (expected != nullptr) {
        ModelBucket& data = model[bucket];
        data.bytes -= expected->payload_bytes;
        data.rows.erase({table, key});
      }
    } else if (roll < 70) {
      const Row* stored = p.Get(bucket, table, key);
      const Row* expected = ModelRow(model, bucket, table, key);
      ASSERT_EQ(stored != nullptr, expected != nullptr);
      if (stored != nullptr) {
        ASSERT_TRUE(SameRow(*stored, *expected));
      }
    } else if (roll < 78) {
      Row* stored = p.GetMutable(bucket, table, key);
      Row* expected = ModelRow(model, bucket, table, key);
      ASSERT_EQ(stored != nullptr, expected != nullptr);
      if (stored != nullptr) {
        stored->f2 += 1;
        expected->f2 += 1;
      }
    } else if (roll < 92) {
      p.RecordAccess(bucket);
      ++model[bucket].accesses;
    } else if (roll < 99) {
      // Move the bucket to the other partition, or back in place when
      // that one already holds the id.
      const auto it = model.find(bucket);
      if (it != model.end()) {
        BucketData moved = p.ExtractBucket(bucket);
        ASSERT_EQ(moved.rows, static_cast<int64_t>(it->second.rows.size()));
        ASSERT_EQ(moved.bytes, it->second.bytes);
        ASSERT_EQ(moved.accesses, it->second.accesses);
        const int target =
            models[1 - side].count(bucket) == 0 ? 1 - side : side;
        ModelBucket data = std::move(it->second);
        model.erase(it);
        partitions[target].InsertBucket(bucket, std::move(moved));
        models[target].emplace(bucket, std::move(data));
      }
    } else if (roll < 100) {
      p.ResetAccessCounts();
      for (auto& entry : model) entry.second.accesses = 0;
    } else {
      // Changes nothing, for a held bucket or not: the full comparison
      // below must still match and no record may appear.
      p.Prefetch(bucket, key);
    }
    const auto cap = static_cast<int64_t>(rng.NextUint64(24));
    for (int s = 0; s < 2; ++s) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(
          partitions[s], models[s], kBuckets, cap,
          step % 50 == 0 || roll >= 100));
    }
  }
  for (int s = 0; s < 2; ++s) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesModel(partitions[s], models[s], kBuckets, 0, true));
  }
}

}  // namespace
}  // namespace pstore
