#ifndef PSTORE_ENGINE_PARTITION_H_
#define PSTORE_ENGINE_PARTITION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "engine/row_table.h"
#include "engine/table.h"

namespace pstore {

// Identifier of a routing bucket. Keys hash to buckets; buckets map to
// partitions. Buckets are the unit of data migration, mirroring how
// fine-grained elasticity systems group tuples into movable blocks.
using BucketId = int32_t;

// The rows of one bucket, one RowTable per table, plus byte/row
// accounting so migration can size chunks without scanning rows, and an
// access counter for hot-spot detection (E-Store-style detailed
// monitoring).
struct BucketData {
  std::array<RowTable, kMaxTables> tables;
  int64_t rows = 0;
  int64_t bytes = 0;
  int64_t accesses = 0;
};

// One H-Store-style data partition: single-threaded storage plus an
// execution queue. The queue is modeled analytically as a FIFO server —
// a job arriving at time t with service time s starts at
// max(t, busy_until) and completes s later — which makes submission O(1)
// and still produces the queueing-delay behaviour (latency blow-up at
// saturation, migration interference) the paper measures.
class Partition {
 public:
  Partition() = default;
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;
  Partition(Partition&&) = default;
  Partition& operator=(Partition&&) = default;

  // --- Execution queue -------------------------------------------------

  // Submits a job at `now` with the given service time; returns its
  // completion time. Latency = completion - now.
  SimTime Submit(SimTime now, SimTime service_time);

  // Time at which the partition becomes idle.
  SimTime busy_until() const { return busy_until_; }

  // Queueing delay a job submitted at `now` would currently experience.
  SimTime QueueDelay(SimTime now) const {
    return busy_until_ > now ? busy_until_ - now : 0;
  }

  // Total service time executed (busy time), for utilization accounting.
  SimTime total_busy_time() const { return total_busy_time_; }
  int64_t jobs_executed() const { return jobs_executed_; }

  // --- Storage ----------------------------------------------------------
  //
  // A Row* returned by Get or GetMutable stays valid only until the next
  // insert (a Put of a new key) or Erase on the same (bucket, table);
  // either may move that table's rows.

  // Inserts or overwrites a row in the given bucket.
  void Put(BucketId bucket, TableId table, uint64_t key, const Row& row);

  // Returns the row or nullptr.
  const Row* Get(BucketId bucket, TableId table, uint64_t key) const;
  Row* GetMutable(BucketId bucket, TableId table, uint64_t key);

  // Removes a row; returns true if it existed.
  bool Erase(BucketId bucket, TableId table, uint64_t key);

  // Bucket-granularity access used by migration: detaches the whole
  // bucket from this partition and returns it. The bucket must exist.
  BucketData ExtractBucket(BucketId bucket);

  // Attaches a bucket (e.g., one extracted from another partition).
  // The bucket must not already exist here.
  void InsertBucket(BucketId bucket, BucketData data);

  bool HasBucket(BucketId bucket) const {
    return FindBucket(bucket) != nullptr;
  }
  // Asks the cache for the bucket's record and, in each of its tables
  // that has allocated, for `key`'s home slot, so that a transaction on
  // that key submitted soon after finds them loaded. Changes nothing; a
  // bucket not held here is skipped.
  void Prefetch(BucketId bucket, uint64_t key) const;
  // Bytes held by one bucket (0 if the bucket holds no data here).
  int64_t BucketBytes(BucketId bucket) const;

  // --- Hot-spot monitoring ---------------------------------------------

  // Counts one transaction against the bucket (creates an empty bucket
  // record if needed so even data-less buckets can be tracked).
  void RecordAccess(BucketId bucket) { ++FindOrAddBucket(bucket).accesses; }

  // The bucket with the most recorded accesses (the lowest id among
  // ties), or -1 when nothing was recorded. `accesses` (optional)
  // receives its count.
  BucketId HottestBucket(int64_t* accesses = nullptr) const;

  // The bucket with the most recorded accesses that is still <= `cap`,
  // or -1 when none qualifies. Used by the load balancer to pick moves
  // that are guaranteed to shrink the hot/cold gap.
  BucketId HottestBucketBelow(int64_t cap, int64_t* accesses = nullptr) const;

  // Sum of access counts across buckets.
  int64_t TotalAccesses() const;

  // Zeroes all access counters (start of a new monitoring window).
  void ResetAccessCounts();

  int64_t row_count() const { return row_count_; }
  int64_t data_bytes() const { return data_bytes_; }

 private:
  // Position of `bucket` in bucket_ids_, or where it would be inserted.
  // Branch-free: the ids a search compares against are unpredictable, so
  // each halving step is a compare and a conditional add, not a jump.
  size_t IndexOf(BucketId bucket) const;
  // Whether hint_ still names `bucket`.
  bool HintIs(BucketId bucket) const {
    return hint_ < bucket_ids_.size() && bucket_ids_[hint_] == bucket;
  }
  BucketData* FindBucket(BucketId bucket);
  const BucketData* FindBucket(BucketId bucket) const;
  // The bucket's record, created empty when absent. Sets hint_.
  BucketData& FindOrAddBucket(BucketId bucket);

  SimTime busy_until_ = 0;
  SimTime total_busy_time_ = 0;
  int64_t jobs_executed_ = 0;

  // Bucket records in ascending id order: bucket_data_[i] belongs to
  // bucket_ids_[i]. Lookups binary-search the ids and scans walk them in
  // order, so no result depends on the order buckets arrived in.
  std::vector<BucketId> bucket_ids_;
  std::vector<BucketData> bucket_data_;
  // Index of the record FindOrAddBucket returned last. A transaction's
  // RecordAccess, then its procedure's Get, GetMutable and Put all name
  // one bucket, so only the first of them searches. The hint is used
  // only while bucket_ids_[hint_] is that bucket, so the inserts and
  // removals that shift the vectors need not maintain it.
  size_t hint_ = 0;
  int64_t row_count_ = 0;
  int64_t data_bytes_ = 0;
};

}  // namespace pstore

#endif  // PSTORE_ENGINE_PARTITION_H_
