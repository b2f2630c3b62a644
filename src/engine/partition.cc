#include "engine/partition.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/sim_time.h"
#include "engine/row_table.h"
#include "engine/table.h"

namespace pstore {

SimTime Partition::Submit(SimTime now, SimTime service_time) {
  PSTORE_CHECK(service_time >= 0);
  const SimTime start = std::max(now, busy_until_);
  busy_until_ = start + service_time;
  total_busy_time_ += service_time;
  ++jobs_executed_;
  return busy_until_;
}

size_t Partition::IndexOf(BucketId bucket) const {
  const BucketId* ids = bucket_ids_.data();
  size_t n = bucket_ids_.size();
  if (n == 0) return 0;
  // The answer lies in [base, base + n]; each step halves n.
  size_t base = 0;
  while (n > 1) {
    const size_t half = n / 2;
    base += static_cast<size_t>(ids[base + half] < bucket) * half;
    n -= half;
  }
  return base + static_cast<size_t>(ids[base] < bucket);
}

const BucketData* Partition::FindBucket(BucketId bucket) const {
  if (HintIs(bucket)) return &bucket_data_[hint_];
  const size_t i = IndexOf(bucket);
  return i < bucket_ids_.size() && bucket_ids_[i] == bucket
             ? &bucket_data_[i]
             : nullptr;
}

BucketData* Partition::FindBucket(BucketId bucket) {
  return const_cast<BucketData*>(std::as_const(*this).FindBucket(bucket));
}

BucketData& Partition::FindOrAddBucket(BucketId bucket) {
  if (!HintIs(bucket)) {
    hint_ = IndexOf(bucket);
    if (!HintIs(bucket)) {
      const auto offset = static_cast<std::ptrdiff_t>(hint_);
      bucket_ids_.insert(bucket_ids_.begin() + offset, bucket);
      bucket_data_.emplace(bucket_data_.begin() + offset);
    }
  }
  return bucket_data_[hint_];
}

void Partition::Prefetch(BucketId bucket, uint64_t key) const {
  const BucketData* data = FindBucket(bucket);
  if (data == nullptr) return;
  // The 152-byte record spans up to four cache lines; the table headers
  // read below cover the middle ones.
  __builtin_prefetch(data);
  __builtin_prefetch(&data->accesses);
  for (const RowTable& table : data->tables) table.Prefetch(key);
}

void Partition::Put(BucketId bucket, TableId table, uint64_t key,
                    const Row& row) {
  PSTORE_CHECK(table < kMaxTables);
  BucketData& data = FindOrAddBucket(bucket);
  const auto [stored, inserted] = data.tables[table].Insert(key, row);
  if (inserted) {
    ++data.rows;
    ++row_count_;
    data.bytes += row.payload_bytes;
    data_bytes_ += row.payload_bytes;
  } else {
    const int64_t delta = static_cast<int64_t>(row.payload_bytes) -
                          static_cast<int64_t>(stored->payload_bytes);
    data.bytes += delta;
    data_bytes_ += delta;
    *stored = row;
  }
}

const Row* Partition::Get(BucketId bucket, TableId table,
                          uint64_t key) const {
  PSTORE_CHECK(table < kMaxTables);
  const BucketData* data = FindBucket(bucket);
  return data == nullptr ? nullptr : data->tables[table].Find(key);
}

Row* Partition::GetMutable(BucketId bucket, TableId table, uint64_t key) {
  PSTORE_CHECK(table < kMaxTables);
  BucketData* data = FindBucket(bucket);
  return data == nullptr ? nullptr : data->tables[table].Find(key);
}

bool Partition::Erase(BucketId bucket, TableId table, uint64_t key) {
  PSTORE_CHECK(table < kMaxTables);
  BucketData* data = FindBucket(bucket);
  if (data == nullptr) return false;
  const std::optional<Row> erased = data->tables[table].Erase(key);
  if (!erased.has_value()) return false;
  --data->rows;
  --row_count_;
  data->bytes -= erased->payload_bytes;
  data_bytes_ -= erased->payload_bytes;
  return true;
}

BucketData Partition::ExtractBucket(BucketId bucket) {
  const size_t i = IndexOf(bucket);
  PSTORE_CHECK_MSG(i < bucket_ids_.size() && bucket_ids_[i] == bucket,
                   "bucket " << bucket << " not here");
  BucketData data = std::move(bucket_data_[i]);
  const auto offset = static_cast<std::ptrdiff_t>(i);
  bucket_ids_.erase(bucket_ids_.begin() + offset);
  bucket_data_.erase(bucket_data_.begin() + offset);
  row_count_ -= data.rows;
  data_bytes_ -= data.bytes;
  PSTORE_CHECK(row_count_ >= 0 && data_bytes_ >= 0);
  return data;
}

void Partition::InsertBucket(BucketId bucket, BucketData data) {
  const size_t i = IndexOf(bucket);
  PSTORE_CHECK_MSG(i == bucket_ids_.size() || bucket_ids_[i] != bucket,
                   "bucket " << bucket << " already present");
  row_count_ += data.rows;
  data_bytes_ += data.bytes;
  const auto offset = static_cast<std::ptrdiff_t>(i);
  bucket_ids_.insert(bucket_ids_.begin() + offset, bucket);
  bucket_data_.insert(bucket_data_.begin() + offset, std::move(data));
}

int64_t Partition::BucketBytes(BucketId bucket) const {
  const BucketData* data = FindBucket(bucket);
  return data == nullptr ? 0 : data->bytes;
}

BucketId Partition::HottestBucket(int64_t* accesses) const {
  return HottestBucketBelow(std::numeric_limits<int64_t>::max(), accesses);
}

BucketId Partition::HottestBucketBelow(int64_t cap,
                                       int64_t* accesses) const {
  BucketId best_bucket = -1;
  int64_t best = 0;
  // Ids ascend, so the strict `>` breaks ties toward the lowest id.
  for (size_t i = 0; i < bucket_ids_.size(); ++i) {
    const int64_t count = bucket_data_[i].accesses;
    if (count > best && count <= cap) {
      best = count;
      best_bucket = bucket_ids_[i];
    }
  }
  if (accesses != nullptr) *accesses = best;
  return best_bucket;
}

int64_t Partition::TotalAccesses() const {
  int64_t total = 0;
  for (const BucketData& data : bucket_data_) total += data.accesses;
  return total;
}

void Partition::ResetAccessCounts() {
  for (BucketData& data : bucket_data_) data.accesses = 0;
}

}  // namespace pstore
