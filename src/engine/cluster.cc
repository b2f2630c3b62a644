#include "engine/cluster.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/status.h"
#include "engine/partition.h"

namespace pstore {

Cluster::Cluster(const ClusterOptions& options)
    : options_(options), active_nodes_(options.initial_nodes) {
  PSTORE_CHECK(options_.partitions_per_node >= 1);
  PSTORE_CHECK(options_.max_nodes >= 1);
  PSTORE_CHECK(options_.initial_nodes >= 1 &&
               options_.initial_nodes <= options_.max_nodes);
  PSTORE_CHECK(options_.num_buckets >= 1);
  partitions_.resize(static_cast<size_t>(options_.max_nodes) *
                     options_.partitions_per_node);
  bucket_map_.resize(options_.num_buckets);
  node_up_.assign(static_cast<size_t>(options_.max_nodes), 1);
  // Initial placement: round-robin across the active partitions.
  for (int b = 0; b < options_.num_buckets; ++b) {
    bucket_map_[b] = b % total_active_partitions();
  }
}

Status Cluster::ActivateNodes(int count) {
  if (count < active_nodes_) {
    return Status::InvalidArgument("ActivateNodes cannot shrink the cluster");
  }
  if (count > options_.max_nodes) {
    return Status::OutOfRange("cluster capped at " +
                              std::to_string(options_.max_nodes) + " nodes");
  }
  active_nodes_ = count;
  return Status::OK();
}

Status Cluster::DeactivateNodes(int count) {
  if (count > active_nodes_) {
    return Status::InvalidArgument("DeactivateNodes cannot grow the cluster");
  }
  if (count < 1) {
    return Status::InvalidArgument("at least one node must stay active");
  }
  // The released machines must hold no buckets.
  const int first_released_partition = count * options_.partitions_per_node;
  for (int b = 0; b < options_.num_buckets; ++b) {
    if (bucket_map_[b] >= first_released_partition) {
      return Status::FailedPrecondition(
          "bucket " + std::to_string(b) + " still routed to partition " +
          std::to_string(bucket_map_[b]) + " on a node being released");
    }
  }
  active_nodes_ = count;
  return Status::OK();
}

void Cluster::MarkNodeDown(int node) {
  PSTORE_CHECK(node >= 0 && node < options_.max_nodes);
  node_up_[node] = 0;
}

void Cluster::MarkNodeUp(int node) {
  PSTORE_CHECK(node >= 0 && node < options_.max_nodes);
  node_up_[node] = 1;
}

void Cluster::MoveBucket(BucketId bucket, int partition_id) {
  PSTORE_CHECK(bucket >= 0 && bucket < options_.num_buckets);
  PSTORE_CHECK(partition_id >= 0 &&
               partition_id < static_cast<int>(partitions_.size()));
  const int from = bucket_map_[bucket];
  if (from == partition_id) return;
  if (partitions_[from].HasBucket(bucket)) {
    partitions_[partition_id].InsertBucket(
        bucket, partitions_[from].ExtractBucket(bucket));
  }
  bucket_map_[bucket] = partition_id;
}

std::vector<BucketId> Cluster::BucketsOnPartition(int partition_id) const {
  std::vector<BucketId> out;
  out.reserve(static_cast<size_t>(options_.num_buckets) /
              partitions_.size());
  for (int b = 0; b < options_.num_buckets; ++b) {
    if (bucket_map_[b] == partition_id) out.push_back(b);
  }
  return out;
}

std::vector<BucketId> Cluster::BucketsOnNode(int node) const {
  std::vector<BucketId> out;
  const int first = node * options_.partitions_per_node;
  const int last = first + options_.partitions_per_node;
  for (int b = 0; b < options_.num_buckets; ++b) {
    if (bucket_map_[b] >= first && bucket_map_[b] < last) out.push_back(b);
  }
  return out;
}

int64_t Cluster::TotalDataBytes() const {
  int64_t total = 0;
  for (const Partition& p : partitions_) total += p.data_bytes();
  return total;
}

int64_t Cluster::TotalRowCount() const {
  int64_t total = 0;
  for (const Partition& p : partitions_) total += p.row_count();
  return total;
}

int64_t Cluster::NodeDataBytes(int node) const {
  int64_t total = 0;
  const int first = node * options_.partitions_per_node;
  for (int p = first; p < first + options_.partitions_per_node; ++p) {
    total += partitions_[p].data_bytes();
  }
  return total;
}

}  // namespace pstore
