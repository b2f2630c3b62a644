#ifndef PSTORE_ENGINE_CLUSTER_H_
#define PSTORE_ENGINE_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/murmur_hash.h"
#include "engine/partition.h"

namespace pstore {

// Static configuration of a simulated shared-nothing cluster.
struct ClusterOptions {
  // Logical data partitions per machine (the paper deploys 6).
  int partitions_per_node = 6;
  // Upper bound on machines; partition objects are created up front so
  // node (de)allocation never invalidates references.
  int max_nodes = 16;
  // Machines active at startup.
  int initial_nodes = 1;
  // Number of routing buckets (the granularity of migration). More
  // buckets = more even shares but smaller migration chunks.
  int num_buckets = 3600;
  // Seed for the MurmurHash2 used to route keys to buckets.
  uint64_t hash_seed = 0x9747b28cULL;
};

// A simulated H-Store-style cluster: `max_nodes` machines of
// `partitions_per_node` partitions each, of which the first
// `active_nodes` are allocated. Keys hash to buckets (MurmurHash2, as in
// the paper §8.1) and a bucket->partition map does the routing; changing
// that map (and physically moving the bucket's rows) is how migration
// reconfigures the cluster.
class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterOptions& options() const { return options_; }
  int active_nodes() const { return active_nodes_; }
  int partitions_per_node() const { return options_.partitions_per_node; }
  int num_buckets() const { return options_.num_buckets; }
  int total_active_partitions() const {
    return active_nodes_ * options_.partitions_per_node;
  }

  // --- Routing ---------------------------------------------------------

  BucketId BucketForKey(uint64_t key) const {
    return static_cast<BucketId>(MurmurHash64(key, options_.hash_seed) %
                                 static_cast<uint64_t>(options_.num_buckets));
  }
  int PartitionOfBucket(BucketId bucket) const {
    return bucket_map_[bucket];
  }
  int PartitionForKey(uint64_t key) const {
    return PartitionOfBucket(BucketForKey(key));
  }
  int NodeOfPartition(int partition_id) const {
    return partition_id / options_.partitions_per_node;
  }

  Partition& partition(int partition_id) { return partitions_[partition_id]; }
  const Partition& partition(int partition_id) const {
    return partitions_[partition_id];
  }

  // --- Node lifecycle ----------------------------------------------------
  // Allocation only; moving data on/off nodes is the migration
  // subsystem's job.

  // Grows the active set to `count` machines (new machines start empty).
  Status ActivateNodes(int count);

  // Shrinks the active set to `count` machines. Every partition of the
  // machines being released must hold no buckets.
  Status DeactivateNodes(int count);

  // --- Node health (fault injection) --------------------------------------
  // Health is orthogonal to allocation: a crashed node keeps its data and
  // its place in the active set, but serves no transactions and accepts
  // no migration chunks until it recovers. The fault subsystem toggles
  // these; the executor and migrator consult them.

  void MarkNodeDown(int node);
  void MarkNodeUp(int node);
  bool IsNodeUp(int node) const { return node_up_[node] != 0; }

  // --- Bucket placement ---------------------------------------------------

  // Reassigns a bucket's routing to `partition_id` and physically moves
  // its rows there. No-op if already there.
  void MoveBucket(BucketId bucket, int partition_id);

  std::vector<BucketId> BucketsOnPartition(int partition_id) const;
  std::vector<BucketId> BucketsOnNode(int node) const;

  // --- Accounting ----------------------------------------------------------

  int64_t TotalDataBytes() const;
  int64_t TotalRowCount() const;
  int64_t NodeDataBytes(int node) const;

 private:
  ClusterOptions options_;
  int active_nodes_;
  std::vector<Partition> partitions_;     // max_nodes * partitions_per_node
  std::vector<int> bucket_map_;           // bucket -> partition id
  std::vector<char> node_up_;             // per node; 1 = healthy
};

}  // namespace pstore

#endif  // PSTORE_ENGINE_CLUSTER_H_
