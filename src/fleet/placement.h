#ifndef PSTORE_FLEET_PLACEMENT_H_
#define PSTORE_FLEET_PLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/strong_id.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace fleet {

// Knobs of the fleet placement planner.
struct PlacementOptions {
  // Q per pooled machine: the capacity the packer fills up to. The
  // serving limit (Q-hat) lives in FleetOptions; like the single-tenant
  // planner, the packer provisions against Q and violations are
  // measured against Q-hat.
  double machine_capacity = 285.0;
  // Tenant-vs-tenant interference: each *additional distinct tenant*
  // co-located on a machine costs this fraction of the machine's
  // capacity (cache/IO contention grows with the number of competing
  // workloads). Co-locating more partitions of the same tenant is free.
  double interference_per_tenant = 0.02;
  // Interference never degrades a machine below this fraction.
  double min_capacity_fraction = 0.5;
  // Hard pool ceiling; Pack fails with kOutOfRange beyond it.
  int max_machines = 4096;
  // Repack economics: a from-scratch repack is adopted only when the
  // machines it frees, held for this many planning slots, outweigh the
  // MoveModelTable cost of resizing the pool plus the churn of the
  // extra partition moves it causes (see PlacementPlanner).
  int repack_amortize_slots = 288;
  // Machine-slots of migration work per moved tenant partition (sender
  // and receiver attention while the partition's data is in flight).
  // Prices the churn of a consolidating repack, so micro-shuffles that
  // save one machine but move half the fleet are rejected.
  double partition_move_cost = 5.0;
};

// Effective capacity of one machine hosting `distinct_tenants` tenants:
// machine_capacity * max(min_capacity_fraction,
//                        1 - interference_per_tenant*(distinct_tenants-1)).
// Monotonically non-increasing in the tenant count.
double EffectiveMachineCapacity(const PlacementOptions& options,
                                int distinct_tenants);

// As above with a caller-supplied serving capacity (Q-hat) instead of
// the packing capacity Q.
double EffectiveServeCapacity(const PlacementOptions& options,
                              double serve_capacity, int distinct_tenants);

// An assignment of every tenant partition to a pool machine. Tenant t's
// partitions occupy flat indices [partition_offset[t],
// partition_offset[t+1]).
struct Placement {
  std::vector<size_t> partition_offset;  // by tenant, size tenants+1
  std::vector<MachineId> machine;        // by flat partition index
  // By machine id: packed (forecast) load, partition count, and the
  // number of distinct tenants (what interference is charged on).
  std::vector<double> machine_load;
  std::vector<int64_t> machine_partitions;
  std::vector<int> machine_tenant_counts;
  // Machines with at least one partition. Ids may have gaps when the
  // previous placement of an incremental pack had empty machines
  // (eviction always leaves one partition behind); empty machines are
  // released, not paid for.
  int machines_used = 0;
  // Partitions whose machine differs from the previous placement.
  int64_t moved_partitions = 0;
  bool repacked = false;

  size_t partitions() const { return machine.size(); }
  size_t tenants() const {
    return partition_offset.empty() ? 0 : partition_offset.size() - 1;
  }
};

// Deterministic bin-packing placement planner. Packing is best-fit
// decreasing over per-partition demands with two tie-break rules,
// both deterministic:
//   1. items are ordered by (demand desc, flat partition index asc);
//   2. the fitting machine with the least remaining capacity wins,
//      lowest machine id on ties.
// Capacity is interference-aware: a machine fits an item only if its
// load plus the item stays within EffectiveMachineCapacity for the
// tenant count after the move.
//
// Incremental packs are sticky: every partition on a machine that
// still fits stays put (a kept partition costs no move). Only machines
// that no longer fit evict, largest-demand partition first, and just
// the evicted items go back through best-fit (an evicted item gets no
// preference for its old machine — it was evicted because that machine
// is full). A from-scratch repack (which consolidates the pool) is
// adopted only when the machines saved, amortized over
// repack_amortize_slots, exceed the MoveModelTable resize cost — the
// same T/C economics the per-tenant planner uses, applied to the pool.
class PlacementPlanner {
 public:
  // `move_table` is borrowed and must outlive the planner.
  PlacementPlanner(const PlacementOptions& options,
                   const MoveModelTable& move_table);

  // Packs tenant partitions given per-tenant demand (demand splits
  // evenly across a tenant's partitions). `tenant_partitions[t]` must
  // be >= 1. `previous` must be null or shaped identically.
  StatusOr<Placement> Pack(const std::vector<double>& tenant_demand,
                           const std::vector<int>& tenant_partitions,
                           const Placement* previous) const;

  const PlacementOptions& options() const { return options_; }

 private:
  StatusOr<Placement> PackFresh(const std::vector<double>& item_demand,
                                const std::vector<int>& item_tenant,
                                const std::vector<size_t>& offsets) const;
  StatusOr<Placement> PackIncremental(const std::vector<double>& item_demand,
                                      const std::vector<int>& item_tenant,
                                      const std::vector<size_t>& offsets,
                                      const Placement& previous) const;

  PlacementOptions options_;
  const MoveModelTable* move_table_;
};

}  // namespace fleet
}  // namespace pstore

#endif  // PSTORE_FLEET_PLACEMENT_H_
