#include "fleet/placement.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/strong_id.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace fleet {
namespace {

constexpr size_t kNoMachine = static_cast<size_t>(-1);

// Mutable pool state during one Pack, as flat per-machine arrays: load,
// partition count, distinct-tenant count, and the capacity the machine
// would have if one more distinct tenant joined it. Whether an item's
// tenant is already on a machine is answered from that tenant's own
// items (at most its partition count), so BestFit is one pass over two
// contiguous arrays.
class Pool {
 public:
  Pool(const PlacementOptions& options, const std::vector<int>& item_tenant,
       const std::vector<size_t>& offsets)
      : options_(&options),
        item_tenant_(&item_tenant),
        offsets_(&offsets),
        item_machine_(item_tenant.size(), -1) {
    CoverTenantCount(1);
  }

  size_t size() const { return load_.size(); }
  double load(size_t m) const { return load_[m]; }
  int64_t partitions(size_t m) const { return partitions_[m]; }
  int distinct_tenants(size_t m) const {
    return static_cast<int>(tenants_[m]);
  }
  // The item's machine, or -1 while it is unplaced.
  int machine_of(size_t item) const { return item_machine_[item]; }

  void Add(size_t m, size_t item, double demand) {
    if (m >= load_.size()) {
      load_.resize(m + 1, 0.0);
      partitions_.resize(m + 1, 0);
      tenants_.resize(m + 1, 0);
      join_capacity_.resize(m + 1, capacity_[1]);
    }
    const bool resident = TenantOn(item, static_cast<int>(m));
    item_machine_[item] = static_cast<int>(m);
    load_[m] += demand;
    ++partitions_[m];
    if (!resident) {
      ++tenants_[m];
      CoverTenantCount(tenants_[m] + 1);
      join_capacity_[m] = capacity_[tenants_[m] + 1];
    }
  }

  void Remove(size_t item, double demand) {
    const int machine = item_machine_[item];
    const size_t m = static_cast<size_t>(machine);
    item_machine_[item] = -1;
    load_[m] -= demand;
    --partitions_[m];
    if (!TenantOn(item, machine)) {
      --tenants_[m];
      join_capacity_[m] = capacity_[tenants_[m] + 1];
    }
    if (partitions_[m] == 0) load_[m] = 0.0;  // cancel rounding residue
  }

  // Over-capacity check for the machine as currently populated.
  bool Overloaded(size_t m) const {
    return load_[m] > capacity_[tenants_[m]];
  }

  // Best-fit machine for the (unplaced) item among [0, size()), or
  // kNoMachine. The fitting machine with the least capacity left after
  // placement wins; ties break to the lowest machine id. Machines that
  // already host the item's tenant charge no extra interference, so
  // their join capacity is lowered for the scan and restored after it.
  size_t BestFit(size_t item, double demand) {
    const size_t tenant = static_cast<size_t>((*item_tenant_)[item]);
    const auto set_join_capacity = [&](size_t joining) {
      for (size_t i = (*offsets_)[tenant]; i < (*offsets_)[tenant + 1]; ++i) {
        if (item_machine_[i] < 0) continue;
        const size_t m = static_cast<size_t>(item_machine_[i]);
        join_capacity_[m] = capacity_[tenants_[m] + joining];
      }
    };
    set_join_capacity(0);
    size_t best = kNoMachine;
    double best_remaining = 0.0;
    const double* load = load_.data();
    const double* capacity = join_capacity_.data();
    for (size_t m = 0, n = load_.size(); m < n; ++m) {
      const double total = load[m] + demand;
      if (!(total <= capacity[m])) continue;
      const double remaining = capacity[m] - total;
      if (best == kNoMachine || remaining < best_remaining) {
        best = m;
        best_remaining = remaining;
      }
    }
    set_join_capacity(1);
    return best;
  }

  // Lowest-id empty machine, or size() to open a new one.
  size_t LowestFreeMachine() const {
    for (size_t m = 0; m < partitions_.size(); ++m) {
      if (partitions_[m] == 0) return m;
    }
    return partitions_.size();
  }

  int MachinesUsed() const {
    int used = 0;
    for (size_t m = 0; m < partitions_.size(); ++m) {
      if (partitions_[m] > 0) ++used;
    }
    return used;
  }

 private:
  // Whether a placed item of `item`'s tenant is on machine m. Add and
  // Remove ask while `item` itself is unplaced, so only its siblings
  // count.
  bool TenantOn(size_t item, int m) const {
    const size_t tenant = static_cast<size_t>((*item_tenant_)[item]);
    for (size_t i = (*offsets_)[tenant]; i < (*offsets_)[tenant + 1]; ++i) {
      if (item_machine_[i] == m) return true;
    }
    return false;
  }

  // Extends the capacity memo through `tenants` distinct tenants.
  void CoverTenantCount(size_t tenants) {
    const size_t covered = capacity_.size();
    if (covered > tenants) return;
    capacity_.resize(tenants + 1);
    for (size_t k = covered; k < capacity_.size(); ++k) {
      capacity_[k] = EffectiveMachineCapacity(*options_, static_cast<int>(k));
    }
  }

  const PlacementOptions* options_;
  const std::vector<int>* item_tenant_;
  const std::vector<size_t>* offsets_;
  std::vector<int> item_machine_;  // by flat partition index
  // EffectiveMachineCapacity by distinct-tenant count.
  std::vector<double> capacity_;
  // By machine id.
  std::vector<double> load_;
  std::vector<int64_t> partitions_;
  std::vector<size_t> tenants_;         // distinct tenants
  std::vector<double> join_capacity_;  // capacity_[tenants_ + 1]
};

// Items ordered for placement: demand descending, flat index ascending.
// The sort runs over (demand, index) pairs so the keys are contiguous.
void SortForPlacement(const std::vector<double>& item_demand,
                      std::vector<size_t>* items) {
  std::vector<std::pair<double, size_t>> keyed;
  keyed.reserve(items->size());
  for (size_t i : *items) keyed.emplace_back(item_demand[i], i);
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (size_t k = 0; k < keyed.size(); ++k) (*items)[k] = keyed[k].second;
}

Placement Finalize(const Pool& pool, std::vector<size_t> offsets,
                   const Placement* previous) {
  Placement placement;
  placement.partition_offset = std::move(offsets);
  placement.machine.reserve(placement.partition_offset.back());
  for (size_t i = 0; i < placement.partition_offset.back(); ++i) {
    placement.machine.push_back(MachineId(pool.machine_of(i)));
  }
  placement.machine_load.resize(pool.size());
  placement.machine_partitions.resize(pool.size());
  placement.machine_tenant_counts.resize(pool.size());
  for (size_t m = 0; m < pool.size(); ++m) {
    placement.machine_load[m] = pool.load(m);
    placement.machine_partitions[m] = pool.partitions(m);
    placement.machine_tenant_counts[m] = pool.distinct_tenants(m);
  }
  placement.machines_used = pool.MachinesUsed();
  if (previous != nullptr &&
      previous->machine.size() == placement.machine.size()) {
    for (size_t i = 0; i < placement.machine.size(); ++i) {
      if (placement.machine[i] != previous->machine[i]) {
        ++placement.moved_partitions;
      }
    }
  }
  return placement;
}

}  // namespace

double EffectiveMachineCapacity(const PlacementOptions& options,
                                int distinct_tenants) {
  return EffectiveServeCapacity(options, options.machine_capacity,
                                distinct_tenants);
}

double EffectiveServeCapacity(const PlacementOptions& options,
                              double serve_capacity, int distinct_tenants) {
  const int extra = distinct_tenants > 1 ? distinct_tenants - 1 : 0;
  double fraction =
      1.0 - options.interference_per_tenant * static_cast<double>(extra);
  if (fraction < options.min_capacity_fraction) {
    fraction = options.min_capacity_fraction;
  }
  return serve_capacity * fraction;
}

PlacementPlanner::PlacementPlanner(const PlacementOptions& options,
                                   const MoveModelTable& move_table)
    : options_(options), move_table_(&move_table) {}

StatusOr<Placement> PlacementPlanner::PackFresh(
    const std::vector<double>& item_demand,
    const std::vector<int>& item_tenant,
    const std::vector<size_t>& offsets) const {
  Pool pool(options_, item_tenant, offsets);
  std::vector<size_t> order(item_demand.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  SortForPlacement(item_demand, &order);
  for (size_t item : order) {
    const double demand = item_demand[item];
    size_t target = pool.BestFit(item, demand);
    if (target == kNoMachine) {
      // Nothing fits: open a machine. An item larger than one machine
      // is placed alone and simply overloads it (the fleet layer does
      // not split partitions further).
      target = pool.size();
      if (target >= static_cast<size_t>(options_.max_machines)) {
        return Status::OutOfRange(
            "placement needs more than max_machines = " +
            std::to_string(options_.max_machines));
      }
    }
    pool.Add(target, item, demand);
  }
  Placement placement = Finalize(pool, offsets, nullptr);
  placement.repacked = true;
  return placement;
}

StatusOr<Placement> PlacementPlanner::PackIncremental(
    const std::vector<double>& item_demand,
    const std::vector<int>& item_tenant, const std::vector<size_t>& offsets,
    const Placement& previous) const {
  Pool pool(options_, item_tenant, offsets);
  for (size_t i = 0; i < previous.machine.size(); ++i) {
    pool.Add(static_cast<size_t>(previous.machine[i].value()), i,
             item_demand[i]);
  }

  // Evict from overloaded machines, largest item first (fewest moves);
  // removing a tenant's last partition lifts the interference penalty,
  // so capacity is re-evaluated after every eviction. An evicted item
  // is unplaced until re-placement, so the victim scan skips it.
  std::vector<size_t> evicted;
  evicted.reserve(item_demand.size());
  for (size_t m = 0; m < pool.size(); ++m) {
    while (pool.partitions(m) > 1 && pool.Overloaded(m)) {
      size_t victim = static_cast<size_t>(-1);
      for (size_t i = 0; i < item_demand.size(); ++i) {
        if (pool.machine_of(i) != static_cast<int>(m)) continue;
        if (victim == static_cast<size_t>(-1) ||
            item_demand[i] > item_demand[victim]) {
          victim = i;
        }
      }
      if (victim == static_cast<size_t>(-1)) break;
      pool.Remove(victim, item_demand[victim]);
      evicted.push_back(victim);
    }
  }

  // Re-place evicted items (demand desc, index asc); beyond best fit,
  // reuse the lowest-id empty machine before growing the pool.
  SortForPlacement(item_demand, &evicted);
  for (size_t item : evicted) {
    const double demand = item_demand[item];
    size_t target = pool.BestFit(item, demand);
    if (target == kNoMachine) {
      target = pool.LowestFreeMachine();
      if (target >= static_cast<size_t>(options_.max_machines)) {
        return Status::OutOfRange(
            "placement needs more than max_machines = " +
            std::to_string(options_.max_machines));
      }
    }
    pool.Add(target, item, demand);
  }

  Placement sticky = Finalize(pool, offsets, &previous);

  // Consolidation: when total demand suggests the pool could shrink,
  // price a from-scratch repack against the move-model resize cost.
  double total = 0.0;
  for (double d : item_demand) total += d;
  const double best_case_capacity = EffectiveMachineCapacity(options_, 1);
  const int lower_bound = static_cast<int>(
      std::ceil(total / (best_case_capacity > 0.0 ? best_case_capacity
                                                  : 1.0)));
  if (sticky.machines_used > lower_bound) {
    StatusOr<Placement> fresh = PackFresh(item_demand, item_tenant, offsets);
    if (!fresh.ok()) return sticky;  // fresh pack can only need more; keep
    const int saved = sticky.machines_used - fresh->machines_used;
    if (saved > 0) {
      const double resize_cost = move_table_->MoveCost(
          NodeCount(sticky.machines_used), NodeCount(fresh->machines_used));
      // Moves against the *previous* placement, not sticky: the churn a
      // repack is charged for is what it moves beyond the evictions the
      // sticky pack had to do anyway.
      fresh->moved_partitions = 0;
      for (size_t i = 0; i < fresh->machine.size(); ++i) {
        if (fresh->machine[i] != previous.machine[i]) {
          ++fresh->moved_partitions;
        }
      }
      const int64_t extra_moves =
          fresh->moved_partitions > sticky.moved_partitions
              ? fresh->moved_partitions - sticky.moved_partitions
              : 0;
      const double amortized_savings =
          static_cast<double>(saved) *
          static_cast<double>(options_.repack_amortize_slots);
      if (amortized_savings >
          resize_cost + options_.partition_move_cost *
                            static_cast<double>(extra_moves)) {
        return fresh;
      }
    }
  }
  return sticky;
}

StatusOr<Placement> PlacementPlanner::Pack(
    const std::vector<double>& tenant_demand,
    const std::vector<int>& tenant_partitions,
    const Placement* previous) const {
  if (tenant_demand.size() != tenant_partitions.size()) {
    return Status::InvalidArgument(
        "tenant_demand and tenant_partitions sizes differ");
  }
  // Flatten: demand splits evenly across a tenant's partitions.
  std::vector<size_t> offsets(tenant_demand.size() + 1, 0);
  for (size_t t = 0; t < tenant_demand.size(); ++t) {
    if (tenant_partitions[t] < 1) {
      return Status::InvalidArgument("tenant " + std::to_string(t) +
                                     " has no partitions");
    }
    if (!(tenant_demand[t] >= 0.0) || std::isinf(tenant_demand[t])) {
      return Status::InvalidArgument("tenant " + std::to_string(t) +
                                     " has invalid demand");
    }
    offsets[t + 1] = offsets[t] + static_cast<size_t>(tenant_partitions[t]);
  }
  std::vector<double> item_demand(offsets.back());
  std::vector<int> item_tenant(offsets.back());
  for (size_t t = 0; t < tenant_demand.size(); ++t) {
    const double share =
        tenant_demand[t] / static_cast<double>(tenant_partitions[t]);
    for (size_t i = offsets[t]; i < offsets[t + 1]; ++i) {
      item_demand[i] = share;
      item_tenant[i] = static_cast<int>(t);
    }
  }

  if (previous != nullptr) {
    if (previous->partition_offset != offsets) {
      return Status::InvalidArgument(
          "previous placement has a different tenant/partition shape");
    }
    return PackIncremental(item_demand, item_tenant, offsets, *previous);
  }
  return PackFresh(item_demand, item_tenant, offsets);
}

}  // namespace fleet
}  // namespace pstore
