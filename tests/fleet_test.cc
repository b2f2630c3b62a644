#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/thread_pool.h"
#include "common/time_series.h"
#include "fleet/fleet_controller.h"
#include "fleet/fleet_simulator.h"
#include "fleet/placement.h"
#include "fleet/tenant.h"
#include "fleet/tenant_forecaster.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"
#include "sim/run_spec.h"

namespace pstore {
namespace fleet {
namespace {

// ---- interference model ----------------------------------------------------

TEST(EffectiveCapacityTest, SingleTenantPaysNoInterference) {
  PlacementOptions options;
  options.machine_capacity = 300.0;
  options.interference_per_tenant = 0.05;
  EXPECT_DOUBLE_EQ(EffectiveMachineCapacity(options, 0), 300.0);
  EXPECT_DOUBLE_EQ(EffectiveMachineCapacity(options, 1), 300.0);
}

TEST(EffectiveCapacityTest, MonotonicallyNonIncreasingInTenantCount) {
  PlacementOptions options;
  options.machine_capacity = 300.0;
  options.interference_per_tenant = 0.05;
  options.min_capacity_fraction = 0.5;
  double previous = EffectiveMachineCapacity(options, 1);
  for (int tenants = 2; tenants <= 30; ++tenants) {
    const double capacity = EffectiveMachineCapacity(options, tenants);
    EXPECT_LE(capacity, previous) << "tenants=" << tenants;
    previous = capacity;
  }
  // 1 - 0.05 * (3 - 1) = 0.9.
  EXPECT_DOUBLE_EQ(EffectiveMachineCapacity(options, 3), 270.0);
}

TEST(EffectiveCapacityTest, FloorsAtMinCapacityFraction) {
  PlacementOptions options;
  options.machine_capacity = 300.0;
  options.interference_per_tenant = 0.05;
  options.min_capacity_fraction = 0.5;
  // 100 tenants would nominally degrade far past the floor.
  EXPECT_DOUBLE_EQ(EffectiveMachineCapacity(options, 100), 150.0);
}

TEST(EffectiveCapacityTest, ServeCapacityUsesCallerLimit) {
  PlacementOptions options;
  options.machine_capacity = 285.0;
  options.interference_per_tenant = 0.02;
  EXPECT_DOUBLE_EQ(EffectiveServeCapacity(options, 350.0, 2),
                   350.0 * 0.98);
}

// ---- packer ----------------------------------------------------------------

PlacementOptions SmallPoolOptions() {
  PlacementOptions options;
  options.machine_capacity = 100.0;
  options.interference_per_tenant = 0.0;
  return options;
}

// The move-model table the packer prices pool resizes with.
MoveModelTable PoolTable() {
  return MoveModelTable(PlannerParams{}, NodeCount(64));
}

TEST(PlacementPlannerTest, RespectsMachineCapacity) {
  const MoveModelTable table = PoolTable();
  PlacementPlanner planner(SmallPoolOptions(), table);
  // Four tenants of 60 each, one partition apiece: no two items can
  // share a machine (60 + 60 > 100), so the pack needs four machines.
  const StatusOr<Placement> packed =
      planner.Pack({60.0, 60.0, 60.0, 60.0}, {1, 1, 1, 1}, nullptr);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->machines_used, 4);
  for (size_t m = 0; m < packed->machine_load.size(); ++m) {
    EXPECT_LE(packed->machine_load[m], 100.0);
  }
}

TEST(PlacementPlannerTest, BinPacksSubMachineTenants) {
  const MoveModelTable table = PoolTable();
  PlacementPlanner planner(SmallPoolOptions(), table);
  // Eight tenants of 25 each fit exactly onto two machines.
  const StatusOr<Placement> packed = planner.Pack(
      std::vector<double>(8, 25.0), std::vector<int>(8, 1), nullptr);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->machines_used, 2);
}

TEST(PlacementPlannerTest, InterferenceReducesCoLocation) {
  const MoveModelTable table = PoolTable();
  PlacementOptions options = SmallPoolOptions();
  const StatusOr<Placement> no_interference =
      PlacementPlanner(options, table)
          .Pack(std::vector<double>(8, 24.0), std::vector<int>(8, 1),
                nullptr);
  ASSERT_TRUE(no_interference.ok());

  options.interference_per_tenant = 0.1;  // 4 co-tenants cost 30%
  const StatusOr<Placement> with_interference =
      PlacementPlanner(options, table)
          .Pack(std::vector<double>(8, 24.0), std::vector<int>(8, 1),
                nullptr);
  ASSERT_TRUE(with_interference.ok());
  EXPECT_GT(with_interference->machines_used,
            no_interference->machines_used);
}

TEST(PlacementPlannerTest, SameTenantPartitionsDoNotInterfere) {
  const MoveModelTable table = PoolTable();
  PlacementOptions options = SmallPoolOptions();
  options.interference_per_tenant = 0.5;
  // One tenant, four partitions of 24: all fit on one machine because
  // co-locating the same tenant is interference-free.
  const StatusOr<Placement> packed =
      PlacementPlanner(options, table).Pack({96.0}, {4}, nullptr);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->machines_used, 1);
}

TEST(PlacementPlannerTest, DeterministicAcrossRepeatedPacks) {
  const MoveModelTable table = PoolTable();
  PlacementPlanner planner(SmallPoolOptions(), table);
  const std::vector<double> demand = {40.0, 40.0, 30.0, 30.0, 20.0, 20.0};
  const std::vector<int> partitions = {2, 1, 1, 2, 1, 1};
  const StatusOr<Placement> first = planner.Pack(demand, partitions, nullptr);
  const StatusOr<Placement> second =
      planner.Pack(demand, partitions, nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->machine.size(), second->machine.size());
  for (size_t i = 0; i < first->machine.size(); ++i) {
    EXPECT_EQ(first->machine[i], second->machine[i]) << "partition " << i;
  }
}

TEST(PlacementPlannerTest, EqualDemandTieBreaksByLowestIndex) {
  const MoveModelTable table = PoolTable();
  PlacementPlanner planner(SmallPoolOptions(), table);
  // Two identical items: the lower flat index must land on the lower
  // machine id (demand ties break by index, machines by id).
  const StatusOr<Placement> packed =
      planner.Pack({60.0, 60.0}, {1, 1}, nullptr);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->machine[0], MachineId(0));
  EXPECT_EQ(packed->machine[1], MachineId(1));
}

TEST(PlacementPlannerTest, IncrementalKeepsFittingPartitionsPut) {
  const MoveModelTable table = PoolTable();
  PlacementPlanner planner(SmallPoolOptions(), table);
  const std::vector<int> partitions = {1, 1, 1};
  const StatusOr<Placement> initial =
      planner.Pack({48.0, 30.0, 20.0}, partitions, nullptr);
  ASSERT_TRUE(initial.ok());
  // Mild demand drift that still fits everywhere: nothing moves.
  const StatusOr<Placement> next =
      planner.Pack({49.0, 29.0, 21.0}, partitions, &*initial);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->moved_partitions, 0);
  EXPECT_FALSE(next->repacked);
  for (size_t i = 0; i < next->machine.size(); ++i) {
    EXPECT_EQ(next->machine[i], initial->machine[i]);
  }
}

TEST(PlacementPlannerTest, IncrementalEvictsFromOverloadedMachine) {
  const MoveModelTable table = PoolTable();
  PlacementPlanner planner(SmallPoolOptions(), table);
  const std::vector<int> partitions = {1, 1};
  const StatusOr<Placement> initial =
      planner.Pack({50.0, 40.0}, partitions, nullptr);
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial->machines_used, 1);
  // Tenant 0 grows past what the shared machine can hold: someone moves.
  const StatusOr<Placement> next =
      planner.Pack({80.0, 40.0}, partitions, &*initial);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->machines_used, 2);
  EXPECT_EQ(next->moved_partitions, 1);
}

TEST(PlacementPlannerTest, IncrementalEvictsSeveralFromOneMachine) {
  const MoveModelTable table = PoolTable();
  PlacementPlanner planner(SmallPoolOptions(), table);
  const std::vector<int> partitions = {1, 1, 1};
  const StatusOr<Placement> initial =
      planner.Pack({34.0, 33.0, 33.0}, partitions, nullptr);
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial->machines_used, 1);
  // Every tenant nearly doubles: the shared machine is over by more
  // than its largest item, so lifting the overload takes two distinct
  // evictions (a single victim must not be evicted twice).
  const StatusOr<Placement> next =
      planner.Pack({60.0, 60.0, 60.0}, partitions, &*initial);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->machines_used, 3);
  EXPECT_EQ(next->moved_partitions, 2);
  EXPECT_NE(next->machine[0], next->machine[1]);
  EXPECT_NE(next->machine[0], next->machine[2]);
  EXPECT_NE(next->machine[1], next->machine[2]);
  double total_load = 0.0;
  for (size_t m = 0; m < next->machine_load.size(); ++m) {
    EXPECT_LE(next->machine_load[m], 100.0);
    total_load += next->machine_load[m];
  }
  EXPECT_DOUBLE_EQ(total_load, 180.0);
}

TEST(PlacementPlannerTest, RepackEconomicsGateConsolidation) {
  // After a demand collapse the sticky pack strands machines; whether
  // the consolidating repack is adopted depends on the priced churn.
  const MoveModelTable table = PoolTable();
  const std::vector<int> partitions(8, 1);
  const std::vector<double> high(8, 60.0);
  const std::vector<double> low(8, 10.0);

  PlacementOptions cheap_moves = SmallPoolOptions();
  cheap_moves.partition_move_cost = 0.0;
  {
    PlacementPlanner planner(cheap_moves, table);
    const StatusOr<Placement> initial =
        planner.Pack(high, partitions, nullptr);
    ASSERT_TRUE(initial.ok());
    EXPECT_EQ(initial->machines_used, 8);
    const StatusOr<Placement> next =
        planner.Pack(low, partitions, &*initial);
    ASSERT_TRUE(next.ok());
    EXPECT_TRUE(next->repacked);
    EXPECT_EQ(next->machines_used, 1);
  }

  PlacementOptions dear_moves = SmallPoolOptions();
  dear_moves.partition_move_cost = 1e9;  // any churn outweighs savings
  {
    PlacementPlanner planner(dear_moves, table);
    const StatusOr<Placement> initial =
        planner.Pack(high, partitions, nullptr);
    ASSERT_TRUE(initial.ok());
    const StatusOr<Placement> next =
        planner.Pack(low, partitions, &*initial);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next->repacked);
    EXPECT_EQ(next->machines_used, 8);  // stranded, but no churn paid
  }
}

// Beyond the table's grid a pool resize is priced by the move model,
// not as free, so the grid size cannot change a repack decision.
TEST(PlacementPlannerTest, RepackDecisionDoesNotDependOnGridSize) {
  const std::vector<int> partitions(8, 1);
  PlacementOptions options = SmallPoolOptions();
  options.partition_move_cost = 0.0;
  // Seven machines saved for 5 slots (35 machine-slots) do not pay for
  // the 8 -> 1 resize: C(8, 1) = 67.375 machine-slots at the default D.
  options.repack_amortize_slots = 5;
  for (const int grid : {2, 64}) {
    const MoveModelTable table(PlannerParams{}, NodeCount(grid));
    const PlacementPlanner planner(options, table);
    const StatusOr<Placement> initial =
        planner.Pack(std::vector<double>(8, 60.0), partitions, nullptr);
    ASSERT_TRUE(initial.ok());
    ASSERT_EQ(initial->machines_used, 8);
    const StatusOr<Placement> next =
        planner.Pack(std::vector<double>(8, 10.0), partitions, &*initial);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next->repacked) << "grid " << grid;
    EXPECT_EQ(next->machines_used, 8) << "grid " << grid;
  }
}

TEST(PlacementPlannerTest, RejectsMalformedInput) {
  const MoveModelTable table = PoolTable();
  PlacementPlanner planner(SmallPoolOptions(), table);
  EXPECT_FALSE(planner.Pack({1.0}, {1, 1}, nullptr).ok());
  EXPECT_FALSE(planner.Pack({1.0}, {0}, nullptr).ok());
  EXPECT_FALSE(planner.Pack({-1.0}, {1}, nullptr).ok());
  const StatusOr<Placement> initial = planner.Pack({1.0}, {1}, nullptr);
  ASSERT_TRUE(initial.ok());
  EXPECT_FALSE(planner.Pack({1.0, 2.0}, {1, 1}, &*initial).ok());
}

// ---- packer vs a naive reference -----------------------------------------

// The packer's documented semantics, written as plainly as possible: a
// multiset of resident tenants per machine, linear scans everywhere,
// the two tie-breaks (demand desc / index asc; least remaining capacity
// / lowest machine id), the empty-machine load reset, and the repack
// economics. PlacementPlanner must reproduce it bit for bit.
class ReferencePacker {
 public:
  ReferencePacker(const PlacementOptions& options, const MoveModelTable& table)
      : options_(options), table_(&table) {}

  Placement Pack(const std::vector<double>& tenant_demand,
                 const std::vector<int>& tenant_partitions,
                 const Placement* previous) const {
    Items items;
    items.offsets.push_back(0);
    for (size_t t = 0; t < tenant_demand.size(); ++t) {
      const double share = tenant_demand[t] / tenant_partitions[t];
      for (int p = 0; p < tenant_partitions[t]; ++p) {
        items.demand.push_back(share);
        items.tenant.push_back(static_cast<int>(t));
      }
      items.offsets.push_back(items.demand.size());
    }
    if (previous == nullptr) return Fresh(items);

    std::vector<Machine> pool;
    std::vector<int> where(items.demand.size(), -1);
    for (size_t i = 0; i < items.demand.size(); ++i) {
      Add(items, i, previous->machine[i].value(), &pool, &where);
    }
    std::vector<size_t> evicted;
    for (size_t m = 0; m < pool.size(); ++m) {
      while (pool[m].partitions > 1 &&
             pool[m].load >
                 EffectiveMachineCapacity(options_, Distinct(pool[m]))) {
        size_t victim = 0;
        bool found = false;
        for (size_t i = 0; i < where.size(); ++i) {
          if (where[i] != static_cast<int>(m)) continue;
          if (!found || items.demand[i] > items.demand[victim]) victim = i;
          found = true;
        }
        Remove(items, victim, &pool, &where);
        evicted.push_back(victim);
      }
    }
    InPlacementOrder(items, &evicted);
    for (size_t i : evicted) {
      int target = BestFit(items, i, pool);
      if (target < 0) {
        target = static_cast<int>(pool.size());
        for (size_t m = 0; m < pool.size(); ++m) {
          if (pool[m].partitions == 0) {
            target = static_cast<int>(m);
            break;
          }
        }
      }
      Add(items, i, target, &pool, &where);
    }
    Placement sticky = Result(items, pool, where, previous);

    double total = 0.0;
    for (double d : items.demand) total += d;
    const double one = EffectiveMachineCapacity(options_, 1);
    const int lower_bound =
        static_cast<int>(std::ceil(total / (one > 0.0 ? one : 1.0)));
    if (sticky.machines_used <= lower_bound) return sticky;
    Placement fresh = Fresh(items);
    const int saved = sticky.machines_used - fresh.machines_used;
    if (saved <= 0) return sticky;
    const double resize_cost = table_->MoveCost(
        NodeCount(sticky.machines_used), NodeCount(fresh.machines_used));
    fresh.moved_partitions = Moves(fresh, *previous);
    const int64_t extra_moves =
        std::max<int64_t>(0, fresh.moved_partitions - sticky.moved_partitions);
    const double savings = static_cast<double>(saved) *
                           static_cast<double>(options_.repack_amortize_slots);
    if (savings > resize_cost + options_.partition_move_cost *
                                    static_cast<double>(extra_moves)) {
      return fresh;
    }
    return sticky;
  }

 private:
  struct Items {
    std::vector<double> demand;
    std::vector<int> tenant;
    std::vector<size_t> offsets;
  };
  struct Machine {
    double load = 0.0;
    int64_t partitions = 0;
    std::multiset<int> tenants;
  };

  static int Distinct(const Machine& machine) {
    return static_cast<int>(
        std::set<int>(machine.tenants.begin(), machine.tenants.end()).size());
  }

  static void InPlacementOrder(const Items& items, std::vector<size_t>* order) {
    std::sort(order->begin(), order->end(), [&](size_t a, size_t b) {
      return std::make_pair(-items.demand[a], a) <
             std::make_pair(-items.demand[b], b);
    });
  }

  static void Add(const Items& items, size_t i, int m,
                  std::vector<Machine>* pool, std::vector<int>* where) {
    if (static_cast<size_t>(m) >= pool->size()) pool->resize(m + 1);
    Machine& machine = (*pool)[m];
    machine.load += items.demand[i];
    ++machine.partitions;
    machine.tenants.insert(items.tenant[i]);
    (*where)[i] = m;
  }

  static void Remove(const Items& items, size_t i, std::vector<Machine>* pool,
                     std::vector<int>* where) {
    Machine& machine = (*pool)[(*where)[i]];
    machine.load -= items.demand[i];
    --machine.partitions;
    machine.tenants.erase(machine.tenants.find(items.tenant[i]));
    if (machine.partitions == 0) machine.load = 0.0;
    (*where)[i] = -1;
  }

  int BestFit(const Items& items, size_t i,
              const std::vector<Machine>& pool) const {
    int best = -1;
    double best_remaining = 0.0;
    for (size_t m = 0; m < pool.size(); ++m) {
      const bool resident = pool[m].tenants.count(items.tenant[i]) > 0;
      const double capacity = EffectiveMachineCapacity(
          options_, Distinct(pool[m]) + (resident ? 0 : 1));
      if (!(pool[m].load + items.demand[i] <= capacity)) continue;
      const double remaining = capacity - (pool[m].load + items.demand[i]);
      if (best < 0 || remaining < best_remaining) {
        best = static_cast<int>(m);
        best_remaining = remaining;
      }
    }
    return best;
  }

  Placement Fresh(const Items& items) const {
    std::vector<size_t> order(items.demand.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    InPlacementOrder(items, &order);
    std::vector<Machine> pool;
    std::vector<int> where(items.demand.size(), -1);
    for (size_t i : order) {
      const int target = BestFit(items, i, pool);
      Add(items, i, target >= 0 ? target : static_cast<int>(pool.size()),
          &pool, &where);
    }
    Placement placement = Result(items, pool, where, nullptr);
    placement.repacked = true;
    return placement;
  }

  static int64_t Moves(const Placement& next, const Placement& previous) {
    int64_t moves = 0;
    for (size_t i = 0; i < next.machine.size(); ++i) {
      if (next.machine[i] != previous.machine[i]) ++moves;
    }
    return moves;
  }

  static Placement Result(const Items& items, const std::vector<Machine>& pool,
                          const std::vector<int>& where,
                          const Placement* previous) {
    Placement placement;
    placement.partition_offset = items.offsets;
    for (int m : where) placement.machine.push_back(MachineId(m));
    for (const Machine& machine : pool) {
      placement.machine_load.push_back(machine.load);
      placement.machine_partitions.push_back(machine.partitions);
      placement.machine_tenant_counts.push_back(Distinct(machine));
      if (machine.partitions > 0) ++placement.machines_used;
    }
    if (previous != nullptr) {
      placement.moved_partitions = Moves(placement, *previous);
    }
    return placement;
  }

  PlacementOptions options_;
  const MoveModelTable* table_;
};

void ExpectSamePlacement(const Placement& expected, const Placement& actual,
                         const std::string& where) {
  EXPECT_EQ(actual.machine, expected.machine) << where;
  EXPECT_EQ(actual.machine_partitions, expected.machine_partitions) << where;
  EXPECT_EQ(actual.machine_tenant_counts, expected.machine_tenant_counts)
      << where;
  EXPECT_EQ(actual.machines_used, expected.machines_used) << where;
  EXPECT_EQ(actual.moved_partitions, expected.moved_partitions) << where;
  EXPECT_EQ(actual.repacked, expected.repacked) << where;
  ASSERT_EQ(actual.machine_load.size(), expected.machine_load.size()) << where;
  for (size_t m = 0; m < actual.machine_load.size(); ++m) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.machine_load[m]),
              std::bit_cast<uint64_t>(expected.machine_load[m]))
        << where << " machine " << m << ": " << actual.machine_load[m]
        << " vs " << expected.machine_load[m];
  }
}

// Seeded random fleets, each packed fresh and then through a chain of
// incremental packs on perturbed demand. The mix covers multi-partition
// tenants, crowds of tiny tenants that drive a machine past the
// min_capacity_fraction floor, zero-demand tenants, oversize items, and
// demand collapses that make a consolidating repack pay. Pack never
// empties a machine itself (eviction stops at one partition), so some
// steps spread the previous placement's machine ids to leave empty
// machines for the sticky pack to reuse.
TEST(PlacementDifferentialTest, MatchesNaiveReferencePacker) {
  const MoveModelTable table = PoolTable();
  int kept_repacks = 0;
  int sticky_moves = 0;
  int reused_machines = 0;
  int floor_machines = 0;
  int overloaded_machines = 0;
  int split_tenants = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    PlacementOptions options;
    options.machine_capacity = 100.0;
    options.interference_per_tenant = seed % 3 == 0 ? 0.0 : 0.02;
    options.partition_move_cost = seed % 2 == 0 ? 0.0 : 0.5;
    options.repack_amortize_slots = seed % 4 == 1 ? 1 : 288;
    const PlacementPlanner planner(options, table);
    const ReferencePacker reference(options, table);

    const size_t tenants = 40 + rng.NextUint64(160);
    std::vector<int> partitions(tenants);
    std::vector<double> demand(tenants);
    for (size_t t = 0; t < tenants; ++t) {
      partitions[t] = 1 + static_cast<int>(rng.NextUint64(5));
      const double kind = rng.NextDouble();
      if (kind < 0.08) {
        demand[t] = 0.0;
      } else if (kind < 0.12) {
        demand[t] = partitions[t] * rng.NextDouble(101.0, 180.0);
      } else if (kind < 0.55) {
        demand[t] = rng.NextDouble(0.05, 1.5);
      } else {
        demand[t] = rng.NextDouble(1.0, 90.0);
      }
    }

    StatusOr<Placement> packed = planner.Pack(demand, partitions, nullptr);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    ExpectSamePlacement(reference.Pack(demand, partitions, nullptr), *packed,
                        "seed " + std::to_string(seed) + " fresh");
    Placement previous = *packed;
    for (int step = 1; step <= 8; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const bool collapse = step % 4 == 0;
      for (size_t t = 0; t < tenants; ++t) {
        demand[t] *= collapse ? rng.NextDouble(0.1, 0.4)
                              : rng.NextDouble(0.6, 1.7);
      }
      if (step % 3 == 0) {
        for (MachineId& m : previous.machine) m = MachineId(2 * m.value());
      }
      packed = planner.Pack(demand, partitions, &previous);
      ASSERT_TRUE(packed.ok()) << where << ": " << packed.status().ToString();
      ExpectSamePlacement(reference.Pack(demand, partitions, &previous),
                          *packed, where);

      if (packed->repacked) {
        ++kept_repacks;
      } else if (packed->moved_partitions > 0) {
        ++sticky_moves;
        for (size_t i = 0; i < packed->machine.size(); ++i) {
          const int m = packed->machine[i].value();
          if (m % 2 == 1 && step % 3 == 0) ++reused_machines;
        }
      }
      for (size_t m = 0; m < packed->machine_load.size(); ++m) {
        // Past 26 tenants, 0.02 per extra tenant hits the 0.5 floor.
        if (packed->machine_tenant_counts[m] > 26) ++floor_machines;
        if (packed->machine_load[m] > options.machine_capacity) {
          ++overloaded_machines;
        }
      }
      for (size_t t = 0; t < tenants; ++t) {
        const size_t first = packed->partition_offset[t];
        for (size_t i = first + 1; i < packed->partition_offset[t + 1]; ++i) {
          if (packed->machine[i] != packed->machine[first]) {
            ++split_tenants;
            break;
          }
        }
      }
      previous = *packed;
    }
  }
  // The fleets above must actually reach every path they are meant to.
  EXPECT_GT(kept_repacks, 0);
  EXPECT_GT(sticky_moves, 0);
  EXPECT_GT(reused_machines, 0);
  EXPECT_GT(floor_machines, 0);
  EXPECT_GT(overloaded_machines, 0);
  EXPECT_GT(split_tenants, 0);
}

// ---- forecaster ------------------------------------------------------------

TEST(TenantForecasterTest, FallsBackToLastValueBeforeOnePeriod) {
  TenantForecaster forecaster(/*period_slots=*/4, /*recent_window=*/2);
  EXPECT_DOUBLE_EQ(forecaster.Forecast(), 0.0);
  forecaster.Observe(10.0);
  forecaster.Observe(20.0);
  EXPECT_DOUBLE_EQ(forecaster.Forecast(), 20.0);
}

TEST(TenantForecasterTest, TracksSeasonalPattern) {
  TenantForecaster forecaster(/*period_slots=*/4, /*recent_window=*/2);
  // Two full periods of a clean 4-slot pattern.
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const double value : {10.0, 50.0, 90.0, 30.0}) {
      forecaster.Observe(value);
    }
  }
  // Next slot is the start of the pattern; residuals are all zero.
  EXPECT_DOUBLE_EQ(forecaster.Forecast(), 10.0);
}

TEST(TenantForecasterTest, RecentOffsetShiftsSeasonalBaseline) {
  TenantForecaster forecaster(/*period_slots=*/4, /*recent_window=*/2);
  for (const double value : {10.0, 50.0, 90.0, 30.0}) {
    forecaster.Observe(value);
  }
  // The second period starts running 5 higher. The next forecast is the
  // seasonal baseline one period back (90) lifted by the mean recent
  // residual (+5).
  forecaster.Observe(15.0);
  forecaster.Observe(55.0);
  EXPECT_DOUBLE_EQ(forecaster.Forecast(), 95.0);
}

// ---- tenant mix ------------------------------------------------------------

TEST(TenantMixTest, BuildsRequestedFamilies) {
  TenantMixOptions mix;
  mix.b2w_tenants = 2;
  mix.wikipedia_tenants = 2;
  mix.ycsb_tenants = 1;
  mix.step_tenants = 1;
  mix.days = 2;
  const std::vector<TenantSpec> tenants = MakeTenantMix(mix);
  ASSERT_EQ(tenants.size(), 6u);
  EXPECT_EQ(TotalTenants(mix), 6);
  EXPECT_EQ(tenants[0].workload.kind, WorkloadSpec::Kind::kB2wSynthetic);
  EXPECT_EQ(tenants[2].workload.kind, WorkloadSpec::Kind::kWikipedia);
  EXPECT_EQ(tenants[4].workload.kind, WorkloadSpec::Kind::kYcsbSteady);
  EXPECT_EQ(tenants[5].workload.kind, WorkloadSpec::Kind::kStep);
  for (size_t t = 0; t < tenants.size(); ++t) {
    EXPECT_EQ(tenants[t].id, TenantId(static_cast<int>(t)));
    EXPECT_FALSE(tenants[t].name.empty());
  }
}

TEST(TenantMixTest, TracesBuildAndSpreadDiffers) {
  TenantMixOptions mix;
  mix.b2w_tenants = 3;
  mix.days = 2;
  const std::vector<TenantSpec> tenants = MakeTenantMix(mix);
  double first_peak = 0.0;
  bool peaks_differ = false;
  for (const TenantSpec& tenant : tenants) {
    const StatusOr<TimeSeries> trace =
        BuildWorkloadTrace(tenant.workload);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    EXPECT_GT(trace->Max(), 0.0);
    if (first_peak == 0.0) {
      first_peak = trace->Max();
    } else if (trace->Max() != first_peak) {
      peaks_differ = true;
    }
  }
  EXPECT_TRUE(peaks_differ);  // log-uniform demand spread applied
}

// ---- resampling ------------------------------------------------------------

TEST(ResampleToGridTest, HoldsCoarseValuesAcrossFineSlots) {
  const TimeSeries hourly(3600.0, {10.0, 20.0});
  const StatusOr<std::vector<double>> grid =
      ResampleToGrid(hourly, 60.0, 120);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->size(), 120u);
  EXPECT_DOUBLE_EQ((*grid)[0], 10.0);
  EXPECT_DOUBLE_EQ((*grid)[59], 10.0);
  EXPECT_DOUBLE_EQ((*grid)[60], 20.0);
  EXPECT_DOUBLE_EQ((*grid)[119], 20.0);
}

TEST(ResampleToGridTest, RejectsTooShortSource) {
  const TimeSeries hourly(3600.0, {10.0});
  EXPECT_FALSE(ResampleToGrid(hourly, 60.0, 61).ok());
  EXPECT_FALSE(ResampleToGrid(TimeSeries(), 60.0, 1).ok());
}

// ---- controller ------------------------------------------------------------

FleetControllerOptions SmallControllerOptions() {
  FleetControllerOptions options;
  options.placement.machine_capacity = 100.0;
  options.placement.interference_per_tenant = 0.0;
  options.inflation = 1.0;
  options.forecast_period_slots = 4;
  options.forecast_recent_window = 2;
  return options;
}

TEST(FleetControllerTest, PacksFromForecasts) {
  const MoveModelTable table = PoolTable();
  FleetController controller(SmallControllerOptions(), {1, 1}, table,
                             nullptr);
  ASSERT_TRUE(controller.WarmUp({{40.0, 40.0, 40.0, 40.0},
                                 {30.0, 30.0, 30.0, 30.0}})
                  .ok());
  const StatusOr<FleetCycleDecision> decision =
      controller.Tick(0, {}, nullptr);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  EXPECT_EQ(decision->machines, 1);  // 40 + 30 fit one machine
  EXPECT_FALSE(decision->spike_replan);
}

TEST(FleetControllerTest, SpikeTriggersReplanWithObservedDemand) {
  FleetControllerOptions options = SmallControllerOptions();
  options.spike_replan_factor = 1.5;
  const MoveModelTable table = PoolTable();
  FleetController controller(options, {1, 1}, table, nullptr);
  ASSERT_TRUE(controller.WarmUp({{40.0, 40.0, 40.0, 40.0},
                                 {30.0, 30.0, 30.0, 30.0}})
                  .ok());
  StatusOr<FleetCycleDecision> decision = controller.Tick(0, {}, nullptr);
  ASSERT_TRUE(decision.ok());
  const int calm_machines = decision->machines;

  // Tenant 0's observed demand triples its forecast: the controller
  // must re-plan with the observation, not the stale forecast.
  decision = controller.Tick(1, {160.0, 30.0}, nullptr);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->spike_replan);
  EXPECT_GT(decision->machines, calm_machines);
  EXPECT_EQ(controller.spike_replans(), 1);
}

TEST(FleetControllerTest, ParallelForecastMatchesSerial) {
  const std::vector<std::vector<double>> history = {
      {40.0, 42.0, 38.0, 41.0}, {30.0, 29.0, 31.0, 30.0},
      {20.0, 22.0, 18.0, 21.0}, {10.0, 12.0, 8.0, 11.0}};
  const MoveModelTable table = PoolTable();
  FleetController serial(SmallControllerOptions(), {1, 1, 1, 1}, table,
                         nullptr);
  FleetController parallel(SmallControllerOptions(), {1, 1, 1, 1}, table,
                           nullptr);
  ASSERT_TRUE(serial.WarmUp(history).ok());
  ASSERT_TRUE(parallel.WarmUp(history).ok());
  ThreadPool pool(4);
  const StatusOr<FleetCycleDecision> a = serial.Tick(0, {}, nullptr);
  const StatusOr<FleetCycleDecision> b = parallel.Tick(0, {}, &pool);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(serial.last_forecast().size(), parallel.last_forecast().size());
  for (size_t t = 0; t < serial.last_forecast().size(); ++t) {
    EXPECT_DOUBLE_EQ(serial.last_forecast()[t], parallel.last_forecast()[t]);
  }
  EXPECT_EQ(a->machines, b->machines);
}

// ---- simulator -------------------------------------------------------------

TEST(FleetSimulatorTest, FleetPackingBeatsDedicatedAtEqualSla) {
  TenantMixOptions mix;
  mix.b2w_tenants = 8;
  mix.wikipedia_tenants = 4;
  mix.ycsb_tenants = 4;
  mix.step_tenants = 4;
  mix.days = 2;
  FleetOptions options;
  options.eval_begin = 1440;
  FleetSimulator simulator(options, MakeTenantMix(mix));

  const StatusOr<FleetResult> fleet =
      simulator.Simulate(FleetMode::kFleet, nullptr);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  const StatusOr<FleetResult> dedicated =
      simulator.Simulate(FleetMode::kDedicated, nullptr);
  ASSERT_TRUE(dedicated.ok()) << dedicated.status().ToString();

  EXPECT_LT(fleet->machine_slots + fleet->move_machine_slots,
            dedicated->machine_slots + dedicated->move_machine_slots);
  EXPECT_LE(fleet->tenants_violating_sla,
            dedicated->tenants_violating_sla);
  EXPECT_EQ(fleet->per_tenant.size(), 20u);
  EXPECT_EQ(fleet->eval_fine_slots, dedicated->eval_fine_slots);
  EXPECT_GT(fleet->peak_machines, 0);
  EXPECT_LT(fleet->peak_machines, dedicated->peak_machines);
}

TenantMixOptions SmallMix() {
  TenantMixOptions mix;
  mix.b2w_tenants = 4;
  mix.wikipedia_tenants = 2;
  mix.ycsb_tenants = 2;
  mix.step_tenants = 2;
  mix.days = 2;
  return mix;
}

// The dedicated baseline forecasts with the pool's forecast spec, so
// --forecast=X --mode=both compares like with like.
TEST(FleetSimulatorTest, DedicatedBaselineUsesForecastSpec) {
  FleetOptions options;
  options.eval_begin = 1440;
  FleetSimulator builtin(options, MakeTenantMix(SmallMix()));
  options.controller.forecast_spec = "last_value";
  FleetSimulator spec(options, MakeTenantMix(SmallMix()));

  const StatusOr<FleetResult> a =
      builtin.Simulate(FleetMode::kDedicated, nullptr);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const StatusOr<FleetResult> b = spec.Simulate(FleetMode::kDedicated, nullptr);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(FleetCsvRows(*a), FleetCsvRows(*b));
}

TEST(FleetSimulatorTest, UnbuildableForecastSpecIsAStatus) {
  FleetOptions options;
  options.eval_begin = 1440;
  for (const char* spec : {"nosuch", "ar(p=0)"}) {
    options.controller.forecast_spec = spec;
    FleetSimulator simulator(options, MakeTenantMix(SmallMix()));
    EXPECT_FALSE(simulator.Simulate(FleetMode::kFleet, nullptr).ok()) << spec;
    EXPECT_FALSE(simulator.Simulate(FleetMode::kDedicated, nullptr).ok())
        << spec;
  }
}

// Q and Q-hat are checked before either mode runs: the pooled mode
// used to pack a zero-capacity pool one partition per machine and
// report it.
TEST(FleetSimulatorTest, NonPositiveCapacityIsAStatusInBothModes) {
  const double kBad[] = {0.0, -285.0, std::nan(""), HUGE_VAL};
  for (const double bad : kBad) {
    for (const bool serve : {false, true}) {
      FleetOptions options;
      options.eval_begin = 1440;
      if (serve) {
        options.machine_serve_capacity = bad;
      } else {
        options.controller.placement.machine_capacity = bad;
      }
      FleetSimulator simulator(options, MakeTenantMix(SmallMix()));
      for (const FleetMode mode : {FleetMode::kFleet, FleetMode::kDedicated}) {
        const StatusOr<FleetResult> result = simulator.Simulate(mode, nullptr);
        EXPECT_FALSE(result.ok())
            << FleetModeName(mode) << (serve ? " Q-hat=" : " Q=") << bad;
      }
    }
  }
}

}  // namespace
}  // namespace fleet
}  // namespace pstore
