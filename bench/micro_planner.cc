// Microbenchmarks for the planner: DP runtime scaling with horizon and
// cluster size, move-model evaluation cost, schedule construction, and
// the fleet placement packer.

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "fleet/placement.h"
#include "planner/dp_planner.h"
#include "planner/migration_schedule.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace {

std::vector<double> DiurnalLoad(int horizon, double peak) {
  std::vector<double> load;
  load.reserve(horizon + 1);
  for (int t = 0; t <= horizon; ++t) {
    load.push_back(0.12 * peak +
                   0.88 * peak * 0.5 *
                       (1.0 - std::cos(2.0 * M_PI * t / horizon)));
  }
  return load;
}

void BM_DpPlanner(benchmark::State& state) {
  const int horizon = static_cast<int>(state.range(0));
  const double peak = 285.0 * static_cast<double>(state.range(1));
  PlannerParams params;
  params.target_rate_per_node = 285.0;
  params.max_rate_per_node = 350.0;
  params.d_slots = 15.4;
  params.partitions_per_node = 6;
  const DpPlanner planner(params);
  const std::vector<double> load = DiurnalLoad(horizon, peak);
  for (auto _ : state) {
    StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_DpPlanner)
    ->Args({24, 10})
    ->Args({48, 10})
    ->Args({96, 10})
    ->Args({48, 20})
    ->Args({48, 40});

void BM_EffectiveCapacity(benchmark::State& state) {
  PlannerParams params;
  params.target_rate_per_node = 285.0;
  double f = 0.0;
  for (auto _ : state) {
    f += 0.001;
    if (f > 1.0) f = 0.0;
    benchmark::DoNotOptimize(EffectiveCapacity(NodeCount(3), NodeCount(14), f, params));
  }
}
BENCHMARK(BM_EffectiveCapacity);

void BM_AvgMachinesAllocated(benchmark::State& state) {
  int b = 1;
  for (auto _ : state) {
    b = b % 19 + 1;
    benchmark::DoNotOptimize(AvgMachinesAllocated(NodeCount(b), NodeCount(20 - b + 1)));
  }
}
BENCHMARK(BM_AvgMachinesAllocated);

void BM_BuildMigrationSchedule(benchmark::State& state) {
  const int before = static_cast<int>(state.range(0));
  const int after = static_cast<int>(state.range(1));
  for (auto _ : state) {
    StatusOr<MigrationSchedule> schedule =
        BuildMigrationSchedule(NodeCount(before), NodeCount(after));
    benchmark::DoNotOptimize(schedule);
  }
}
BENCHMARK(BM_BuildMigrationSchedule)
    ->Args({3, 14})
    ->Args({14, 3})
    ->Args({10, 40})
    ->Args({40, 10});

// PlacementPlanner::Pack at 1000 tenants x 2 partitions with the
// default fleet knobs. Arg 0 packs from scratch; arg 1 packs
// incrementally against that fresh pack with every tenant's demand
// perturbed by up to +-10%, which also prices (and usually rejects) the
// consolidating fresh pack, as FleetController does every cycle.
void BM_FleetPack(benchmark::State& state) {
  constexpr size_t kTenants = 1000;
  Rng rng(20170101);
  std::vector<double> demand(kTenants);
  std::vector<double> perturbed(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    // Log-uniform over [10, 162): about 210 machines, the median pool
    // of the fleet_1000t_4d benchmark workload.
    demand[t] = 40.0 * std::exp(rng.NextDouble(-1.4, 1.4));
    perturbed[t] = demand[t] * rng.NextDouble(0.9, 1.1);
  }
  const std::vector<int> partitions(kTenants, 2);
  PlannerParams params;
  params.target_rate_per_node = 285.0;
  params.max_rate_per_node = 350.0;
  const MoveModelTable table(params, NodeCount(256));
  const fleet::PlacementPlanner planner(fleet::PlacementOptions{}, table);
  StatusOr<fleet::Placement> previous =
      planner.Pack(demand, partitions, nullptr);
  if (!previous.ok()) {
    state.SkipWithError("fresh pack failed");
    return;
  }
  const bool incremental = state.range(0) == 1;
  for (auto _ : state) {
    StatusOr<fleet::Placement> packed =
        incremental ? planner.Pack(perturbed, partitions, &*previous)
                    : planner.Pack(demand, partitions, nullptr);
    benchmark::DoNotOptimize(packed);
  }
  state.counters["machines"] = previous->machines_used;
}
BENCHMARK(BM_FleetPack)->Arg(0)->Arg(1);

}  // namespace
}  // namespace pstore

PSTORE_MICRO_BENCH_MAIN("planner")
