#include "fleet/fleet_simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/thread_pool.h"
#include "common/time_series.h"
#include "fleet/fleet_controller.h"
#include "fleet/placement.h"
#include "fleet/tenant.h"
#include "fleet/tenant_forecaster.h"
#include "obs/trace_event.h"
#include "obs/tracer.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"
#include "sim/run_spec.h"

namespace pstore {
namespace fleet {
namespace {

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

// Grid of the move-model table each run builds. Pool sizes beyond it
// are priced by the table's fallback, so the grid size changes speed,
// never a decision.
constexpr int kMoveTableMaxNodes = 256;

// Machine-slot cost of resizing a dedicated cluster or the shared pool
// from `before` to `after` machines.
double ResizeCost(const MoveModelTable& table, int before, int after) {
  if (before == after || before <= 0) return 0.0;
  return table.MoveCost(NodeCount(before), NodeCount(after));
}

// Coarse demand of provisioning cycle `c`: the mean of its `kk` fine
// slots, summed in slot order. Both modes observe these values.
double CycleMean(const std::vector<double>& fine, size_t c, size_t kk) {
  double sum = 0.0;
  for (size_t f = c * kk; f < (c + 1) * kk; ++f) sum += fine[f];
  return sum / static_cast<double>(kk);
}

}  // namespace

const char* FleetModeName(FleetMode mode) {
  switch (mode) {
    case FleetMode::kFleet:
      return "fleet";
    case FleetMode::kDedicated:
      return "dedicated";
  }
  return "unknown";
}

StatusOr<FleetMode> ParseFleetMode(const std::string& name) {
  if (name == "fleet") return FleetMode::kFleet;
  if (name == "dedicated") return FleetMode::kDedicated;
  return Status::InvalidArgument("unknown fleet mode: " + name +
                                 " (want fleet|dedicated)");
}

StatusOr<std::vector<double>> ResampleToGrid(const TimeSeries& source,
                                             double fine_slot_seconds,
                                             size_t fine_slots) {
  if (source.empty()) {
    return Status::InvalidArgument("cannot resample an empty trace");
  }
  if (!(fine_slot_seconds > 0.0) || !(source.slot_seconds() > 0.0)) {
    return Status::InvalidArgument("slot durations must be positive");
  }
  std::vector<double> grid(fine_slots);
  for (size_t f = 0; f < fine_slots; ++f) {
    const double t = static_cast<double>(f) * fine_slot_seconds;
    const size_t src = static_cast<size_t>(t / source.slot_seconds());
    if (src >= source.size()) {
      return Status::InvalidArgument(
          "trace too short: covers " +
          std::to_string(static_cast<double>(source.size()) *
                         source.slot_seconds()) +
          "s, grid needs " +
          std::to_string(static_cast<double>(fine_slots) *
                         fine_slot_seconds) +
          "s");
    }
    grid[f] = source[src];
  }
  return grid;
}

FleetSimulator::FleetSimulator(const FleetOptions& options,
                               std::vector<TenantSpec> tenants)
    : options_(options), tenants_(std::move(tenants)) {}

Status FleetSimulator::BuildDemandGrid(ThreadPool* pool) {
  if (grid_built_) return Status::OK();
  if (tenants_.empty()) {
    return Status::InvalidArgument("fleet has no tenants");
  }
  if (options_.plan_slot_factor < 1) {
    return Status::InvalidArgument("plan_slot_factor must be >= 1");
  }

  // Materialize every tenant's trace (each a pure function of its spec),
  // fanned out by tenant index.
  std::vector<StatusOr<TimeSeries>> traces(
      tenants_.size(), StatusOr<TimeSeries>(TimeSeries()));
  const auto build_one = [this, &traces](size_t t) {
    traces[t] = BuildWorkloadTrace(tenants_[t].workload);
    return traces[t].status();
  };
  if (pool != nullptr && tenants_.size() > 1) {
    RETURN_IF_ERROR(pool->ParallelForStatus(tenants_.size(), build_one));
  } else {
    for (size_t t = 0; t < tenants_.size(); ++t) {
      RETURN_IF_ERROR(build_one(t));
    }
  }

  // The common grid covers the shortest tenant horizon: mixed
  // granularities (per-minute B2W, hourly Wikipedia) meet on fine slots.
  double horizon_seconds = 0.0;
  for (size_t t = 0; t < tenants_.size(); ++t) {
    const TimeSeries& trace = *traces[t];
    const double seconds =
        static_cast<double>(trace.size()) * trace.slot_seconds();
    if (t == 0 || seconds < horizon_seconds) horizon_seconds = seconds;
  }
  grid_fine_slots_ =
      static_cast<size_t>(horizon_seconds / options_.fine_slot_seconds);
  const size_t fine_per_cycle =
      static_cast<size_t>(options_.plan_slot_factor);
  if (grid_fine_slots_ < 2 * fine_per_cycle) {
    return Status::InvalidArgument(
        "fleet horizon shorter than two provisioning cycles");
  }

  fine_demand_.assign(tenants_.size(), {});
  const auto resample_one = [this, &traces](size_t t) {
    StatusOr<std::vector<double>> grid = ResampleToGrid(
        *traces[t], options_.fine_slot_seconds, grid_fine_slots_);
    if (!grid.ok()) return grid.status();
    fine_demand_[t] = std::move(*grid);
    return Status::OK();
  };
  if (pool != nullptr && tenants_.size() > 1) {
    RETURN_IF_ERROR(pool->ParallelForStatus(tenants_.size(), resample_one));
  } else {
    for (size_t t = 0; t < tenants_.size(); ++t) {
      RETURN_IF_ERROR(resample_one(t));
    }
  }
  grid_built_ = true;
  return Status::OK();
}

StatusOr<FleetResult> FleetSimulator::Simulate(FleetMode mode, ThreadPool* pool) {
  // Both modes size machines by Q and count violations against Q-hat.
  const double q = options_.controller.placement.machine_capacity;
  if (!std::isfinite(q) || q <= 0.0) {
    return Status::InvalidArgument(
        "machine_capacity must be positive and finite");
  }
  const double qhat = options_.machine_serve_capacity;
  if (!std::isfinite(qhat) || qhat <= 0.0) {
    return Status::InvalidArgument(
        "machine_serve_capacity must be positive and finite");
  }
  // A forecast spec that does not build fails here, before either mode
  // builds (and CHECKs) one forecaster per tenant.
  RETURN_IF_ERROR(MakeTenantForecaster(options_.controller).status());
  RETURN_IF_ERROR(BuildDemandGrid(pool));
  StatusOr<FleetResult> result = mode == FleetMode::kFleet
                                     ? RunFleet(pool)
                                     : RunDedicated(pool);
  if (!result.ok()) return result.status();

  // Shared per-tenant fields and rollups.
  FleetResult& r = *result;
  r.mode = mode;
  r.tenants = static_cast<int>(tenants_.size());
  // The eval window is [warmup, last whole cycle) — the grid may have a
  // trailing partial cycle that no mode evaluates.
  const size_t eval_slots = r.eval_fine_slots;
  const size_t kk = static_cast<size_t>(options_.plan_slot_factor);
  const size_t eval_end = (grid_fine_slots_ / kk) * kk;
  const size_t eval_begin = eval_end - eval_slots;
  for (size_t t = 0; t < tenants_.size(); ++t) {
    TenantResult& tr = r.per_tenant[t];
    tr.tenant = tenants_[t].id.value();
    tr.name = tenants_[t].name;
    tr.family = WorkloadKindName(tenants_[t].workload.kind);
    tr.partitions = tenants_[t].partitions;
    tr.sla_target = tenants_[t].sla_target;
    double peak = 0.0;
    double sum = 0.0;
    for (size_t f = eval_begin; f < eval_end; ++f) {
      peak = std::max(peak, fine_demand_[t][f]);
      sum += fine_demand_[t][f];
    }
    tr.peak_demand = peak;
    tr.mean_demand =
        eval_slots > 0 ? sum / static_cast<double>(eval_slots) : 0.0;
    tr.violation_fraction =
        eval_slots > 0 ? static_cast<double>(tr.violation_slots) /
                             static_cast<double>(eval_slots)
                       : 0.0;
    tr.sla_met = tr.violation_fraction <= tr.sla_target;
    r.tenant_violation_slots += tr.violation_slots;
    if (!tr.sla_met) ++r.tenants_violating_sla;
  }
  const double denom = static_cast<double>(eval_slots) *
                       static_cast<double>(tenants_.size());
  r.tenant_violation_fraction =
      denom > 0.0 ? static_cast<double>(r.tenant_violation_slots) / denom
                  : 0.0;
  return result;
}

StatusOr<FleetResult> FleetSimulator::RunFleet(ThreadPool* pool) {
  const size_t kk = static_cast<size_t>(options_.plan_slot_factor);
  const size_t cycles = grid_fine_slots_ / kk;
  size_t warmup_cycles = std::min(options_.eval_begin / kk, cycles - 1);

  std::vector<std::vector<double>> coarse(
      tenants_.size(), std::vector<double>(cycles, 0.0));
  for (size_t t = 0; t < tenants_.size(); ++t) {
    for (size_t c = 0; c < cycles; ++c) {
      coarse[t][c] = CycleMean(fine_demand_[t], c, kk);
    }
  }

  MoveModelTable table(options_.planner, NodeCount(kMoveTableMaxNodes));
  std::vector<int> partitions(tenants_.size());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    partitions[t] = tenants_[t].partitions;
  }
  FleetController controller(options_.controller, partitions, table,
                             tracer_);

  std::vector<std::vector<double>> warmup(tenants_.size());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    warmup[t].assign(coarse[t].begin(),
                     coarse[t].begin() + static_cast<std::ptrdiff_t>(
                                             warmup_cycles));
  }
  RETURN_IF_ERROR(controller.WarmUp(warmup));

  FleetResult result;
  result.eval_fine_slots = (cycles - warmup_cycles) * kk;
  std::vector<TenantResult> per_tenant(tenants_.size());
  // Deduplicates a tenant's violations within a fine slot when its
  // partitions span several overloaded machines.
  std::vector<int64_t> last_violation_slot(tenants_.size(), -1);

  std::vector<MachineId> prev_machines;
  for (size_t c = warmup_cycles; c < cycles; ++c) {
    const SimTime now = FromSeconds(static_cast<double>(c * kk) *
                                    options_.fine_slot_seconds);
    std::vector<double> observed;
    if (c > warmup_cycles) {
      observed.resize(tenants_.size());
      for (size_t t = 0; t < tenants_.size(); ++t) {
        observed[t] = coarse[t][c - 1];
      }
    }
    const int machines_before =
        c > warmup_cycles ? controller.placement().machines_used : 0;
    StatusOr<FleetCycleDecision> decision =
        controller.Tick(now, observed, pool);
    if (!decision.ok()) return decision.status();
    const Placement& placement = controller.placement();

    result.machine_slots +=
        static_cast<double>(decision->machines) * static_cast<double>(kk);
    // Moving costs: pool resize (Eq. 4 economics) plus the migration
    // work of every partition that changed machines this cycle.
    result.move_machine_slots +=
        ResizeCost(table, machines_before, decision->machines);
    result.move_machine_slots +=
        options_.controller.placement.partition_move_cost *
        static_cast<double>(decision->moved_partitions);
    result.peak_machines = std::max(result.peak_machines,
                                    decision->machines);
    result.partition_moves += decision->moved_partitions;

    // Per-tenant move attribution against the previous cycle.
    if (!prev_machines.empty()) {
      for (size_t t = 0; t < tenants_.size(); ++t) {
        for (size_t p = placement.partition_offset[t];
             p < placement.partition_offset[t + 1]; ++p) {
          if (placement.machine[p] != prev_machines[p]) {
            ++per_tenant[t].moves;
          }
        }
      }
    }
    prev_machines = placement.machine;

    // Violation accounting: a machine whose actual load exceeds its
    // interference-degraded Q-hat puts every resident tenant in
    // violation for that fine slot.
    const size_t machines = placement.machine_load.size();
    std::vector<double> machine_actual(machines, 0.0);
    int64_t cycle_violations = 0;
    for (size_t f = c * kk; f < (c + 1) * kk; ++f) {
      std::fill(machine_actual.begin(), machine_actual.end(), 0.0);
      for (size_t t = 0; t < tenants_.size(); ++t) {
        const double share =
            fine_demand_[t][f] /
            static_cast<double>(tenants_[t].partitions);
        for (size_t p = placement.partition_offset[t];
             p < placement.partition_offset[t + 1]; ++p) {
          machine_actual[static_cast<size_t>(
              placement.machine[p].value())] += share;
        }
      }
      for (size_t m = 0; m < machines; ++m) {
        if (placement.machine_partitions[m] == 0) continue;
        const double cap = EffectiveServeCapacity(
            options_.controller.placement, options_.machine_serve_capacity,
            placement.machine_tenant_counts[m]);
        if (machine_actual[m] <= cap) continue;
        // Overloaded: charge every tenant resident on m, once per slot.
        for (size_t t = 0; t < tenants_.size(); ++t) {
          if (last_violation_slot[t] == static_cast<int64_t>(f)) continue;
          bool resident = false;
          for (size_t p = placement.partition_offset[t];
               p < placement.partition_offset[t + 1] && !resident; ++p) {
            resident = static_cast<size_t>(
                           placement.machine[p].value()) == m;
          }
          if (!resident) continue;
          last_violation_slot[t] = static_cast<int64_t>(f);
          ++per_tenant[t].violation_slots;
          ++cycle_violations;
        }
      }
    }

    PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kFleet, now,
                 "fleet.cycle",
                 .With("cycle", static_cast<int64_t>(c - warmup_cycles))
                     .With("demand", decision->total_forecast)
                     .With("machines", decision->machines)
                     .With("moved_partitions", decision->moved_partitions)
                     .With("violation_slot_tenants", cycle_violations));
  }

  result.cycles = controller.cycles();
  result.repacks = controller.repacks();
  result.spike_replans = controller.spike_replans();
  result.per_tenant = std::move(per_tenant);
  return result;
}

StatusOr<FleetResult> FleetSimulator::RunDedicated(ThreadPool* pool) {
  const size_t kk = static_cast<size_t>(options_.plan_slot_factor);
  const size_t cycles = grid_fine_slots_ / kk;
  const size_t warmup_cycles =
      std::min(options_.eval_begin / kk, cycles - 1);
  const double q = options_.controller.placement.machine_capacity;

  MoveModelTable table(options_.planner, NodeCount(kMoveTableMaxNodes));

  // Every tenant provisions alone; each index writes only its own rows,
  // so the fan-out is deterministic for any thread count.
  std::vector<TenantResult> per_tenant(tenants_.size());
  std::vector<double> tenant_machine_slots(tenants_.size(), 0.0);
  std::vector<double> tenant_move_slots(tenants_.size(), 0.0);
  std::vector<int64_t> tenant_spikes(tenants_.size(), 0);
  std::vector<std::vector<int>> nodes_by_cycle(
      tenants_.size(), std::vector<int>(cycles - warmup_cycles, 0));

  const auto run_one = [&, this](size_t t) {
    StatusOr<TenantForecaster> made =
        MakeTenantForecaster(options_.controller);
    PSTORE_CHECK_OK(made.status());  // validated in Simulate
    TenantForecaster& forecaster = *made;
    for (size_t c = 0; c < warmup_cycles; ++c) {
      forecaster.Observe(CycleMean(fine_demand_[t], c, kk));
    }

    int nodes = 0;
    int low_cycles = 0;
    double last_forecast = 0.0;
    for (size_t c = warmup_cycles; c < cycles; ++c) {
      double spike_floor = 0.0;
      if (c > warmup_cycles) {
        const double observed = CycleMean(fine_demand_[t], c - 1, kk);
        if (IsSpike(options_.controller, observed, last_forecast)) {
          spike_floor = observed;
          ++tenant_spikes[t];
        }
        forecaster.Observe(observed);
      }
      last_forecast = forecaster.Forecast();
      const double demand = options_.controller.inflation *
                            std::max(last_forecast, spike_floor);
      const int target = std::max(
          1, static_cast<int>(std::ceil(demand / q)));

      if (nodes == 0) {
        nodes = target;  // initial allocation, like the pool's first pack
      } else if (target > nodes) {
        tenant_move_slots[t] += ResizeCost(table, nodes, target);
        nodes = target;
        ++per_tenant[t].moves;
        low_cycles = 0;
      } else if (target < nodes) {
        // Scale in only after the lower need persisted (hysteresis, as
        // in the per-tenant simulator).
        if (++low_cycles >= options_.scale_in_confirm_cycles) {
          tenant_move_slots[t] += ResizeCost(table, nodes, target);
          nodes = target;
          ++per_tenant[t].moves;
          low_cycles = 0;
        }
      } else {
        low_cycles = 0;
      }

      nodes_by_cycle[t][c - warmup_cycles] = nodes;
      tenant_machine_slots[t] +=
          static_cast<double>(nodes) * static_cast<double>(kk);
      const double capacity = static_cast<double>(nodes) *
                              options_.machine_serve_capacity;
      for (size_t f = c * kk; f < (c + 1) * kk; ++f) {
        if (fine_demand_[t][f] > capacity) {
          ++per_tenant[t].violation_slots;
        }
      }
    }
  };
  if (pool != nullptr && tenants_.size() > 1) {
    pool->ParallelFor(tenants_.size(), run_one);
  } else {
    for (size_t t = 0; t < tenants_.size(); ++t) run_one(t);
  }

  FleetResult result;
  result.eval_fine_slots = (cycles - warmup_cycles) * kk;
  result.cycles = static_cast<int64_t>(cycles - warmup_cycles);
  for (size_t t = 0; t < tenants_.size(); ++t) {
    result.machine_slots += tenant_machine_slots[t];
    result.move_machine_slots += tenant_move_slots[t];
    result.spike_replans += tenant_spikes[t];
    result.partition_moves += per_tenant[t].moves;
  }
  for (size_t c = 0; c < cycles - warmup_cycles; ++c) {
    int total = 0;
    for (size_t t = 0; t < tenants_.size(); ++t) {
      total += nodes_by_cycle[t][c];
    }
    result.peak_machines = std::max(result.peak_machines, total);
    const SimTime now =
        FromSeconds(static_cast<double>((warmup_cycles + c) * kk) *
                    options_.fine_slot_seconds);
    PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kFleet, now,
                 "fleet.cycle",
                 .With("cycle", static_cast<int64_t>(c))
                     .With("machines", total)
                     .With("mode", "dedicated"));
  }
  result.per_tenant = std::move(per_tenant);
  return result;
}

std::string FleetCsvRows(const FleetResult& result) {
  std::string out =
      "mode,tenants,eval_fine_slots,machine_slots,move_machine_slots,"
      "peak_machines,cycles,repacks,spike_replans,partition_moves,"
      "tenant_violation_slots,tenant_violation_fraction,"
      "tenants_violating_sla\n";
  out += FleetModeName(result.mode);
  out += ',' + std::to_string(result.tenants);
  out += ',' + std::to_string(result.eval_fine_slots);
  out += ',';
  AppendDouble(&out, result.machine_slots);
  out += ',';
  AppendDouble(&out, result.move_machine_slots);
  out += ',' + std::to_string(result.peak_machines);
  out += ',' + std::to_string(result.cycles);
  out += ',' + std::to_string(result.repacks);
  out += ',' + std::to_string(result.spike_replans);
  out += ',' + std::to_string(result.partition_moves);
  out += ',' + std::to_string(result.tenant_violation_slots);
  out += ',';
  AppendDouble(&out, result.tenant_violation_fraction);
  out += ',' + std::to_string(result.tenants_violating_sla);
  out += "\n\n";

  out +=
      "tenant,name,family,partitions,sla_target,peak_demand,mean_demand,"
      "violation_slots,violation_fraction,sla_met,moves\n";
  for (const TenantResult& tr : result.per_tenant) {
    out += std::to_string(tr.tenant);
    out += ',' + tr.name;
    out += ',' + tr.family;
    out += ',' + std::to_string(tr.partitions);
    out += ',';
    AppendDouble(&out, tr.sla_target);
    out += ',';
    AppendDouble(&out, tr.peak_demand);
    out += ',';
    AppendDouble(&out, tr.mean_demand);
    out += ',' + std::to_string(tr.violation_slots);
    out += ',';
    AppendDouble(&out, tr.violation_fraction);
    out += ',';
    out += tr.sla_met ? '1' : '0';
    out += ',' + std::to_string(tr.moves);
    out += '\n';
  }
  return out;
}

}  // namespace fleet
}  // namespace pstore
