#ifndef PSTORE_FLEET_FLEET_SIMULATOR_H_
#define PSTORE_FLEET_FLEET_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/time_series.h"
#include "fleet/fleet_controller.h"
#include "fleet/tenant.h"
#include "obs/tracer.h"
#include "planner/move_model.h"

namespace pstore {
namespace fleet {

// The two provisioning disciplines the fleet simulator compares.
enum class FleetMode {
  // Shared pool: one FleetController packs every tenant's partitions
  // onto common machines each cycle.
  kFleet,
  // Dedicated: every tenant provisions its own machines from its own
  // forecast (the per-tenant stack, without sharing) — the baseline the
  // consolidation claim is measured against.
  kDedicated,
};

const char* FleetModeName(FleetMode mode);
StatusOr<FleetMode> ParseFleetMode(const std::string& name);

struct FleetOptions {
  FleetControllerOptions controller;
  // Fine slots per provisioning cycle (the fleet plans coarser than the
  // trace, like the per-tenant simulator).
  int plan_slot_factor = 5;
  // Duration of one fine slot; tenant traces of any granularity are
  // resampled (sample-and-hold) onto this common grid.
  double fine_slot_seconds = 60.0;
  // Q-hat per machine: what a machine can actually serve before a slot
  // counts as violating. Packing provisions against
  // controller.placement.machine_capacity (Q).
  double machine_serve_capacity = 350.0;
  // Fine slot at which evaluation starts; demand before it warms up the
  // forecasters. Rounded down to a whole cycle.
  size_t eval_begin = 0;
  // Move-model parameters for resize-cost accounting and the packer's
  // repack economics (the table is built once per Run).
  PlannerParams planner;
  // Dedicated baseline: cycles a lower target must persist before the
  // tenant scales in. The rule is not CapacitySimulator's: a dedicated
  // tenant has no DP plan, only a one-cycle-ahead forecast, so it
  // confirms a ceil(inflated forecast / Q) target and any cycle without
  // a lower target resets the count. CapacitySimulator confirms the DP
  // plan's first move and keeps its votes while that scale-in is still
  // in the future.
  int scale_in_confirm_cycles = 3;
};

// Per-tenant outcome over the evaluation window.
struct TenantResult {
  int tenant = 0;
  std::string name;
  std::string family;
  int partitions = 1;
  double sla_target = 0.0;
  double peak_demand = 0.0;
  double mean_demand = 0.0;
  // Fine slots in which a machine serving this tenant was over Q-hat.
  int64_t violation_slots = 0;
  double violation_fraction = 0.0;
  bool sla_met = true;
  // kFleet: partition moves this tenant absorbed. kDedicated: resizes.
  int64_t moves = 0;
};

struct FleetResult {
  FleetMode mode = FleetMode::kFleet;
  int tenants = 0;
  size_t eval_fine_slots = 0;
  // Sum over evaluated fine slots of machines held (Eq. 1 cost), plus
  // the machine-slots spent inside pool/tenant resizes (Eq. 4).
  double machine_slots = 0.0;
  double move_machine_slots = 0.0;
  int peak_machines = 0;
  int64_t cycles = 0;
  int64_t repacks = 0;         // kFleet only
  int64_t spike_replans = 0;   // kFleet only
  int64_t partition_moves = 0;  // kFleet: moves; kDedicated: resizes
  // Violation tallies: slot-tenant pairs, their fraction of
  // tenants * eval_fine_slots, and tenants whose violation fraction
  // exceeded their SLA target.
  int64_t tenant_violation_slots = 0;
  double tenant_violation_fraction = 0.0;
  int tenants_violating_sla = 0;
  std::vector<TenantResult> per_tenant;
};

// Drives a tenant fleet through warmup and evaluation under one mode.
// Deterministic for any thread count: the parallel sections (trace
// building, per-tenant forecasts, the dedicated per-tenant runs) all
// write results by tenant index.
class FleetSimulator {
 public:
  FleetSimulator(const FleetOptions& options, std::vector<TenantSpec> tenants);

  // Emits fleet.cycle per provisioning cycle (plus the controller's
  // fleet.pack / fleet.tenant_move in kFleet mode). Not thread-safe;
  // borrowed.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Runs the fleet under `mode`. `pool` may be null (serial).
  StatusOr<FleetResult> Simulate(FleetMode mode, ThreadPool* pool);

  const FleetOptions& options() const { return options_; }

 private:
  Status BuildDemandGrid(ThreadPool* pool);
  StatusOr<FleetResult> RunFleet(ThreadPool* pool);
  StatusOr<FleetResult> RunDedicated(ThreadPool* pool);

  FleetOptions options_;
  std::vector<TenantSpec> tenants_;
  obs::Tracer* tracer_ = nullptr;

  // Materialized per-tenant demand on the common fine grid; built once
  // and reused across modes. fine_demand_[t] has grid_fine_slots_
  // samples.
  bool grid_built_ = false;
  std::vector<std::vector<double>> fine_demand_;
  size_t grid_fine_slots_ = 0;
};

// Resamples `source` onto a grid of `fine_slots` samples of
// `fine_slot_seconds` each by sample-and-hold: fine slot f takes the
// value of the source slot containing time f * fine_slot_seconds.
// Returns kInvalidArgument when the source is empty or too short to
// cover the grid.
StatusOr<std::vector<double>> ResampleToGrid(const TimeSeries& source,
                                             double fine_slot_seconds,
                                             size_t fine_slots);

// Renders one result as deterministic CSV (%.17g doubles): a one-row
// summary block, a blank line, then a per-tenant block. Byte-identical
// across thread counts — the artifact the fleet golden test compares.
std::string FleetCsvRows(const FleetResult& result);

}  // namespace fleet
}  // namespace pstore

#endif  // PSTORE_FLEET_FLEET_SIMULATOR_H_
