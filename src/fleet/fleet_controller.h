#ifndef PSTORE_FLEET_FLEET_CONTROLLER_H_
#define PSTORE_FLEET_FLEET_CONTROLLER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fleet/placement.h"
#include "fleet/tenant_forecaster.h"
#include "obs/tracer.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace fleet {

struct FleetControllerOptions {
  PlacementOptions placement;
  // Multiplier applied to per-tenant forecasts before packing (the
  // paper's §8.2 inflation, applied per tenant).
  double inflation = 1.15;
  // Spike re-plan: when a tenant's observed demand exceeds this factor
  // times what was forecast for it, the controller re-plans the cycle
  // with the observed demand instead of waiting for the forecaster to
  // learn the new level.
  double spike_replan_factor = 1.5;
  // Demands below this are never treated as spikes (a tiny tenant going
  // from ~0 to a few txn/s is noise, not a flash crowd).
  double spike_min_demand = 1.0;
  // Seasonal period and recent-residual window of the per-tenant
  // forecasters, in provisioning-cycle slots.
  size_t forecast_period_slots = 288;
  size_t forecast_recent_window = 6;
  // Optional predictor spec (prediction/predictor_spec.h, e.g.
  // "ar(p=8)" or "shift(spar)"): when non-empty, every tenant carries a
  // spec-built model re-fitted each `forecast_refit_interval` cycles,
  // with the built-in seasonal forecast as the fallback. Must build —
  // validate with MakeTenantForecaster first; the controller CHECKs.
  // Empty (default) keeps the cheap built-in forecaster, bit-identical
  // to before this knob existed.
  std::string forecast_spec;
  size_t forecast_refit_interval = 288;
};

// Builds one tenant's forecaster from `options`: the built-in seasonal
// forecaster, or the `forecast_spec` model with the seasonal forecast
// as its fallback. Every tenant forecaster, in the shared pool and in
// the dedicated baseline, comes from here. Fails when the spec does not
// build a model.
StatusOr<TenantForecaster> MakeTenantForecaster(
    const FleetControllerOptions& options);

// The spike rule of both modes: a tenant's observed demand blew past
// spike_replan_factor times what was forecast for it, so the cycle is
// re-planned with the observation as the demand floor.
bool IsSpike(const FleetControllerOptions& options, double observed,
             double forecast);

// What one provisioning cycle decided.
struct FleetCycleDecision {
  int64_t cycle = 0;
  double total_forecast = 0.0;  // inflated, what was packed
  int machines = 0;
  int64_t moved_partitions = 0;
  bool repacked = false;
  bool spike_replan = false;
};

// The fleet-level layer above the per-tenant controller stack: owns one
// forecaster per tenant and the shared-pool placement, and re-plans the
// placement every provisioning cycle from the per-tenant forecasts.
// Mirrors Seagull's structure — per-tenant load forecasts feeding a
// fleet-wide allocator — on top of this repo's planner economics.
//
// Deterministic: the per-tenant forecast fan-out writes by tenant index
// (bit-identical for any thread count) and the packer is serial.
class FleetController {
 public:
  // `tenant_partitions[t]` is tenant t's placement-unit count (>= 1).
  // `move_table` and `tracer` are borrowed; `tracer` may be null.
  FleetController(const FleetControllerOptions& options,
                  std::vector<int> tenant_partitions,
                  const MoveModelTable& move_table, obs::Tracer* tracer);

  // Feeds pre-horizon history into the forecasters without planning:
  // history[t][s] is tenant t's demand in warmup cycle s. All tenants
  // must have the same number of warmup slots.
  Status WarmUp(const std::vector<std::vector<double>>& history);

  // Runs one provisioning cycle at sim time `now`: observes the demands
  // of the finished cycle (empty on the first call), detects spikes,
  // forecasts every tenant one cycle ahead (fanned out on `pool` when
  // given), and packs. Emits fleet.pack and fleet.tenant_move events.
  StatusOr<FleetCycleDecision> Tick(SimTime now,
                                    const std::vector<double>& observed,
                                    ThreadPool* pool);

  const Placement& placement() const { return placement_; }
  const std::vector<double>& last_forecast() const { return forecast_; }
  size_t tenants() const { return tenant_partitions_.size(); }

  // Lifetime counters.
  int64_t cycles() const { return cycles_; }
  int64_t repacks() const { return repacks_; }
  int64_t spike_replans() const { return spike_replans_; }
  int64_t moved_partitions() const { return moved_partitions_; }

 private:
  FleetControllerOptions options_;
  std::vector<int> tenant_partitions_;
  PlacementPlanner planner_;
  obs::Tracer* tracer_;

  std::vector<TenantForecaster> forecasters_;
  std::vector<double> forecast_;  // uninflated, by tenant
  Placement placement_;
  bool has_placement_ = false;

  int64_t cycles_ = 0;
  int64_t repacks_ = 0;
  int64_t spike_replans_ = 0;
  int64_t moved_partitions_ = 0;
};

}  // namespace fleet
}  // namespace pstore

#endif  // PSTORE_FLEET_FLEET_CONTROLLER_H_
