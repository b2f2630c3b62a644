#include "fleet/fleet_controller.h"

#include <cmath>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fleet/placement.h"
#include "fleet/tenant_forecaster.h"
#include "obs/trace_event.h"
#include "obs/tracer.h"
#include "planner/move_model_table.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"

namespace pstore {
namespace fleet {

StatusOr<TenantForecaster> MakeTenantForecaster(
    const FleetControllerOptions& options) {
  if (options.forecast_spec.empty()) {
    return TenantForecaster(options.forecast_period_slots,
                            options.forecast_recent_window);
  }
  PredictorContext context;
  context.period = options.forecast_period_slots;
  context.max_tau = 4;
  StatusOr<std::unique_ptr<LoadPredictor>> model =
      MakePredictor(options.forecast_spec, context);
  if (!model.ok()) return model.status();
  return TenantForecaster(options.forecast_period_slots,
                          options.forecast_recent_window, std::move(*model),
                          options.forecast_refit_interval);
}

bool IsSpike(const FleetControllerOptions& options, double observed,
             double forecast) {
  return observed >= options.spike_min_demand &&
         observed > options.spike_replan_factor * forecast;
}

FleetController::FleetController(const FleetControllerOptions& options,
                                 std::vector<int> tenant_partitions,
                                 const MoveModelTable& move_table,
                                 obs::Tracer* tracer)
    : options_(options),
      tenant_partitions_(std::move(tenant_partitions)),
      planner_(options.placement, move_table),
      tracer_(tracer) {
  forecasters_.reserve(tenant_partitions_.size());
  for (size_t t = 0; t < tenant_partitions_.size(); ++t) {
    StatusOr<TenantForecaster> forecaster = MakeTenantForecaster(options_);
    PSTORE_CHECK_OK(forecaster.status());
    forecasters_.push_back(std::move(*forecaster));
  }
  forecast_.assign(tenant_partitions_.size(), 0.0);
}

Status FleetController::WarmUp(
    const std::vector<std::vector<double>>& history) {
  if (history.size() != tenant_partitions_.size()) {
    return Status::InvalidArgument(
        "WarmUp history must cover every tenant exactly once");
  }
  const size_t slots = history.empty() ? 0 : history[0].size();
  for (const auto& tenant_history : history) {
    if (tenant_history.size() != slots) {
      return Status::InvalidArgument(
          "WarmUp tenants must have equal history lengths");
    }
  }
  for (size_t t = 0; t < history.size(); ++t) {
    for (double load : history[t]) forecasters_[t].Observe(load);
  }
  return Status::OK();
}

StatusOr<FleetCycleDecision> FleetController::Tick(
    SimTime now, const std::vector<double>& observed, ThreadPool* pool) {
  const size_t tenants = tenant_partitions_.size();
  if (!observed.empty() && observed.size() != tenants) {
    return Status::InvalidArgument(
        "Tick observed demands must be empty or cover every tenant");
  }

  // Spike detection compares the finished cycle's observation against
  // what was forecast for it *before* the forecasters absorb it.
  bool spike = false;
  std::vector<double> spike_floor(tenants, 0.0);
  if (!observed.empty()) {
    for (size_t t = 0; t < tenants; ++t) {
      if (cycles_ > 0 && IsSpike(options_, observed[t], forecast_[t])) {
        spike = true;
        spike_floor[t] = observed[t];
      }
      forecasters_[t].Observe(observed[t]);
    }
  }

  // Forecast fan-out: each tenant's forecast is a pure function of its
  // own forecaster, written by index — bit-identical for any pool size.
  const auto forecast_one = [this](size_t t) {
    forecast_[t] = forecasters_[t].Forecast();
  };
  if (pool != nullptr && tenants > 1) {
    pool->ParallelFor(tenants, forecast_one);
  } else {
    for (size_t t = 0; t < tenants; ++t) forecast_one(t);
  }

  std::vector<double> demand(tenants, 0.0);
  double total = 0.0;
  for (size_t t = 0; t < tenants; ++t) {
    const double base =
        forecast_[t] > spike_floor[t] ? forecast_[t] : spike_floor[t];
    demand[t] = options_.inflation * base;
    total += demand[t];
  }

  const int machines_before = has_placement_ ? placement_.machines_used : 0;
  StatusOr<Placement> packed = planner_.Pack(
      demand, tenant_partitions_, has_placement_ ? &placement_ : nullptr);
  if (!packed.ok()) return packed.status();
  Placement next = std::move(*packed);

  FleetCycleDecision decision;
  decision.cycle = cycles_;
  decision.total_forecast = total;
  decision.machines = next.machines_used;
  decision.moved_partitions = next.moved_partitions;
  decision.repacked = next.repacked;
  decision.spike_replan = spike;

  PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kFleet, now,
               "fleet.pack",
               .With("cycle", cycles_)
                   .With("tenants", static_cast<int64_t>(tenants))
                   .With("demand", total)
                   .With("machines_before", machines_before)
                   .With("machines_after", next.machines_used)
                   .With("moved_partitions", next.moved_partitions)
                   .With("repacked", next.repacked)
                   .With("spike_replan", spike));
  if (tracer_ != nullptr &&
      tracer_->enabled(::pstore::obs::TraceCategory::kFleet) &&
      has_placement_ && next.moved_partitions > 0) {
    for (size_t t = 0; t < tenants; ++t) {
      int64_t moved = 0;
      for (size_t p = next.partition_offset[t];
           p < next.partition_offset[t + 1]; ++p) {
        if (next.machine[p] != placement_.machine[p]) ++moved;
      }
      if (moved == 0) continue;
      PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kFleet, now,
                   "fleet.tenant_move",
                   .With("cycle", cycles_)
                       .With("tenant", static_cast<int64_t>(t))
                       .With("moved_partitions", moved)
                       .With("demand", demand[t]));
    }
  }

  placement_ = std::move(next);
  has_placement_ = true;
  ++cycles_;
  if (decision.repacked) ++repacks_;
  if (spike) ++spike_replans_;
  moved_partitions_ += decision.moved_partitions;
  return decision;
}

}  // namespace fleet
}  // namespace pstore
