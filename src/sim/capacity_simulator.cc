#include "sim/capacity_simulator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/time_series.h"
#include "obs/tracer.h"
#include "obs/wall_timer.h"
#include "planner/dp_planner.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace {

// The planner-facing parameters derived from the simulator options;
// shared by the per-run state machine and the simulator's precomputed
// move model table (which must be built from the identical params).
PlannerParams PlanParamsFor(const SimOptions& options) {
  PlannerParams params;
  params.target_rate_per_node = options.q;
  params.max_rate_per_node = options.q_hat;
  params.d_slots =
      options.d_fine_slots / static_cast<double>(options.plan_slot_factor);
  params.partitions_per_node = options.partitions_per_node;
  params.assume_instant_capacity = options.naive_capacity_planner;
  return params;
}

}  // namespace

// Shared per-run state machine: advances fine slot by fine slot, tracks
// the in-flight move, and accounts cost and violations. Strategies hook
// in via a decision callback invoked after each slot's accounting.
class CapacitySimulator::Run {
 public:
  Run(const SimOptions& options, const TimeSeries& fine_trace,
      obs::Tracer* tracer)
      : options_(options), trace_(fine_trace), tracer_(tracer) {
    // Serving capacity is governed by Q-hat; provisioning by Q.
    serve_params_.target_rate_per_node = options.q_hat;
    serve_params_.d_slots = options.d_fine_slots;
    serve_params_.partitions_per_node = options.partitions_per_node;
    plan_params_ = PlanParamsFor(options);
    nodes_ = options.initial_nodes;
  }

  // decide(fine_slot) may call StartMove.
  SimResult Execute(const std::function<void(size_t)>& decide) {
    SimResult result;
    const size_t end = trace_.size();
    PSTORE_CHECK(options_.eval_begin < end);
    result.effective_capacity.reserve(end - options_.eval_begin);
    result.machines.reserve(end - options_.eval_begin);
    for (size_t t = options_.eval_begin; t < end; ++t) {
      fine_slot_ = t;
      // Complete a move whose duration has elapsed.
      if (move_active_ && static_cast<double>(t) >= move_end_) {
        nodes_ = move_to_;
        move_active_ = false;
        PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kSim, TsAt(t),
                     "sim.move.done", .With("machines", nodes_));
      }
      decide(t);
      // Account this slot.
      double eff_cap;
      int machines;
      if (move_active_) {
        const double f =
            std::clamp((static_cast<double>(t) + 1.0 - move_start_) /
                           (move_end_ - move_start_),
                       0.0, 1.0);
        eff_cap = EffectiveCapacity(NodeCount(move_from_), NodeCount(move_to_),
                                    f, serve_params_);
        machines =
            MachinesAllocatedAt(NodeCount(move_from_), NodeCount(move_to_), f)
                .value();
      } else {
        eff_cap = options_.q_hat * nodes_;
        machines = nodes_;
      }
      // Injected faults degrade whatever capacity the strategy thinks it
      // has; overlapping windows compound by taking the minimum.
      double fault_multiplier = 1.0;
      for (const CapacityFault& fault : options_.faults) {
        if (t >= fault.begin_fine_slot && t < fault.end_fine_slot) {
          fault_multiplier = std::min(
              fault_multiplier, std::max(0.0, fault.capacity_multiplier));
        }
      }
      eff_cap *= fault_multiplier;
      result.machine_slots += machines;
      if (move_active_) ++result.move_slots;
      if (fault_multiplier < 1.0) ++result.fault_slots;
      if (trace_[t] > eff_cap) {
        ++result.insufficient_slots;
        if (move_active_) ++result.insufficient_during_move_slots;
        if (fault_multiplier < 1.0) ++result.insufficient_during_fault_slots;
        PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kSim, TsAt(t),
                     "sim.insufficient",
                     .With("load", trace_[t])
                         .With("capacity", eff_cap)
                         .With("migrating", move_active_)
                         .With("fault", fault_multiplier < 1.0));
      }
      result.effective_capacity.push_back(eff_cap);
      result.machines.push_back(machines);
    }
    result.insufficient_fraction =
        static_cast<double>(result.insufficient_slots) /
        static_cast<double>(end - options_.eval_begin);
    result.reconfigurations = reconfigurations_;
    return result;
  }

  bool move_active() const { return move_active_; }
  int nodes() const { return nodes_; }
  obs::Tracer* tracer() const { return tracer_; }

  // Simulated timestamp of a fine slot, for trace events.
  SimTime TsAt(size_t t) const {
    return FromSeconds(static_cast<double>(t) * options_.fine_slot_sim_seconds);
  }

  // How much larger the database (and therefore any migration) is at the
  // current slot, relative to the start of the trace.
  double DbGrowthFactor() const {
    return 1.0 + options_.d_growth_per_day *
                     (static_cast<double>(fine_slot_) / 1440.0);
  }

  // Starts a move of `duration_plan_slots` planning slots (already the
  // ceil'd DP duration, computed with the planner's — possibly stale —
  // D) from the current node count to `target`. The *actual* duration
  // scales with the true database size.
  void StartMove(int target, int duration_plan_slots) {
    PSTORE_CHECK(!move_active_);
    PSTORE_CHECK(target >= 1 && target != nodes_);
    move_active_ = true;
    move_from_ = nodes_;
    move_to_ = target;
    move_start_ = static_cast<double>(fine_slot_);
    double actual_slots = static_cast<double>(duration_plan_slots) *
                          options_.plan_slot_factor;
    if (options_.d_growth_per_day > 0.0 && !options_.refresh_d) {
      // The planner believed the original D; reality is bigger.
      actual_slots *= DbGrowthFactor();
    }
    move_end_ = move_start_ + actual_slots;
    ++reconfigurations_;
    PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kSim, TsAt(fine_slot_),
                 "sim.move.start",
                 .With("from", move_from_)
                     .With("to", move_to_)
                     .With("fine_slots", actual_slots));
  }

  const PlannerParams& plan_params() const { return plan_params_; }

 private:
  const SimOptions& options_;
  const TimeSeries& trace_;
  PlannerParams serve_params_;
  PlannerParams plan_params_;
  int nodes_ = 1;
  size_t fine_slot_ = 0;
  bool move_active_ = false;
  int move_from_ = 0;
  int move_to_ = 0;
  double move_start_ = 0.0;
  double move_end_ = 0.0;
  int reconfigurations_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

CapacitySimulator::CapacitySimulator(const SimOptions& options)
    : options_(options) {
  PSTORE_CHECK(options_.plan_slot_factor >= 1);
  PSTORE_CHECK(options_.q > 0.0 && options_.q_hat >= options_.q);
  PSTORE_CHECK(options_.d_fine_slots > 0.0);
  PSTORE_CHECK(options_.initial_nodes >= 1);
  move_table_ = std::make_unique<const MoveModelTable>(
      PlanParamsFor(options_),
      NodeCount(std::max(options_.max_nodes, options_.initial_nodes)));
}

StatusOr<SimResult> CapacitySimulator::RunPredictive(
    const TimeSeries& fine_trace, const LoadPredictor& predictor) const {
  if (fine_trace.size() <= options_.eval_begin) {
    return Status::InvalidArgument("trace shorter than eval_begin");
  }
  const TimeSeries coarse =
      fine_trace.DownsampleMean(options_.plan_slot_factor);
  Run run(options_, fine_trace, tracer_);
  const int factor = options_.plan_slot_factor;
  int scale_in_votes = 0;
  // What the predictor sees: the coarse prefix [0, coarse_now], grown
  // in place rather than copied each cycle.
  TimeSeries history(coarse.slot_seconds());

  auto decide = [&](size_t t) {
    if (t % static_cast<size_t>(factor) != 0) return;  // plan boundaries
    const size_t coarse_now = t / factor;
    if (coarse_now + 1 >= coarse.size()) return;
    PSTORE_TRACE(run.tracer(), ::pstore::obs::TraceCategory::kSim, run.TsAt(t),
                 "sim.cycle",
                 .With("load", coarse[coarse_now])
                     .With("machines", run.nodes())
                     .With("migrating", run.move_active()));
    if (run.move_active()) return;

    // The planner's D: re-discovered as the database grows (the paper's
    // prescription) or frozen at its original value for the stale-D
    // ablation.
    PlannerParams plan_params = run.plan_params();
    if (options_.d_growth_per_day > 0.0 && options_.refresh_d) {
      plan_params.d_slots *=
          1.0 + options_.d_growth_per_day *
                    (static_cast<double>(t) / 1440.0);
    }
    DpPlanner planner(plan_params);
    // The precomputed table matches unless refresh_d just rescaled D.
    if (move_table_->MatchesParams(plan_params)) {
      planner.set_move_table(move_table_.get());
    }

    // Forecast the horizon at planning granularity. A loop, not one
    // append: cycles skipped while a move was in flight added nothing.
    while (history.size() <= coarse_now) {
      history.Append(coarse[history.size()]);
    }
    obs::WallTimer forecast_timer;
    StatusOr<std::vector<double>> forecast = predictor.PredictHorizon(
        history, static_cast<size_t>(options_.horizon_plan_slots));
    if (!forecast.ok()) return;

    std::vector<double> load;
    load.reserve(options_.horizon_plan_slots + 1);
    load.push_back(coarse[coarse_now]);  // measured current load
    for (double v : *forecast) {
      load.push_back(std::max(0.0, v * options_.inflation));
    }
    PSTORE_TRACE(run.tracer(), ::pstore::obs::TraceCategory::kSim, run.TsAt(t),
                 "sim.forecast",
                 .With("horizon", options_.horizon_plan_slots)
                     .With("pred_next", load.size() > 1 ? load[1] : 0.0)
                     .With("pred_peak",
                           *std::max_element(load.begin(), load.end()))
                     .With("wall_us", forecast_timer.ElapsedMicros()));

    StatusOr<PlanResult> plan =
        planner.BestMoves(load, NodeCount(run.nodes()));
    if (!plan.ok()) {
      // No feasible plan: react by scaling straight to the needed size
      // at the regular migration rate (paper §4.3.1 option 2).
      const double peak = *std::max_element(load.begin(), load.end());
      const int target =
          std::min(options_.max_nodes, planner.NodesFor(peak).value());
      if (target != run.nodes()) {
        scale_in_votes = 0;
        PSTORE_TRACE(run.tracer(), ::pstore::obs::TraceCategory::kSim,
                     run.TsAt(t), "sim.action",
                     .With("kind", "reactive_fallback").With("target", target));
        run.StartMove(target, planner.MoveSlots(NodeCount(run.nodes()),
                                                NodeCount(target)));
      }
      return;
    }
    const Move* first = plan->FirstReconfiguration();
    if (first == nullptr || first->start_slot > TimeStep(0)) {
      if (first == nullptr || first->nodes_after >= first->nodes_before) {
        scale_in_votes = 0;
      }
      return;
    }
    if (first->nodes_after < first->nodes_before) {
      if (++scale_in_votes < options_.scale_in_confirm_cycles) return;
    }
    scale_in_votes = 0;
    PSTORE_TRACE(run.tracer(), ::pstore::obs::TraceCategory::kSim, run.TsAt(t),
                 "sim.action",
                 .With("kind", "start_move")
                     .With("target", first->nodes_after.value()));
    run.StartMove(first->nodes_after.value(),
                  planner.MoveSlots(first->nodes_before, first->nodes_after));
  };
  return run.Execute(decide);
}

StatusOr<SimResult> CapacitySimulator::RunReactive(
    const TimeSeries& fine_trace, const ReactiveSimParams& params) const {
  if (fine_trace.size() <= options_.eval_begin) {
    return Status::InvalidArgument("trace shorter than eval_begin");
  }
  Run run(options_, fine_trace, tracer_);
  DpPlanner planner(run.plan_params());
  planner.set_move_table(move_table_.get());
  int low_slots = 0;
  int overload_slots = 0;

  auto decide = [&](size_t t) {
    if (run.move_active()) return;
    const double load = fine_trace[t];
    const int nodes = run.nodes();
    if (load > params.high_watermark * options_.q_hat * nodes) {
      low_slots = 0;
      if (++overload_slots < params.detection_slots) return;
      overload_slots = 0;
      const int target = std::min(
          options_.max_nodes,
          std::max(nodes + 1,
                   static_cast<int>(std::ceil(
                       load * (1.0 + params.headroom) / options_.q))));
      // Already at max_nodes: nothing to add, so ride out the overload
      // (its slots count as insufficient) instead of a no-op move.
      if (target == nodes) return;
      run.StartMove(target,
                    planner.MoveSlots(NodeCount(nodes), NodeCount(target)));
    } else if (nodes > 1 &&
               load < params.low_watermark * options_.q * (nodes - 1)) {
      overload_slots = 0;
      if (++low_slots >= params.low_slots_required) {
        low_slots = 0;
        run.StartMove(nodes - 1, planner.MoveSlots(NodeCount(nodes),
                                                   NodeCount(nodes - 1)));
      }
    } else {
      low_slots = 0;
      overload_slots = 0;
    }
  };
  return run.Execute(decide);
}

StatusOr<SimResult> CapacitySimulator::RunSimple(
    const TimeSeries& fine_trace, const SimpleSimParams& params) const {
  if (fine_trace.size() <= options_.eval_begin) {
    return Status::InvalidArgument("trace shorter than eval_begin");
  }
  Run run(options_, fine_trace, tracer_);
  DpPlanner planner(run.plan_params());
  planner.set_move_table(move_table_.get());

  auto decide = [&](size_t t) {
    if (run.move_active()) return;
    const int slot_of_day = static_cast<int>(t % params.slots_per_day);
    const bool daytime =
        slot_of_day >= params.up_slot && slot_of_day < params.down_slot;
    const int desired = daytime ? params.day_nodes : params.night_nodes;
    if (desired != run.nodes()) {
      run.StartMove(desired, planner.MoveSlots(NodeCount(run.nodes()),
                                               NodeCount(desired)));
    }
  };
  return run.Execute(decide);
}

StatusOr<SimResult> CapacitySimulator::RunStatic(
    const TimeSeries& fine_trace, int nodes) const {
  if (fine_trace.size() <= options_.eval_begin) {
    return Status::InvalidArgument("trace shorter than eval_begin");
  }
  if (nodes < 1) return Status::InvalidArgument("nodes must be >= 1");
  SimOptions fixed = options_;
  fixed.initial_nodes = nodes;
  CapacitySimulator sim(fixed);
  Run run(sim.options_, fine_trace, tracer_);
  return run.Execute([](size_t) {});
}

}  // namespace pstore
