// Quickstart: the P-Store pipeline in ~100 lines.
//
//   1. Obtain an aggregate load history (here: a synthetic B2W-like
//      trace; in production, your DBMS's request counters).
//   2. Fit the SPAR time-series model on a few weeks of history.
//   3. Forecast the next few hours.
//   4. Run the dynamic-programming planner to get the cheapest feasible
//      sequence of reconfigurations.
//   5. Expand the first move into a round-by-round migration schedule.
//
// Build & run:  ./build/examples/quickstart

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/status.h"
#include "common/strong_id.h"
#include "common/time_series.h"
#include "planner/dp_planner.h"
#include "planner/migration_schedule.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "prediction/spar_model.h"
#include "trace/b2w_trace_generator.h"

using namespace pstore;

int main() {
  // 1. Thirty days of per-minute load (requests/minute).
  B2wTraceOptions trace_options;
  trace_options.days = 30;
  trace_options.seed = 1;
  const TimeSeries trace = GenerateB2wTrace(trace_options);
  std::printf("History: %zu minutes of load, peak %.0f req/min\n",
              trace.size(), trace.Max());

  // 2. Fit SPAR on the first 28 days: n = 7 daily periods, the last 30
  //    minutes as the transient signal, forecasts up to 4 hours out.
  SparOptions spar_options;
  spar_options.period = 1440;
  spar_options.num_periods = 7;
  spar_options.num_recent = 30;
  spar_options.max_tau = 240;
  spar_options.tau_stride = 5;
  SparPredictor spar(spar_options);
  const Status fit = spar.Fit(trace.Slice(0, 28 * 1440));
  if (!fit.ok()) {
    std::printf("SPAR fit failed: %s\n", fit.ToString().c_str());
    return 1;
  }

  // 3. Forecast the next 4 hours from "now" (end of day 28), planning
  //    on 5-minute slots. Predictions are inflated 15% for headroom.
  const TimeSeries history = trace.Slice(0, 28 * 1440 + 6 * 60);
  StatusOr<std::vector<double>> forecast = spar.PredictHorizon(history, 240);
  if (!forecast.ok()) {
    std::printf("forecast failed: %s\n", forecast.status().ToString().c_str());
    return 1;
  }

  // Convert to planning slots (max within each 5-minute window) with the
  // current measured load as slot 0.
  std::vector<double> load;
  load.push_back(history[history.size() - 1]);
  for (size_t slot = 0; slot < 48; ++slot) {
    double peak = 0.0;
    for (size_t j = 0; j < 5; ++j) {
      peak = std::max(peak, (*forecast)[slot * 5 + j] * 1.15);
    }
    load.push_back(peak);
  }

  // 4. Plan. Q is each server's target req/min rate; D is how long one
  //    sender-receiver pair would need to move the whole database,
  //    expressed in 5-minute planning slots (77 min => 15.4 slots).
  PlannerParams params;
  params.target_rate_per_node = 3600.0;  // req/min per server
  params.max_rate_per_node = 4400.0;
  params.d_slots = 15.4;
  params.partitions_per_node = 6;
  const DpPlanner planner(params);
  const NodeCount current_nodes(3);
  StatusOr<PlanResult> plan = planner.BestMoves(load, current_nodes);
  if (!plan.ok()) {
    std::printf("no feasible plan: %s (a reactive scale-out would kick "
                "in here)\n",
                plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\nPlanned moves over the next 4 hours (5-min slots), cost "
              "%.1f machine-slots:\n",
              plan->total_cost);
  for (const Move& move : plan->Condensed()) {
    std::printf("  %s\n", move.ToString().c_str());
  }

  // 5. Expand the first reconfiguration into its migration schedule.
  const Move* first = plan->FirstReconfiguration();
  if (first == nullptr) {
    std::printf("\nNo reconfiguration needed within the horizon.\n");
    return 0;
  }
  StatusOr<MigrationSchedule> schedule =
      BuildMigrationSchedule(first->nodes_before, first->nodes_after);
  if (schedule.ok()) {
    std::printf("\nFirst move %d -> %d expands to:\n%s",
                first->nodes_before.value(), first->nodes_after.value(),
                schedule->ToString().c_str());
  }
  return 0;
}
