// pstore_plan: offline capacity planning from a load trace. Fits a
// predictor on the head of the trace, forecasts from a chosen "now",
// runs the P-Store dynamic program, and prints the move plan plus the
// first move's migration schedule.
//
// Usage:
//   pstore_plan --trace=trace.csv --q=3600 --qhat=4400 --d-minutes=77
//               --partitions=6 --nodes=3 [--model=spar|hw|ar]
//               [--train-days=28] [--horizon-hours=4] [--inflation=1.15]
//               [--save-model=m.spar] [--load-model=m.spar]
//
// --save-model persists the fitted SPAR coefficients; --load-model skips
// fitting and serves a previously saved model (§6's offline-training
// workflow).
//
// Units: the trace is per-slot load (e.g. requests/minute); --q/--qhat
// are per-machine capacities in the same per-slot units.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/time_series.h"
#include "planner/dp_planner.h"
#include "planner/migration_schedule.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "prediction/ar_model.h"
#include "prediction/holt_winters.h"
#include "prediction/spar_model.h"
#include "trace/trace_io.h"

using namespace pstore;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  const Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Fail(parsed.ToString());

  const std::string trace_path = flags.GetString("trace", "");
  const StatusOr<double> q = flags.GetDouble("q", 3600.0);
  const StatusOr<double> qhat = flags.GetDouble("qhat", 4400.0);
  const StatusOr<double> d_minutes = flags.GetDouble("d-minutes", 77.0);
  const StatusOr<int64_t> partitions = flags.GetInt("partitions", 6);
  const StatusOr<int64_t> nodes = flags.GetInt("nodes", 3);
  const StatusOr<int64_t> train_days = flags.GetInt("train-days", 28);
  const StatusOr<int64_t> horizon_hours = flags.GetInt("horizon-hours", 4);
  const StatusOr<double> inflation = flags.GetDouble("inflation", 1.15);
  const std::string model_name = flags.GetString("model", "spar");
  const std::string load_model = flags.GetString("load-model", "");
  const std::string save_model = flags.GetString("save-model", "");
  const Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) return Fail(all_read.message());
  for (const Status& status :
       {q.status(), qhat.status(), d_minutes.status(), partitions.status(),
        nodes.status(), train_days.status(), horizon_hours.status(),
        inflation.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }
  if (trace_path.empty()) {
    return Fail("--trace=<csv> is required (see pstore_tracegen)");
  }
  StatusOr<TimeSeries> trace = LoadTraceCsv(trace_path);
  if (!trace.ok()) return Fail(trace.status().ToString());

  const double slot_seconds = trace->slot_seconds();
  const size_t slots_per_day =
      static_cast<size_t>(86400.0 / slot_seconds + 0.5);
  const size_t train_slots = *train_days * slots_per_day;
  const size_t horizon =
      static_cast<size_t>(*horizon_hours * 3600.0 / slot_seconds + 0.5);
  if (train_slots + horizon >= trace->size()) {
    return Fail("trace too short for --train-days + --horizon-hours");
  }

  // Fit the requested model on the training head (or load a saved one).
  std::unique_ptr<LoadPredictor> model;
  if (!load_model.empty()) {
    StatusOr<SparPredictor> loaded = SparPredictor::LoadFromFile(load_model);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    model = std::make_unique<SparPredictor>(std::move(*loaded));
  } else if (model_name == "spar") {
    SparOptions options;
    options.period = slots_per_day;
    options.num_periods = std::min<size_t>(7, *train_days - 1);
    options.num_recent = 30;
    options.max_tau = horizon;
    options.tau_stride = std::max<size_t>(1, horizon / 48);
    model = std::make_unique<SparPredictor>(options);
  } else if (model_name == "hw") {
    HoltWintersOptions options;
    options.period = slots_per_day;
    model = std::make_unique<HoltWintersPredictor>(options);
  } else if (model_name == "ar") {
    ArOptions options;
    options.order = 30;
    model = std::make_unique<ArPredictor>(options);
  } else {
    return Fail("unknown --model (want spar, hw, or ar): " + model_name);
  }
  if (load_model.empty()) {
    const Status fit = model->Fit(trace->Slice(0, train_slots));
    if (!fit.ok()) {
      return Fail(model_name + " fit failed: " + fit.ToString());
    }
  }
  if (!save_model.empty()) {
    auto* spar_model = dynamic_cast<SparPredictor*>(model.get());
    if (spar_model == nullptr) {
      return Fail("--save-model currently supports --model=spar only");
    }
    const Status saved = spar_model->SaveToFile(save_model);
    if (!saved.ok()) return Fail(saved.ToString());
    std::printf("saved model to %s\n", save_model.c_str());
  }

  // Forecast from "now" = end of the training window.
  const TimeSeries history = trace->Slice(0, train_slots);
  StatusOr<std::vector<double>> forecast =
      model->PredictHorizon(history, horizon);
  if (!forecast.ok()) return Fail(forecast.status().ToString());

  // Planning slots of 5 trace slots each, conservative max within each.
  const int plan_factor = 5;
  std::vector<double> load;
  load.push_back(history[history.size() - 1]);
  for (size_t slot = 0; slot + plan_factor <= forecast->size();
       slot += plan_factor) {
    double peak = 0.0;
    for (int j = 0; j < plan_factor; ++j) {
      peak = std::max(peak, (*forecast)[slot + j] * *inflation);
    }
    load.push_back(peak);
  }

  PlannerParams params;
  params.target_rate_per_node = *q;
  params.max_rate_per_node = *qhat;
  params.d_slots = *d_minutes * 60.0 / (slot_seconds * plan_factor);
  params.partitions_per_node = static_cast<int>(*partitions);
  const DpPlanner planner(params);

  std::printf("Trace: %s (%zu slots of %.0fs). Now = slot %zu. Model: %s. "
              "Horizon: %zuh. Q=%.0f Qhat=%.0f D=%.0fmin P=%lld N0=%lld\n\n",
              trace_path.c_str(), trace->size(), slot_seconds, train_slots,
              model->name().c_str(), static_cast<size_t>(*horizon_hours), *q,
              *qhat, *d_minutes, static_cast<long long>(*partitions),
              static_cast<long long>(*nodes));

  StatusOr<PlanResult> plan =
      planner.BestMoves(load, NodeCount(static_cast<int>(*nodes)));
  if (!plan.ok()) {
    const double peak = *std::max_element(load.begin(), load.end());
    std::printf("NO FEASIBLE PLAN (%s).\n", plan.status().ToString().c_str());
    std::printf("Reactive fallback would scale straight to %d machines for "
                "the predicted peak of %.0f.\n",
                planner.NodesFor(peak).value(), peak);
    return 2;
  }

  std::printf("Plan (planning slots of %.0f s, cost %.1f machine-slots):\n",
              slot_seconds * plan_factor, plan->total_cost);
  for (const Move& move : plan->Condensed()) {
    std::printf("  %s\n", move.ToString().c_str());
  }
  const Move* first = plan->FirstReconfiguration();
  if (first == nullptr) {
    std::printf("\nNo reconfiguration needed within the horizon.\n");
    return 0;
  }
  StatusOr<MigrationSchedule> schedule =
      BuildMigrationSchedule(first->nodes_before, first->nodes_after);
  if (schedule.ok()) {
    std::printf("\nFirst move expands to:\n%s",
                schedule->ToString().c_str());
  }
  return 0;
}
