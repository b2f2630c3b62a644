// Capacity planner: a what-if tool on the long-horizon simulator. Feeds
// weeks of (synthetic) load to each allocation strategy and reports the
// machine-hours bill and the % of time capacity would have been
// insufficient — the Fig. 12 analysis as a CLI.
//
// Build & run:  ./build/examples/capacity_planner [weeks] [Q]

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/status.h"
#include "common/time_series.h"
#include "prediction/naive_models.h"
#include "prediction/spar_model.h"
#include "sim/capacity_simulator.h"
#include "trace/b2w_trace_generator.h"

using namespace pstore;

int main(int argc, char** argv) {
  const int weeks = argc > 1 ? std::atoi(argv[1]) : 8;
  const double q = argc > 2 ? std::atof(argv[2]) : 285.0;
  const int days = weeks * 7;
  const int train_days = 28;
  if (days <= train_days) {
    std::printf("need more than %d days (got %d)\n", train_days, days);
    return 1;
  }

  B2wTraceOptions trace_options;
  trace_options.days = days;
  trace_options.peak_requests_per_min = 9000.0;
  trace_options.black_friday_day = days - 7;  // a surprise near the end
  trace_options.seed = 9;
  const TimeSeries trace = GenerateB2wTrace(trace_options).Scaled(10.0 / 60.0);
  const TimeSeries coarse = trace.DownsampleMean(5);

  SimOptions options;
  options.q = q;
  options.q_hat = 350.0;
  options.d_fine_slots = 77.0;
  options.partitions_per_node = 6;
  options.initial_nodes = 4;
  options.max_nodes = 60;
  options.eval_begin = static_cast<size_t>(train_days) * 1440;
  const CapacitySimulator sim(options);

  SparOptions spar_options;
  spar_options.period = 288;
  spar_options.num_periods = 7;
  spar_options.num_recent = 6;
  spar_options.max_tau = options.horizon_plan_slots;
  SparPredictor spar(spar_options);
  PSTORE_CHECK_OK(spar.Fit(coarse.Slice(0, train_days * 288)));

  const double eval_minutes =
      static_cast<double>(trace.size() - options.eval_begin);
  std::printf("Simulating %d weeks of load (Q = %.0f, Q-hat = %.0f, "
              "D = 77 min, Black Friday in the last week)\n\n",
              weeks, options.q, options.q_hat);
  std::printf("%-18s %16s %14s %10s\n", "strategy", "machine-hours",
              "insufficient %", "reconfigs");

  auto report = [&](const char* name, const StatusOr<SimResult>& result) {
    PSTORE_CHECK_OK(result.status());
    std::printf("%-18s %16.0f %14.3f %10d\n", name,
                result->machine_slots / 60.0,
                100.0 * result->insufficient_fraction,
                result->reconfigurations);
    (void)eval_minutes;
  };

  report("P-Store (SPAR)", sim.RunPredictive(trace, spar));
  OraclePredictor oracle(coarse);
  SimOptions oracle_options = options;
  oracle_options.inflation = 1.0;
  report("P-Store (Oracle)",
         CapacitySimulator(oracle_options).RunPredictive(trace, oracle));
  report("Reactive", sim.RunReactive(trace, ReactiveSimParams{}));
  SimpleSimParams simple;
  report("Simple (3..10)", sim.RunSimple(trace, simple));
  report("Static-10", sim.RunStatic(trace, 10));
  report("Static-6", sim.RunStatic(trace, 6));

  std::printf(
      "\nReading: pick the row with acceptable 'insufficient %%' and the "
      "lowest bill. Vary Q (arg 2) to trade cost against headroom.\n");
  return 0;
}
