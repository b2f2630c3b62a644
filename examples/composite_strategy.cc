// Composite strategy demo (paper §1): "a combination of complementary
// techniques: (i) predictive provisioning ... (ii) reactive provisioning
// to react in real time to unpredictable load spikes; and (iii) manual
// provisioning for rare one-off, but expected, load spikes". This
// example runs all three — plus the skew-management extension — in one
// compressed day:
//
//   * P-Store's SPAR + DP planner handles the ordinary diurnal cycle,
//     with the inflation buffer auto-calibrated from residuals;
//   * an operator-registered calendar event (a planned 17:00 promotion)
//     is provisioned for in advance even though history knows nothing
//     about it;
//   * an *unplanned* flash crowd at 21:00 exercises the reactive
//     fallback (boosted R x 8 migration);
//   * the hot-spot balancer keeps partitions even under mild key skew
//     injected via the workload.
//
// Build & run:  ./build/examples/composite_strategy

#include <algorithm>
#include <cstdio>
#include <memory>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/time_series.h"
#include "controller/load_balancer.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "migration/squall_migrator.h"
#include "prediction/online_predictor.h"
#include "prediction/spar_model.h"
#include "trace/b2w_trace_generator.h"
#include "trace/spike_injector.h"

using namespace pstore;

int main() {
  const int training_days = 28;

  // Organic load (what history and SPAR know about).
  B2wTraceOptions trace_options;
  trace_options.days = training_days + 1;
  trace_options.peak_requests_per_min = 9000.0;
  trace_options.seed = 42;
  const TimeSeries organic =
      GenerateB2wTrace(trace_options).Scaled(10.0 / 60.0);

  // What actually happens on the replayed day: the planned 17:00
  // promotion (+60% for 2 trace-hours) AND an unplanned 21:00 flash
  // crowd (x2 for ~1.5 trace-hours).
  SpikeOptions promo;
  promo.start_slot = training_days * 1440 + 17 * 60;
  promo.ramp_slots = 10;
  promo.sustain_slots = 110;
  promo.decay_slots = 30;
  promo.magnitude = 1.6;
  SpikeOptions flash;
  flash.start_slot = training_days * 1440 + 21 * 60;
  flash.ramp_slots = 10;
  flash.sustain_slots = 60;
  flash.decay_slots = 60;
  flash.magnitude = 2.0;
  const TimeSeries actual = InjectSpike(InjectSpike(organic, promo), flash);

  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 16;
  cluster_options.initial_nodes = 3;
  cluster_options.num_buckets = 3600;
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));

  EventLoop loop;
  MigrationOptions migration_options;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);
  metrics.RecordMachines(0, cluster.active_nodes());

  // (i) Predictive: SPAR warmed on four weeks, auto-calibrated buffer.
  SparOptions spar_options;
  spar_options.period = 1440;
  spar_options.num_periods = 7;
  spar_options.num_recent = 30;
  spar_options.max_tau = 240;
  spar_options.tau_stride = 5;
  OnlinePredictorOptions online_options;
  online_options.training_window = training_days * 1440;
  online_options.refit_interval = 7 * 1440;
  online_options.auto_inflation = true;
  online_options.auto_inflation_quantile = 0.98;
  online_options.auto_inflation_tau = 60;
  OnlinePredictor predictor(std::make_unique<SparPredictor>(spar_options),
                            online_options);
  PSTORE_CHECK_OK(predictor.Warmup(organic.Slice(0, training_days * 1440)));
  std::printf("Auto-calibrated prediction buffer: %.1f%% (the paper "
              "hand-picks 15%%)\n",
              100.0 * (predictor.effective_inflation() - 1.0));

  // (iii) Manual: the operator registers the 17:00 promotion. Calendar
  // slots are absolute on the predictor's timeline.
  PSTORE_CHECK_OK(predictor.calendar().AddEvent(
      {"planned 17:00 promo", promo.start_slot,
       promo.start_slot + promo.ramp_slots + promo.sustain_slots +
           promo.decay_slots,
       promo.magnitude}));

  PredictiveControllerOptions controller_options;
  controller_options.slot_sim_seconds = 6.0;
  controller_options.plan_slot_factor = 5;
  controller_options.horizon_plan_slots = 48;
  // (ii) Reactive fallback at the boosted rate when predictions miss.
  controller_options.fast_reactive_fallback = true;
  controller_options.planner_params.target_rate_per_node = 285.0;
  controller_options.planner_params.max_rate_per_node = 350.0;
  controller_options.planner_params.partitions_per_node = 6;
  controller_options.planner_params.d_slots =
      SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                       migration_options) /
      30.0;
  PredictiveController controller(&loop, &cluster, &executor, &migration,
                                  &predictor, controller_options);
  controller.Start();

  // (extension) Hot-spot balancer.
  LoadBalancerOptions balancer_options;
  balancer_options.slot_sim_seconds = 6.0;
  balancer_options.sample_slots = 10;
  HotSpotBalancer balancer(&loop, &cluster, &migration, balancer_options);
  balancer.Start();

  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;
  driver_options.rate_factor = 1.0;
  driver_options.start_slot = training_days * 1440;
  WorkloadDriver driver(
      &loop, &executor, actual,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);
  const SimTime end = FromSeconds(1440 * 6.0);
  driver.Start(end);

  std::printf("\n%10s %10s %10s %10s\n", "trace hour", "txn/s", "machines",
              "worst p99");
  const SimTime hour = FromSeconds(360.0);
  for (SimTime t = hour; t <= end; t += hour) {
    loop.RunUntil(t);
    const auto windows = metrics.Finalize(t);
    double p99 = 0;
    int64_t completed = 0;
    for (size_t w = windows.size() - 360; w < windows.size(); ++w) {
      p99 = std::max(p99, windows[w].p99_ms);
      completed += windows[w].completed;
    }
    std::printf("%10lld %10.0f %10d %10.0f%s\n",
                static_cast<long long>(t / hour), completed / 360.0,
                windows.back().machines, p99,
                t / hour == 18 ? "   <- planned promo (calendar)"
                : t / hour == 22 ? "   <- unplanned flash crowd (fallback)"
                                 : "");
  }

  const auto windows = metrics.Finalize(end);
  const SlaViolations violations = MetricsCollector::CountViolations(windows);
  std::printf(
      "\nComposite day: violations p50=%lld p95=%lld p99=%lld; avg "
      "machines %.2f; %lld reconfigurations; %lld infeasible plans "
      "(reactive fallbacks); %lld buckets rebalanced.\n",
      static_cast<long long>(violations.p50),
      static_cast<long long>(violations.p95),
      static_cast<long long>(violations.p99), metrics.AverageMachines(end),
      static_cast<long long>(migration.reconfigurations_completed()),
      static_cast<long long>(controller.infeasible_plans()),
      static_cast<long long>(balancer.buckets_moved()));
  std::printf(
      "The planned promotion is absorbed without violations (capacity "
      "was up before 17:00); the unplanned crowd costs a short burst "
      "until the boosted fallback catches up — the paper's composite "
      "strategy in action.\n");
  return 0;
}
