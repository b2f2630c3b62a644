#include "sim/capacity_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/time_series.h"
#include "planner/dp_planner.h"
#include "planner/move_model.h"
#include "prediction/naive_models.h"
#include "prediction/predictor.h"
#include "prediction/spar_model.h"
#include "sim/run_spec.h"
#include "trace/b2w_trace_generator.h"

namespace pstore {
namespace {

// A 10-day trace in txn/s units (scaled from the req/min generator so
// q = 285 / q_hat = 350 match a handful of nodes).
TimeSeries TestTrace(int days, uint64_t seed = 11, int black_friday = -1) {
  B2wTraceOptions options;
  options.days = days;
  options.seed = seed;
  options.peak_requests_per_min = 10500.0;  // ~1750 txn/s at 10x replay
  options.black_friday_day = black_friday;
  // req/min -> txn/s at the paper's 10x acceleration.
  return GenerateB2wTrace(options).Scaled(10.0 / 60.0);
}

SimOptions TestOptions(size_t eval_begin_days) {
  SimOptions options;
  options.plan_slot_factor = 5;
  options.horizon_plan_slots = 36;
  options.q = 285.0;
  options.q_hat = 350.0;
  options.d_fine_slots = 77.0;
  options.partitions_per_node = 6;
  options.initial_nodes = 4;
  options.max_nodes = 40;
  options.eval_begin = eval_begin_days * 1440;
  return options;
}

TEST(CapacitySimTest, StaticPeakProvisioningHasFewViolationsHighCost) {
  const TimeSeries trace = TestTrace(9);
  const SimOptions options = TestOptions(7);
  const CapacitySimulator sim(options);
  StatusOr<SimResult> result = sim.RunStatic(trace, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reconfigurations, 0);
  EXPECT_LT(result->insufficient_fraction, 0.001);
  // Cost = 10 machines every slot.
  const double slots = static_cast<double>(trace.size() - options.eval_begin);
  EXPECT_NEAR(result->machine_slots, 10.0 * slots, 1e-6);
}

TEST(CapacitySimTest, StaticUnderProvisioningViolatesDaily) {
  const TimeSeries trace = TestTrace(9);
  const CapacitySimulator sim(TestOptions(7));
  StatusOr<SimResult> result = sim.RunStatic(trace, 4);
  ASSERT_TRUE(result.ok());
  // 4 * 350 = 1400 txn/s of capacity against ~1750 peaks: insufficient
  // around the top of every daily cycle.
  EXPECT_GT(result->insufficient_fraction, 0.02);
}

TEST(CapacitySimTest, OraclePredictiveNearZeroViolationsAtHalfCost) {
  const TimeSeries trace = TestTrace(9);
  SimOptions options = TestOptions(7);
  options.inflation = 1.0;
  const CapacitySimulator sim(options);
  const TimeSeries coarse = trace.DownsampleMean(5);
  OraclePredictor oracle(coarse);
  StatusOr<SimResult> result = sim.RunPredictive(trace, oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->reconfigurations, 2);
  // Violations come only from sub-planning-slot variance (paper §8.3:
  // "the percentage of time with insufficient capacity is not zero
  // because the predictions are at the granularity of five minutes").
  EXPECT_LT(result->insufficient_fraction, 0.02);

  StatusOr<SimResult> static10 = sim.RunStatic(trace, 10);
  ASSERT_TRUE(static10.ok());
  EXPECT_LT(result->machine_slots, 0.75 * static10->machine_slots);
}

TEST(CapacitySimTest, ReactiveCheaperButMoreViolationsThanStaticPeak) {
  const TimeSeries trace = TestTrace(9);
  const CapacitySimulator sim(TestOptions(7));
  StatusOr<SimResult> reactive = sim.RunReactive(trace, ReactiveSimParams{});
  StatusOr<SimResult> static10 = sim.RunStatic(trace, 10);
  ASSERT_TRUE(reactive.ok());
  ASSERT_TRUE(static10.ok());
  EXPECT_LT(reactive->machine_slots, static10->machine_slots);
  EXPECT_GT(reactive->insufficient_fraction,
            static10->insufficient_fraction);
  EXPECT_GT(reactive->reconfigurations, 2);
}

TEST(CapacitySimTest, PredictiveBeatsReactiveOnViolationsAtSimilarCost) {
  // The headline comparison of Fig. 12, on the simulator.
  const TimeSeries trace = TestTrace(16);
  SimOptions options = TestOptions(14);
  const CapacitySimulator sim(options);

  const TimeSeries coarse = trace.DownsampleMean(5);
  SparOptions spar_options;
  spar_options.period = 1440 / 5;
  spar_options.num_periods = 7;
  spar_options.num_recent = 6;
  spar_options.max_tau = options.horizon_plan_slots;
  SparPredictor spar(spar_options);
  ASSERT_TRUE(spar.Fit(coarse.Slice(0, 14 * 288)).ok());

  StatusOr<SimResult> predictive = sim.RunPredictive(trace, spar);
  StatusOr<SimResult> reactive = sim.RunReactive(trace, ReactiveSimParams{});
  ASSERT_TRUE(predictive.ok());
  ASSERT_TRUE(reactive.ok());
  EXPECT_LT(predictive->insufficient_fraction,
            reactive->insufficient_fraction);
  // And the cost advantage over peak provisioning holds.
  StatusOr<SimResult> static10 = sim.RunStatic(trace, 10);
  ASSERT_TRUE(static10.ok());
  EXPECT_LT(predictive->machine_slots, 0.8 * static10->machine_slots);
}

TEST(CapacitySimTest, SimpleStrategyBreaksOnDeviation) {
  // On a Black-Friday day the fixed schedule under-provisions badly.
  const TimeSeries normal = TestTrace(9, 11);
  const TimeSeries bf = TestTrace(9, 11, /*black_friday=*/8);
  const CapacitySimulator sim(TestOptions(7));
  SimpleSimParams params;
  params.day_nodes = 10;
  params.night_nodes = 3;
  StatusOr<SimResult> on_normal = sim.RunSimple(normal, params);
  StatusOr<SimResult> on_bf = sim.RunSimple(bf, params);
  ASSERT_TRUE(on_normal.ok());
  ASSERT_TRUE(on_bf.ok());
  EXPECT_GT(on_bf->insufficient_fraction,
            on_normal->insufficient_fraction * 2 + 0.001);
}

TEST(CapacitySimTest, SweepingQTradesCostForCapacity) {
  // The Fig. 12 x/y tradeoff: larger Q = fewer machines = cheaper but
  // more violations; smaller Q the reverse.
  const TimeSeries trace = TestTrace(9);
  const TimeSeries coarse = trace.DownsampleMean(5);
  OraclePredictor oracle(coarse);

  double prev_cost = 1e18;
  double prev_viol = -1.0;
  for (const double q : {200.0, 285.0, 340.0}) {
    SimOptions options = TestOptions(7);
    options.q = q;
    options.inflation = 1.0;
    const CapacitySimulator sim(options);
    StatusOr<SimResult> result = sim.RunPredictive(trace, oracle);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->machine_slots, prev_cost) << "q=" << q;
    EXPECT_GE(result->insufficient_fraction, prev_viol - 1e-9) << "q=" << q;
    prev_cost = result->machine_slots;
    prev_viol = result->insufficient_fraction;
  }
}

TEST(CapacitySimTest, FaultWindowsDegradeEffectiveCapacity) {
  const TimeSeries trace = TestTrace(9);
  SimOptions options = TestOptions(7);
  const StatusOr<SimResult> clean = CapacitySimulator(options).RunStatic(
      trace, 10);
  ASSERT_TRUE(clean.ok());
  ASSERT_LT(clean->insufficient_fraction, 0.001);
  EXPECT_EQ(clean->fault_slots, 0);
  EXPECT_EQ(clean->insufficient_during_fault_slots, 0);

  // Capacity cut to 40% for the whole first evaluated day: 10 * 350 *
  // 0.4 = 1400 txn/s against ~1750 txn/s peaks must go insufficient.
  CapacityFault fault;
  fault.begin_fine_slot = options.eval_begin;
  fault.end_fine_slot = options.eval_begin + 1440;
  fault.capacity_multiplier = 0.4;
  options.faults.push_back(fault);
  const StatusOr<SimResult> faulted = CapacitySimulator(options).RunStatic(
      trace, 10);
  ASSERT_TRUE(faulted.ok());
  EXPECT_EQ(faulted->fault_slots, 1440);
  EXPECT_GT(faulted->insufficient_during_fault_slots, 0);
  EXPECT_GT(faulted->insufficient_slots, clean->insufficient_slots);
  // All the extra insufficiency is inside the fault window, and the
  // non-fault remainder of the run is unchanged.
  EXPECT_EQ(faulted->insufficient_slots - faulted->insufficient_during_fault_slots,
            clean->insufficient_slots);
  EXPECT_EQ(faulted->machine_slots, clean->machine_slots);

  // Overlapping windows compound by taking the minimum multiplier, so
  // stacking a milder fault on top changes nothing.
  CapacityFault milder = fault;
  milder.capacity_multiplier = 0.9;
  options.faults.push_back(milder);
  const StatusOr<SimResult> stacked = CapacitySimulator(options).RunStatic(
      trace, 10);
  ASSERT_TRUE(stacked.ok());
  EXPECT_EQ(stacked->insufficient_slots, faulted->insufficient_slots);
  EXPECT_EQ(stacked->fault_slots, faulted->fault_slots);
}

TEST(CapacitySimTest, EffectiveCapacitySeriesCoversEvalWindow) {
  const TimeSeries trace = TestTrace(9);
  const SimOptions options = TestOptions(7);
  const CapacitySimulator sim(options);
  StatusOr<SimResult> result = sim.RunStatic(trace, 6);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->effective_capacity.size(),
            trace.size() - options.eval_begin);
  EXPECT_EQ(result->machines.size(), trace.size() - options.eval_begin);
  for (double cap : result->effective_capacity) {
    EXPECT_NEAR(cap, 6 * 350.0, 1e-9);
  }
}

TEST(CapacitySimTest, ReactiveAtMaxNodesRidesOutOverload) {
  // Regression: with the cluster already at max_nodes, an overload
  // clamped the scale-out target to the current size and the reactive
  // strategy CHECK-aborted starting a move to where it already was. It
  // must start no move and count the overloaded slots as insufficient.
  SimOptions options = TestOptions(0);
  options.initial_nodes = 4;
  options.max_nodes = 4;
  options.eval_begin = 10;
  const CapacitySimulator sim(options);
  const TimeSeries trace(60.0,
                         std::vector<double>(100, 2.0 * 4 * options.q_hat));
  StatusOr<SimResult> result = sim.RunReactive(trace, ReactiveSimParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reconfigurations, 0);
  EXPECT_EQ(result->insufficient_slots, 90);
  EXPECT_NEAR(result->machine_slots, 4.0 * 90, 1e-9);
}

TEST(CapacitySimTest, RejectsTraceShorterThanEvalBegin) {
  const CapacitySimulator sim(TestOptions(7));
  TimeSeries tiny(60.0, std::vector<double>(100, 1.0));
  EXPECT_FALSE(sim.RunStatic(tiny, 4).ok());
  EXPECT_FALSE(sim.RunReactive(tiny, ReactiveSimParams{}).ok());
}

// Records the history of every forecast RunPredictive asks for and
// whether it was exactly the coarse prefix of its length. Forecasts a
// flat `load`, so the one move the simulator makes is known up front.
class RecordingPredictor : public LoadPredictor {
 public:
  RecordingPredictor(TimeSeries coarse, double load)
      : coarse_(std::move(coarse)), load_(load) {}

  Status Fit(const TimeSeries& training) override {
    (void)training;
    return Status::OK();
  }
  StatusOr<double> PredictAhead(const TimeSeries& history,
                                size_t tau) const override {
    (void)history;
    (void)tau;
    return load_;
  }
  StatusOr<std::vector<double>> PredictHorizon(
      const TimeSeries& history, size_t horizon) const override {
    sizes_.push_back(history.size());
    bool prefix = history.slot_seconds() == coarse_.slot_seconds() &&
                  history.size() <= coarse_.size();
    for (size_t i = 0; prefix && i < history.size(); ++i) {
      prefix = history[i] == coarse_[i];
    }
    if (!prefix) ++non_prefixes_;
    return std::vector<double>(horizon, load_);
  }
  std::string name() const override { return "Recording"; }

  const std::vector<size_t>& sizes() const { return sizes_; }
  int non_prefixes() const { return non_prefixes_; }

 private:
  TimeSeries coarse_;
  double load_;
  mutable std::vector<size_t> sizes_;
  mutable int non_prefixes_ = 0;
};

TEST(CapacitySimTest, EveryForecastSeesTheCoarsePrefixUpToNow) {
  // Two days of light, varying load; evaluation starts on day 2.
  TimeSeries trace(60.0);
  for (size_t i = 0; i < 2 * 1440; ++i) {
    trace.Append(100.0 + static_cast<double>((i * 37) % 101));
  }
  SimOptions options = TestOptions(1);
  options.inflation = 1.0;
  options.partitions_per_node = 1;
  options.d_fine_slots = 5 * 77.0;
  const TimeSeries coarse = trace.DownsampleMean(5);
  // A flat 4.5 Q forecast needs a fifth machine, and no plan from 4
  // keeps up during the move, so the first cycle falls back to 4 -> 5
  // and the cycles inside that move are skipped. The cycle after it
  // must see the slots those skipped cycles did not add.
  RecordingPredictor predictor(coarse, 4.5 * options.q);
  const StatusOr<SimResult> result =
      CapacitySimulator(options).RunPredictive(trace, predictor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reconfigurations, 1);

  PlannerParams params;
  params.target_rate_per_node = options.q;
  params.d_slots = options.d_fine_slots / options.plan_slot_factor;
  params.partitions_per_node = options.partitions_per_node;
  const size_t move_slots = static_cast<size_t>(
      DpPlanner(params).MoveSlots(NodeCount(4), NodeCount(5)));
  ASSERT_GE(move_slots, 2u);
  // coarse_now + 1 at each cycle that forecasts: the first evaluated
  // slot, then from the end of the move up to the last plannable slot.
  const size_t first = options.eval_begin / 5;
  std::vector<size_t> expected = {first + 1};
  for (size_t now = first + move_slots; now + 1 < coarse.size(); ++now) {
    expected.push_back(now + 1);
  }
  EXPECT_EQ(predictor.sizes(), expected);
  EXPECT_EQ(predictor.non_prefixes(), 0);
}

// Pins the predictive simulator's output: a small seeded sweep whose
// CSV must match, byte for byte, the rows recorded before the planning
// loop was optimised. The specs cover SPAR built from a spec string,
// the oracle, the naive (instant-capacity) planner, and database
// growth with D refreshed (the planner recomputes every transition) and
// stale (it reads the simulator's MoveModelTable). The evaluated days
// end in a Black Friday surge, so the runs also take infeasible searches
// and the reactive fallback.
TEST(CapacitySimTest, PredictiveSweepMatchesPinnedRows) {
  WorkloadSpec workload;
  workload.kind = WorkloadSpec::Kind::kB2wSynthetic;
  workload.b2w.days = 5;
  workload.b2w.seed = 23;
  workload.b2w.black_friday_day = 4;
  workload.b2w.peak_requests_per_min = 10500.0;
  workload.scale = 10.0 / 60.0;
  const StatusOr<TimeSeries> trace = BuildWorkloadTrace(workload);
  PSTORE_CHECK_OK(trace.status());
  const OraclePredictor oracle(trace->DownsampleMean(5));

  SimOptions sim = TestOptions(3);
  sim.q_hat = 310.0;
  sim.partitions_per_node = 2;
  std::vector<RunSpec> specs;
  const auto add = [&](const std::string& label) -> RunSpec& {
    RunSpec spec;
    spec.label = label;
    spec.workload = workload;
    spec.sim = sim;
    spec.strategy = Strategy::kPredictive;
    spec.predictor_spec = "spar(n=2,m=6)";
    specs.push_back(spec);
    return specs.back();
  };
  add("spar");
  RunSpec& oracle_spec = add("oracle");
  oracle_spec.predictor = &oracle;
  oracle_spec.sim.inflation = 1.0;
  add("naive").sim.naive_capacity_planner = true;
  RunSpec& refresh = add("growth_refresh_d");
  refresh.sim.d_growth_per_day = 0.5;
  refresh.sim.refresh_d = true;
  RunSpec& stale = add("growth_stale_d");
  stale.sim.d_growth_per_day = 0.5;
  stale.sim.refresh_d = false;

  SweepOptions options;
  options.threads = 1;
  const StatusOr<SweepResult> sweep = RunSweep(specs, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(SweepCsvRows(specs, *sweep),
            "label,strategy,machine_slots,insufficient_slots,"
            "insufficient_fraction,insufficient_during_move_slots,move_slots,"
            "fault_slots,insufficient_during_fault_slots,reconfigurations\n"
            "spar,pstore,20093,457,0.15868055555555555,455,1035,0,0,143\n"
            "oracle,pstore,19854,2,0.00069444444444444447,0,415,0,0,53\n"
            "naive,pstore,20151,337,0.11701388888888889,335,915,0,0,134\n"
            "growth_refresh_d,pstore,20036,672,0.23333333333333334,670,1560,0,"
            "0,82\n"
            "growth_stale_d,pstore,20241,513,0.17812500000000001,457,1606,0,0,"
            "67\n");
}

}  // namespace
}  // namespace pstore
