#include "planner/dp_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "planner/brute_force_planner.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace {

PlannerParams FastParams() {
  PlannerParams params;
  params.target_rate_per_node = 100.0;
  params.max_rate_per_node = 123.0;
  params.d_slots = 4.0;
  params.partitions_per_node = 1;
  return params;
}

// Verifies the feasibility invariant the DP promises: walking the plan,
// predicted load never exceeds the effective capacity implied by each
// move's progress.
void CheckPlanFeasible(const PlanResult& plan,
                       const std::vector<double>& load,
                       const PlannerParams& params, int initial_nodes) {
  ASSERT_FALSE(plan.moves.empty());
  EXPECT_EQ(plan.moves.front().start_slot, TimeStep(0));
  EXPECT_EQ(plan.moves.front().nodes_before, NodeCount(initial_nodes));
  EXPECT_EQ(plan.moves.back().end_slot,
            TimeStep(static_cast<int>(load.size()) - 1));
  EXPECT_LE(load[0], Capacity(NodeCount(initial_nodes), params));
  TimeStep prev_end(0);
  NodeCount prev_nodes(initial_nodes);
  for (const Move& move : plan.moves) {
    EXPECT_EQ(move.start_slot, prev_end);
    EXPECT_EQ(move.nodes_before, prev_nodes);
    const int duration = move.DurationSlots();
    EXPECT_GE(duration, 1);
    for (int i = 1; i <= duration; ++i) {
      const double fraction =
          static_cast<double>(i) / static_cast<double>(duration);
      const double cap =
          params.assume_instant_capacity
              ? Capacity(move.nodes_after, params)
              : EffectiveCapacity(move.nodes_before, move.nodes_after,
                                  fraction, params);
      EXPECT_LE(load[static_cast<size_t>(move.start_slot.value() + i)],
                cap + 1e-9)
          << "slot " << move.start_slot + i << " during move "
          << move.ToString();
    }
    prev_end = move.end_slot;
    prev_nodes = move.nodes_after;
  }
  EXPECT_EQ(prev_nodes, plan.final_nodes);
}

TEST(DpPlannerTest, RejectsDegenerateInputs) {
  const DpPlanner planner(FastParams());
  EXPECT_FALSE(planner.BestMoves({100.0}, NodeCount(2)).ok());
  EXPECT_FALSE(planner.BestMoves({100.0, 100.0}, NodeCount(0)).ok());
}

TEST(DpPlannerTest, FlatLoadDoesNothing) {
  const DpPlanner planner(FastParams());
  const std::vector<double> load(10, 150.0);  // needs 2 nodes
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->final_nodes, NodeCount(2));
  EXPECT_EQ(plan->FirstReconfiguration(), nullptr);
  // Cost: 2 machines for 10 slots (slot 0 through 9).
  EXPECT_NEAR(plan->total_cost, 20.0, 1e-9);
}

TEST(DpPlannerTest, ScalesOutAheadOfRamp) {
  const DpPlanner planner(FastParams());
  // Load jumps from 150 to 350 at slot 8: needs 2 -> 4 nodes; the move
  // takes ceil((4/2)*(1 - 2/4)) = 4 slots, so it must start by slot 4.
  std::vector<double> load(12, 150.0);
  for (size_t t = 8; t < load.size(); ++t) load[t] = 350.0;
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  CheckPlanFeasible(*plan, load, FastParams(), 2);
  EXPECT_EQ(plan->final_nodes, NodeCount(4));
  const Move* first = plan->FirstReconfiguration();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->nodes_after, NodeCount(4));
  // Effective capacity during 2->4 reaches 350 only near the end of the
  // move, so the move must complete just as (or before) the ramp hits.
  EXPECT_LE(first->end_slot, TimeStep(8));
  // Cost minimization: the move should start as late as possible.
  EXPECT_GE(first->start_slot, TimeStep(3));
}

TEST(DpPlannerTest, ScaleInDelayedUntilLoadDrops) {
  const DpPlanner planner(FastParams());
  std::vector<double> load(12, 380.0);  // needs 4 nodes
  for (size_t t = 4; t < load.size(); ++t) load[t] = 90.0;  // needs 1
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(4));
  ASSERT_TRUE(plan.ok());
  CheckPlanFeasible(*plan, load, FastParams(), 4);
  EXPECT_EQ(plan->final_nodes, NodeCount(1));
  const Move* first = plan->FirstReconfiguration();
  ASSERT_NE(first, nullptr);
  EXPECT_LT(first->nodes_after, NodeCount(4));
  // Cannot start shedding capacity while load is still high.
  EXPECT_GE(first->start_slot, TimeStep(3));
}

TEST(DpPlannerTest, InfeasibleWhenRampTooFast) {
  const DpPlanner planner(FastParams());
  // Load explodes next slot; migration cannot complete in time.
  std::vector<double> load = {150.0, 800.0, 800.0, 800.0};
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInfeasible);
}

TEST(DpPlannerTest, InfeasibleWhenCurrentLoadExceedsCapacity) {
  const DpPlanner planner(FastParams());
  const std::vector<double> load(6, 500.0);
  EXPECT_FALSE(planner.BestMoves(load, NodeCount(2)).ok());
}

TEST(DpPlannerTest, EndsWithMinimalMachines) {
  const DpPlanner planner(FastParams());
  // A hump in the middle: scale out then back in; final count minimal.
  std::vector<double> load(24, 120.0);
  for (int t = 8; t < 12; ++t) load[t] = 290.0;
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  CheckPlanFeasible(*plan, load, FastParams(), 2);
  EXPECT_EQ(plan->final_nodes, NodeCount(2));
  // Somewhere mid-plan we must have had >= 3 nodes.
  int peak_nodes = 0;
  for (const Move& move : plan->moves) {
    peak_nodes = std::max(peak_nodes, move.nodes_after.value());
  }
  EXPECT_GE(peak_nodes, 3);
}

TEST(DpPlannerTest, NodesForRounding) {
  const DpPlanner planner(FastParams());
  EXPECT_EQ(planner.NodesFor(0.0), NodeCount(1));
  EXPECT_EQ(planner.NodesFor(99.9), NodeCount(1));
  EXPECT_EQ(planner.NodesFor(100.0), NodeCount(1));
  EXPECT_EQ(planner.NodesFor(100.1), NodeCount(2));
  EXPECT_EQ(planner.NodesFor(1000.0), NodeCount(10));
}

TEST(DpPlannerTest, MoveSlotsAtLeastOne) {
  const DpPlanner planner(FastParams());
  EXPECT_EQ(planner.MoveSlots(NodeCount(3), NodeCount(3)), 1);
  EXPECT_GE(planner.MoveSlots(NodeCount(3), NodeCount(4)), 1);
  // 3 -> 4 with D = 4: (4/1)*(1/4) = 1.0 slots -> 1.
  EXPECT_EQ(planner.MoveSlots(NodeCount(3), NodeCount(4)), 1);
  // 2 -> 4 with D = 4: (4/2)*(1/2) = 1.0 -> 1.
  EXPECT_EQ(planner.MoveSlots(NodeCount(2), NodeCount(4)), 1);
  // 1 -> 2 with D = 4: (4/1)*(1/2) = 2.
  EXPECT_EQ(planner.MoveSlots(NodeCount(1), NodeCount(2)), 2);
}

TEST(DpPlannerTest, ChargedCostCoversWholeSlots) {
  const DpPlanner planner(FastParams());
  // The charged cost must be at least Eq. 4's cost and at most the full
  // integral duration at the larger machine count.
  for (int b = 1; b <= 8; ++b) {
    for (int a = 1; a <= 8; ++a) {
      if (a == b) continue;
      const double charged = planner.MoveCostCharged(NodeCount(b), NodeCount(a));
      EXPECT_GE(charged, MoveCost(NodeCount(b), NodeCount(a), FastParams()) - 1e-9);
      EXPECT_LE(charged,
                planner.MoveSlots(NodeCount(b), NodeCount(a)) *
                        static_cast<double>(std::max(a, b)) +
                    1e-9);
    }
  }
}

// ---- Equivalence with exhaustive search -------------------------------------

struct BruteForceCase {
  uint64_t seed;
  int horizon;
  double base_load;
  double swing;
  int initial_nodes;
  // Plan as if new machines served at full capacity at once (the
  // naive-planner ablation) instead of by Eq. 7.
  bool instant_capacity = false;
};

class DpVersusBruteForce : public ::testing::TestWithParam<BruteForceCase> {};

TEST_P(DpVersusBruteForce, SameFinalNodesAndCost) {
  const BruteForceCase& test_case = GetParam();
  PlannerParams params = FastParams();
  params.d_slots = 3.0;
  params.assume_instant_capacity = test_case.instant_capacity;
  Rng rng(test_case.seed);
  std::vector<double> load;
  for (int t = 0; t <= test_case.horizon; ++t) {
    load.push_back(test_case.base_load +
                   test_case.swing * rng.NextDouble());
  }
  const DpPlanner dp(params);
  const BruteForcePlanner brute(params);
  StatusOr<PlanResult> dp_plan = dp.BestMoves(load, NodeCount(test_case.initial_nodes));
  StatusOr<PlanResult> bf_plan =
      brute.BestMoves(load, NodeCount(test_case.initial_nodes));
  ASSERT_EQ(dp_plan.ok(), bf_plan.ok());
  if (!dp_plan.ok()) return;
  EXPECT_EQ(dp_plan->final_nodes, bf_plan->final_nodes);
  EXPECT_NEAR(dp_plan->total_cost, bf_plan->total_cost, 1e-6);
  CheckPlanFeasible(*dp_plan, load, params, test_case.initial_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, DpVersusBruteForce,
    ::testing::Values(BruteForceCase{1, 6, 80, 200, 1},
                      BruteForceCase{2, 6, 80, 200, 2},
                      BruteForceCase{3, 7, 150, 150, 3},
                      BruteForceCase{4, 7, 50, 300, 1},
                      BruteForceCase{5, 8, 120, 120, 2},
                      BruteForceCase{6, 8, 200, 100, 4},
                      BruteForceCase{7, 5, 90, 250, 2},
                      BruteForceCase{8, 6, 60, 60, 1},
                      BruteForceCase{9, 7, 300, 80, 4},
                      BruteForceCase{10, 8, 100, 180, 3},
                      BruteForceCase{11, 6, 250, 140, 3},
                      BruteForceCase{12, 7, 70, 220, 1}));

// The same comparison with assume_instant_capacity: both planners then
// test each step of a move against Capacity(after) instead of Eq. 7.
// On every instance below the flag changes the optimum or makes an
// Eq. 7-infeasible load plannable, so a planner ignoring it disagrees.
INSTANTIATE_TEST_SUITE_P(
    InstantCapacity, DpVersusBruteForce,
    ::testing::Values(BruteForceCase{1, 6, 60, 300, 3, true},
                      BruteForceCase{2, 6, 40, 200, 1, true},
                      BruteForceCase{3, 6, 60, 150, 3, true},
                      BruteForceCase{13, 6, 40, 150, 2, true},
                      BruteForceCase{16, 8, 40, 150, 4, true},
                      BruteForceCase{27, 7, 40, 150, 1, true},
                      BruteForceCase{35, 7, 40, 150, 3, true},
                      BruteForceCase{37, 6, 60, 150, 1, true}));

// The planner must also agree with brute force on ramps that force
// multi-step scale-outs.
TEST(DpVersusBruteForceRamp, StepRamp) {
  PlannerParams params = FastParams();
  params.d_slots = 2.0;
  std::vector<double> load;
  for (int t = 0; t <= 8; ++t) {
    load.push_back(90.0 + 40.0 * t);  // 90 .. 410
  }
  const DpPlanner dp(params);
  const BruteForcePlanner brute(params);
  StatusOr<PlanResult> dp_plan = dp.BestMoves(load, NodeCount(1));
  StatusOr<PlanResult> bf_plan = brute.BestMoves(load, NodeCount(1));
  ASSERT_EQ(dp_plan.ok(), bf_plan.ok());
  if (dp_plan.ok()) {
    EXPECT_EQ(dp_plan->final_nodes, bf_plan->final_nodes);
    EXPECT_NEAR(dp_plan->total_cost, bf_plan->total_cost, 1e-6);
  }
}

// ---- Move-model table -------------------------------------------------------

// Plans must not change when the planner looks Eqs. 3-4 up in a
// precomputed table instead of recomputing them per transition.
TEST(DpPlannerTest, TableBackedPlansAreIdentical) {
  PlannerParams params = FastParams();
  params.d_slots = 4.0;
  const DpPlanner direct(params);
  DpPlanner table_backed(params);
  const MoveModelTable table(params, NodeCount(16));
  table_backed.set_move_table(&table);

  for (int before = 1; before <= 16; ++before) {
    for (int after = 1; after <= 16; ++after) {
      EXPECT_EQ(direct.MoveSlots(NodeCount(before), NodeCount(after)),
                table_backed.MoveSlots(NodeCount(before), NodeCount(after)));
      EXPECT_EQ(
          direct.MoveCostCharged(NodeCount(before), NodeCount(after)),
          table_backed.MoveCostCharged(NodeCount(before), NodeCount(after)));
    }
  }

  for (const uint64_t seed : {31u, 32u, 33u, 34u}) {
    Rng rng(seed);
    std::vector<double> load;
    for (int t = 0; t <= 30; ++t) {
      load.push_back(80.0 + 600.0 * rng.NextDouble());
    }
    StatusOr<PlanResult> a = direct.BestMoves(load, NodeCount(2));
    StatusOr<PlanResult> b = table_backed.BestMoves(load, NodeCount(2));
    ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed;
    if (!a.ok()) continue;
    EXPECT_EQ(a->moves, b->moves) << "seed " << seed;
    EXPECT_EQ(a->total_cost, b->total_cost) << "seed " << seed;
    EXPECT_EQ(a->final_nodes, b->final_nodes) << "seed " << seed;
  }
}

// A table smaller than the planner's reach: covered pairs come from the
// table, pairs beyond max_nodes fall back to direct computation.
TEST(DpPlannerTest, SmallTableFallsBackBeyondItsGrid) {
  PlannerParams params = FastParams();
  const DpPlanner direct(params);
  DpPlanner table_backed(params);
  const MoveModelTable table(params, NodeCount(3));
  table_backed.set_move_table(&table);
  for (int before = 1; before <= 8; ++before) {
    for (int after = 1; after <= 8; ++after) {
      EXPECT_EQ(direct.MoveSlots(NodeCount(before), NodeCount(after)),
                table_backed.MoveSlots(NodeCount(before), NodeCount(after)));
      EXPECT_EQ(
          direct.MoveCostCharged(NodeCount(before), NodeCount(after)),
          table_backed.MoveCostCharged(NodeCount(before), NodeCount(after)));
    }
  }
}

TEST(DpPlannerTest, CondensedMergesIdleStretches) {
  const DpPlanner planner(FastParams());
  std::vector<double> load(10, 150.0);
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  const std::vector<Move> condensed = plan->Condensed();
  ASSERT_EQ(condensed.size(), 1u);
  EXPECT_EQ(condensed[0].start_slot, TimeStep(0));
  EXPECT_EQ(condensed[0].end_slot, TimeStep(9));
  EXPECT_FALSE(condensed[0].IsReconfiguration());
}

TEST(DpPlannerTest, LargeHorizonRunsQuickly) {
  // Smoke test for the memoized DP at realistic scale: a 48-slot horizon
  // with a diurnal-like double ramp.
  PlannerParams params = FastParams();
  params.d_slots = 15.4;
  params.partitions_per_node = 6;
  const DpPlanner planner(params);
  std::vector<double> load;
  for (int t = 0; t <= 48; ++t) {
    load.push_back(150.0 + 800.0 * 0.5 *
                               (1.0 - std::cos(2.0 * M_PI * t / 48.0)));
  }
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  CheckPlanFeasible(*plan, load, params, 2);
  EXPECT_GE(plan->final_nodes, NodeCount(1));
}

}  // namespace
}  // namespace pstore
