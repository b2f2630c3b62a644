#include "planner/move_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/strong_id.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace {

// Int-accepting shims over the strongly-typed move-model API so the
// table-driven cases below stay terse. The third MaxParallelTransfers
// argument is the partitions-per-node count, as in Eq. 2.
int MaxParallelTransfers(int before, int after, int partitions) {
  PlannerParams params;
  params.partitions_per_node = partitions;
  return pstore::MaxParallelTransfers(NodeCount(before), NodeCount(after),
                                      params);
}

double MoveTime(int before, int after, const PlannerParams& params) {
  return pstore::MoveTime(NodeCount(before), NodeCount(after), params);
}

double Capacity(int nodes, const PlannerParams& params) {
  return pstore::Capacity(NodeCount(nodes), params);
}

double EffectiveCapacity(int before, int after, double fraction,
                         const PlannerParams& params) {
  return pstore::EffectiveCapacity(NodeCount(before), NodeCount(after),
                                   fraction, params);
}

double AvgMachinesAllocated(int before, int after) {
  return pstore::AvgMachinesAllocated(NodeCount(before), NodeCount(after));
}

int MachinesAllocatedAt(int before, int after, double f) {
  return pstore::MachinesAllocatedAt(NodeCount(before), NodeCount(after), f)
      .value();
}

double MoveCost(int before, int after, const PlannerParams& params) {
  return pstore::MoveCost(NodeCount(before), NodeCount(after), params);
}

PlannerParams UnitParams() {
  PlannerParams params;
  params.target_rate_per_node = 1.0;
  params.max_rate_per_node = 1.2;
  params.d_slots = 1.0;  // D = 1 for easy arithmetic
  params.partitions_per_node = 1;
  return params;
}

// ---- Eq. 2: max parallel transfers ------------------------------------------

TEST(MaxParallelTest, NoMoveNoTransfers) {
  EXPECT_EQ(MaxParallelTransfers(3, 3, 1), 0);
}

TEST(MaxParallelTest, ScaleOutSmallDelta) {
  // B < A, delta <= B: limited by the receivers.
  EXPECT_EQ(MaxParallelTransfers(3, 5, 1), 2);
}

TEST(MaxParallelTest, ScaleOutLargeDelta) {
  // Delta > B: limited by the senders.
  EXPECT_EQ(MaxParallelTransfers(3, 14, 1), 3);
}

TEST(MaxParallelTest, ScaleInMirrors) {
  EXPECT_EQ(MaxParallelTransfers(5, 3, 1), 2);
  EXPECT_EQ(MaxParallelTransfers(14, 3, 1), 3);
}

TEST(MaxParallelTest, PartitionsMultiply) {
  EXPECT_EQ(MaxParallelTransfers(3, 14, 6), 18);
}

// ---- Eq. 3: move time ---------------------------------------------------------

TEST(MoveTimeTest, PaperExamples) {
  // Fig. 4 examples with D = 1, P = 1.
  const PlannerParams params = UnitParams();
  // 3 -> 5: (D/2) * (1 - 3/5) = 0.2 D.
  EXPECT_NEAR(MoveTime(3, 5, params), 0.2, 1e-12);
  // 3 -> 9: (D/3) * (1 - 3/9) = 2/9 D.
  EXPECT_NEAR(MoveTime(3, 9, params), 2.0 / 9.0, 1e-12);
  // 3 -> 14: (D/3) * (1 - 3/14) = 11/42 D.
  EXPECT_NEAR(MoveTime(3, 14, params), 11.0 / 42.0, 1e-12);
}

TEST(MoveTimeTest, ZeroWhenNoChange) {
  EXPECT_EQ(MoveTime(4, 4, UnitParams()), 0.0);
}

TEST(MoveTimeTest, SymmetricInDirection) {
  const PlannerParams params = UnitParams();
  for (int a = 1; a <= 12; ++a) {
    for (int b = 1; b <= 12; ++b) {
      EXPECT_NEAR(MoveTime(a, b, params), MoveTime(b, a, params), 1e-12)
          << a << "<->" << b;
    }
  }
}

TEST(MoveTimeTest, MorePartitionsAreFaster) {
  PlannerParams params = UnitParams();
  const double p1 = MoveTime(3, 9, params);
  params.partitions_per_node = 6;
  EXPECT_NEAR(MoveTime(3, 9, params), p1 / 6.0, 1e-12);
}

// ---- Eq. 5 and Eq. 7: capacity -------------------------------------------------

TEST(CapacityTest, LinearInNodes) {
  PlannerParams params = UnitParams();
  params.target_rate_per_node = 285.0;
  EXPECT_EQ(Capacity(4, params), 1140.0);
  EXPECT_EQ(Capacity(0, params), 0.0);
}

TEST(EffectiveCapacityTest, EndpointsMatchStaticCapacity) {
  const PlannerParams params = UnitParams();
  for (int b = 1; b <= 10; ++b) {
    for (int a = 1; a <= 10; ++a) {
      EXPECT_NEAR(EffectiveCapacity(b, a, 0.0, params), Capacity(b, params),
                  1e-9)
          << b << "->" << a;
      EXPECT_NEAR(EffectiveCapacity(b, a, 1.0, params), Capacity(a, params),
                  1e-9)
          << b << "->" << a;
    }
  }
}

TEST(EffectiveCapacityTest, MonotoneDuringScaleOut) {
  const PlannerParams params = UnitParams();
  double prev = 0.0;
  for (double f = 0.0; f <= 1.0; f += 0.05) {
    const double cap = EffectiveCapacity(3, 14, f, params);
    EXPECT_GE(cap, prev);
    prev = cap;
  }
}

TEST(EffectiveCapacityTest, MonotoneDecreasingDuringScaleIn) {
  const PlannerParams params = UnitParams();
  double prev = 1e18;
  for (double f = 0.0; f <= 1.0; f += 0.05) {
    const double cap = EffectiveCapacity(14, 3, f, params);
    EXPECT_LE(cap, prev);
    prev = cap;
  }
}

TEST(EffectiveCapacityTest, HalfwayValueScaleOut) {
  // 2 -> 4, f = 0.5: share = 1/2 - 0.5*(1/2 - 1/4) = 3/8; eff-cap = 8/3 Q.
  const PlannerParams params = UnitParams();
  EXPECT_NEAR(EffectiveCapacity(2, 4, 0.5, params), 8.0 / 3.0, 1e-12);
}

TEST(EffectiveCapacityTest, BelowAllocatedMachineCountDuringBigMove) {
  // Fig. 4c's point: effective capacity lags the allocated machines.
  const PlannerParams params = UnitParams();
  const double f = 0.5;
  const double eff = EffectiveCapacity(3, 14, f, params);
  const int allocated = MachinesAllocatedAt(3, 14, f);
  EXPECT_LT(eff, Capacity(allocated, params));
}

// ---- Algorithm 4: average machines allocated --------------------------------

TEST(AvgMachinesTest, NoMove) {
  EXPECT_EQ(AvgMachinesAllocated(5, 5), 5.0);
}

TEST(AvgMachinesTest, CaseOneAllAtOnce) {
  // s >= delta: all machines allocated for the whole move.
  EXPECT_EQ(AvgMachinesAllocated(3, 5), 5.0);
  EXPECT_EQ(AvgMachinesAllocated(5, 3), 5.0);
  EXPECT_EQ(AvgMachinesAllocated(4, 8), 8.0);  // delta == s
}

TEST(AvgMachinesTest, CaseTwoMultiple) {
  // 3 -> 9: (2s + l)/2 = (6 + 9)/2 = 7.5.
  EXPECT_EQ(AvgMachinesAllocated(3, 9), 7.5);
  EXPECT_EQ(AvgMachinesAllocated(9, 3), 7.5);
}

TEST(AvgMachinesTest, CaseThreePaperExample) {
  // 3 -> 14 (Table 1): phases of 6+2+3 rounds with 7.5/12/14 machines:
  // (6*7.5 + 2*12 + 3*14)/11 = 111/11.
  EXPECT_NEAR(AvgMachinesAllocated(3, 14), 111.0 / 11.0, 1e-12);
  EXPECT_NEAR(AvgMachinesAllocated(14, 3), 111.0 / 11.0, 1e-12);
}

TEST(AvgMachinesTest, AlwaysBetweenSmallerAndLarger) {
  for (int b = 1; b <= 16; ++b) {
    for (int a = 1; a <= 16; ++a) {
      const double avg = AvgMachinesAllocated(b, a);
      EXPECT_GE(avg, std::min(a, b)) << b << "->" << a;
      EXPECT_LE(avg, std::max(a, b)) << b << "->" << a;
    }
  }
}

// Property: Algorithm 4 must equal the time-integral of the allocation
// profile MachinesAllocatedAt.
class AvgProfileConsistency
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AvgProfileConsistency, AverageMatchesProfileIntegral) {
  const auto [b, a] = GetParam();
  const int steps = 200000;
  double sum = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double f = (static_cast<double>(i) + 0.5) / steps;
    sum += MachinesAllocatedAt(b, a, f);
  }
  EXPECT_NEAR(sum / steps, AvgMachinesAllocated(b, a), 0.01)
      << b << "->" << a;
}

INSTANTIATE_TEST_SUITE_P(
    ManyShapes, AvgProfileConsistency,
    ::testing::Values(std::make_tuple(3, 5), std::make_tuple(3, 9),
                      std::make_tuple(3, 14), std::make_tuple(14, 3),
                      std::make_tuple(1, 2), std::make_tuple(2, 7),
                      std::make_tuple(4, 18), std::make_tuple(18, 4),
                      std::make_tuple(5, 6), std::make_tuple(10, 1),
                      std::make_tuple(7, 19), std::make_tuple(6, 13)));

TEST(MachinesAllocatedAtTest, ScaleOutStepsUpward) {
  int prev = 0;
  for (double f = 0.0; f < 1.0; f += 0.01) {
    const int m = MachinesAllocatedAt(3, 14, f);
    EXPECT_GE(m, prev);
    EXPECT_GE(m, 3);
    EXPECT_LE(m, 14);
    prev = m;
  }
}

TEST(MachinesAllocatedAtTest, ScaleInIsTimeReverseOfScaleOut) {
  for (double f = 0.005; f <= 1.0; f += 0.01) {
    EXPECT_EQ(MachinesAllocatedAt(14, 3, f),
              MachinesAllocatedAt(3, 14, 1.0 - f));
  }
}

TEST(MachinesAllocatedAtTest, CaseThreePhaseBoundaries) {
  // 3 -> 14: phase 1 = [0, 6/11) with 6 then 9 machines; phase 2 =
  // [6/11, 8/11) with 12; phase 3 = [8/11, 1) with 14.
  EXPECT_EQ(MachinesAllocatedAt(3, 14, 0.0), 6);
  EXPECT_EQ(MachinesAllocatedAt(3, 14, 0.26), 6);   // < 3/11
  EXPECT_EQ(MachinesAllocatedAt(3, 14, 0.30), 9);   // in [3/11, 6/11)
  EXPECT_EQ(MachinesAllocatedAt(3, 14, 0.60), 12);  // in [6/11, 8/11)
  EXPECT_EQ(MachinesAllocatedAt(3, 14, 0.80), 14);  // >= 8/11
}

// ---- Eq. 4: move cost -----------------------------------------------------------

TEST(MoveCostTest, ZeroForNoMove) {
  EXPECT_EQ(MoveCost(5, 5, UnitParams()), 0.0);
}

TEST(MoveCostTest, ProductOfTimeAndAverage) {
  const PlannerParams params = UnitParams();
  EXPECT_NEAR(MoveCost(3, 14, params), (11.0 / 42.0) * (111.0 / 11.0),
              1e-12);
}

TEST(MoveCostTest, ScalesWithD) {
  PlannerParams params = UnitParams();
  const double c1 = MoveCost(3, 9, params);
  params.d_slots = 10.0;
  EXPECT_NEAR(MoveCost(3, 9, params), 10.0 * c1, 1e-9);
}

// ---- Precomputed table ------------------------------------------------------

// The table contract: lookups are *bit-identical* to calling the move
// model directly, over the entire (B, A) grid. EXPECT_EQ on doubles is
// deliberate — the table must cache, never re-derive.
TEST(MoveModelTableTest, MatchesDirectComputationOverFullGrid) {
  for (const double d_slots : {1.0, 4.0, 12.833}) {
    for (const int partitions : {1, 6}) {
      PlannerParams params = UnitParams();
      params.d_slots = d_slots;
      params.partitions_per_node = partitions;
      constexpr int kMaxNodes = 24;
      const MoveModelTable table(params, NodeCount(kMaxNodes));
      EXPECT_EQ(table.max_nodes(), kMaxNodes);
      for (int before = 1; before <= kMaxNodes; ++before) {
        for (int after = 1; after <= kMaxNodes; ++after) {
          ASSERT_TRUE(table.Covers(NodeCount(before), NodeCount(after)));
          EXPECT_EQ(table.MoveTime(NodeCount(before), NodeCount(after)),
                    MoveTime(before, after, params))
              << "T(" << before << "," << after << ") d=" << d_slots
              << " p=" << partitions;
          EXPECT_EQ(table.MoveCost(NodeCount(before), NodeCount(after)),
                    MoveCost(before, after, params))
              << "C(" << before << "," << after << ") d=" << d_slots
              << " p=" << partitions;
        }
      }
    }
  }
}

TEST(MoveModelTableTest, CoversOnlyTheGrid) {
  const MoveModelTable table(UnitParams(), NodeCount(8));
  EXPECT_TRUE(table.Covers(NodeCount(1), NodeCount(1)));
  EXPECT_TRUE(table.Covers(NodeCount(8), NodeCount(8)));
  EXPECT_FALSE(table.Covers(NodeCount(0), NodeCount(4)));
  EXPECT_FALSE(table.Covers(NodeCount(9), NodeCount(4)));
  EXPECT_FALSE(table.Covers(NodeCount(4), NodeCount(9)));
}

// Pairs beyond the grid come from the move model itself, so a caller
// gets the same answer from a table of any size.
TEST(MoveModelTableTest, FallsBackToTheMoveModelBeyondItsGrid) {
  PlannerParams params = UnitParams();
  params.d_slots = 12.833;
  params.partitions_per_node = 6;
  const MoveModelTable table(params, NodeCount(4));
  for (int before = 1; before <= 12; ++before) {
    for (int after = 1; after <= 12; ++after) {
      EXPECT_EQ(table.MoveTime(NodeCount(before), NodeCount(after)),
                MoveTime(before, after, params))
          << "T(" << before << "," << after << ")";
      EXPECT_EQ(table.MoveCost(NodeCount(before), NodeCount(after)),
                MoveCost(before, after, params))
          << "C(" << before << "," << after << ")";
    }
  }
}

TEST(MoveModelTableTest, MatchesParamsChecksOnlyTheFieldsItReads) {
  PlannerParams params = UnitParams();
  const MoveModelTable table(params, NodeCount(4));
  EXPECT_TRUE(table.MatchesParams(params));
  // Fields the move-time/cost functions never read may differ.
  PlannerParams rates = params;
  rates.target_rate_per_node = 999.0;
  rates.max_rate_per_node = 1234.0;
  EXPECT_TRUE(table.MatchesParams(rates));
  PlannerParams other_d = params;
  other_d.d_slots = params.d_slots + 1.0;
  EXPECT_FALSE(table.MatchesParams(other_d));
  PlannerParams other_p = params;
  other_p.partitions_per_node = params.partitions_per_node + 1;
  EXPECT_FALSE(table.MatchesParams(other_p));
}

}  // namespace
}  // namespace pstore
