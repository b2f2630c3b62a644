#ifndef PSTORE_PLANNER_BRUTE_FORCE_PLANNER_H_
#define PSTORE_PLANNER_BRUTE_FORCE_PLANNER_H_

#include <vector>

#include "common/status.h"
#include "common/strong_id.h"
#include "planner/move.h"
#include "planner/move_model.h"

// Only tests run this planner: it is the independent oracle for DpPlanner.
// pstore-analyze: allow(test-only)
namespace pstore {

// Exhaustive reference implementation of the predictive elasticity
// problem, used only to validate DpPlanner on small instances. It
// enumerates every sequence of moves forward from (slot 0, N0) under the
// same move-duration, cost and effective-capacity rules as the dynamic
// program, and returns the plan that (a) minimizes the final machine
// count and (b) among those, minimizes total cost — the same objective
// order as Algorithm 1.
//
// Exponential in the horizon; keep horizons <= ~10 and Z <= ~6.
class BruteForcePlanner {
 public:
  explicit BruteForcePlanner(const PlannerParams& params);

  StatusOr<PlanResult> BestMoves(const std::vector<double>& predicted_load,
                                 NodeCount initial_nodes) const;

 private:
  PlannerParams params_;
};

}  // namespace pstore

#endif  // PSTORE_PLANNER_BRUTE_FORCE_PLANNER_H_
