#ifndef PSTORE_PLANNER_DP_PLANNER_H_
#define PSTORE_PLANNER_DP_PLANNER_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "obs/tracer.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"

namespace pstore {

// The predictive elasticity algorithm (paper §4.3, Algorithms 1-3): a
// dynamic program over (time slot, machine count) states that finds the
// cheapest feasible sequence of moves covering the prediction horizon.
//
// A sequence is feasible if the predicted load never exceeds the
// *effective* capacity of the system, including while reconfigurations
// are in flight (Eq. 7). Among feasible sequences the algorithm first
// minimizes the number of machines at the end of the horizon, then the
// total cost in machine-slots.
class DpPlanner {
 public:
  explicit DpPlanner(const PlannerParams& params);

  // Algorithm 1 (best-moves). `predicted_load` is indexed by slot, with
  // slot 0 being "now": predicted_load[t] is the load during slot t, for
  // t in [0, T] where T = predicted_load.size() - 1. `initial_nodes` is
  // N0. Returns kInfeasible if no sequence of moves can keep up with the
  // predicted load from N0 machines, and kInvalidArgument if the horizon
  // has fewer than 2 slots or initial_nodes < 1.
  StatusOr<PlanResult> BestMoves(const std::vector<double>& predicted_load,
                                 NodeCount initial_nodes) const;

  // The smallest number of machines whose full capacity covers `load`
  // (ceil(load / Q)), never less than 1.
  NodeCount NodesFor(double load) const;

  const PlannerParams& params() const { return params_; }

  // The integral duration of a move in slots as used by the dynamic
  // program: ceil of Eq. 3, and at least 1 so every move occupies a slot
  // (Algorithm 2 line 9).
  int MoveSlots(NodeCount before, NodeCount after) const;

  // The cost charged for a move lasting MoveSlots(before, after) slots:
  // the Eq. 4 cost for the real-valued migration time plus `after`
  // machines for the remainder of the final slot (the migration finishes
  // partway through it). For before == after this is `before` (one slot
  // at B machines, Algorithm 2 line 9).
  double MoveCostCharged(NodeCount before, NodeCount after) const;

  // Observability: when set, every BestMoves search emits one
  // planner.plan event (wall time, feasibility, chosen target). The
  // planner has no clock of its own, so `now_fn` supplies the
  // simulation timestamp of the emitting harness.
  void set_tracer(obs::Tracer* tracer, std::function<SimTime()> now_fn) {
    tracer_ = tracer;
    trace_now_ = std::move(now_fn);
  }

  // Installs a precomputed (caller-owned, outliving the planner) move
  // model table; MoveSlots / MoveCostCharged then look transitions up
  // instead of recomputing Eqs. 3-4 each time a search fills its
  // transition tables.
  // Lookups are bit-identical to direct computation, so plans do not
  // change. The table must have been built from matching params.
  void set_move_table(const MoveModelTable* table) {
    PSTORE_CHECK(table == nullptr || table->MatchesParams(params_));
    move_table_ = table;
  }

 private:
  StatusOr<PlanResult> RunSearch(const std::vector<double>& predicted_load,
                                 NodeCount initial_nodes) const;

  PlannerParams params_;
  const MoveModelTable* move_table_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::function<SimTime()> trace_now_;
};

}  // namespace pstore

#endif  // PSTORE_PLANNER_DP_PLANNER_H_
