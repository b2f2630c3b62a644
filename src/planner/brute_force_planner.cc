#include "planner/brute_force_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "planner/dp_planner.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "planner/validate.h"

namespace pstore {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct SearchState {
  const std::vector<double>* load;
  int horizon;
  int z;
  const DpPlanner* rules;  // reuse the DP's duration/cost/capacity rules
  std::vector<Move> current;
  std::vector<Move> best_moves;
  double best_cost = kInfinity;
  int best_final = std::numeric_limits<int>::max();
};

// Returns true if the move from `before` to `after` ending at slot `end`
// keeps load under the effective capacity throughout: Eq. 7, or the full
// capacity of `after` machines under assume_instant_capacity.
bool MoveFeasible(const SearchState& state, int start, int end, int before,
                  int after) {
  const PlannerParams& params = state.rules->params();
  const int duration = end - start;
  for (int i = 1; i <= duration; ++i) {
    const double fraction =
        static_cast<double>(i) / static_cast<double>(duration);
    const double capacity =
        params.assume_instant_capacity
            ? Capacity(NodeCount(after), params)
            : EffectiveCapacity(NodeCount(before), NodeCount(after),
                                fraction, params);
    if ((*state.load)[static_cast<size_t>(start + i)] > capacity) {
      return false;
    }
  }
  return true;
}

void Search(SearchState* state, int t, int nodes, double cost_so_far) {
  if (t == state->horizon) {
    const bool better =
        nodes < state->best_final ||
        (nodes == state->best_final && cost_so_far < state->best_cost);
    if (better) {
      state->best_final = nodes;
      state->best_cost = cost_so_far;
      state->best_moves = state->current;
    }
    return;
  }
  for (int next = 1; next <= state->z; ++next) {
    const int duration =
        state->rules->MoveSlots(NodeCount(nodes), NodeCount(next));
    const int end = t + duration;
    if (end > state->horizon) continue;
    if (!MoveFeasible(*state, t, end, nodes, next)) continue;
    const double move_cost =
        state->rules->MoveCostCharged(NodeCount(nodes), NodeCount(next));
    Move move;
    move.start_slot = TimeStep(t);
    move.end_slot = TimeStep(end);
    move.nodes_before = NodeCount(nodes);
    move.nodes_after = NodeCount(next);
    // DFS stack: capacity is reserved once in BestMoves and reused
    // across the whole recursion.
    state->current.push_back(move);  // pstore-analyze: allow(hot-path-perf)
    Search(state, end, next, cost_so_far + move_cost);
    state->current.pop_back();
  }
}

}  // namespace

BruteForcePlanner::BruteForcePlanner(const PlannerParams& params)
    : params_(params) {}

StatusOr<PlanResult> BruteForcePlanner::BestMoves(
    const std::vector<double>& predicted_load, NodeCount initial_nodes) const {
  if (predicted_load.size() < 2) {
    return Status::InvalidArgument("prediction horizon must cover >= 2 slots");
  }
  if (initial_nodes < NodeCount(1)) {
    return Status::InvalidArgument("initial_nodes must be >= 1");
  }
  const DpPlanner rules(params_);
  const int horizon = static_cast<int>(predicted_load.size()) - 1;
  const double max_load =
      *std::max_element(predicted_load.begin(), predicted_load.end());
  const int z = std::max(rules.NodesFor(max_load), initial_nodes).value();

  if (predicted_load[0] > Capacity(initial_nodes, params_)) {
    return Status::Infeasible("initial capacity below current load");
  }

  SearchState state;
  state.load = &predicted_load;
  state.horizon = horizon;
  state.z = z;
  state.rules = &rules;
  // Every move advances time by at least one slot, so the DFS stack
  // never exceeds the horizon.
  state.current.reserve(static_cast<size_t>(horizon));
  Search(&state, 0, initial_nodes.value(),
         static_cast<double>(initial_nodes.value()));

  if (state.best_cost == kInfinity) {
    return Status::Infeasible("no feasible sequence of moves");
  }
  PlanResult result;
  result.moves = state.best_moves;
  result.total_cost = state.best_cost;
  result.final_nodes = NodeCount(state.best_final);
  PSTORE_DCHECK_OK(
      PlanValidator(params_).Validate(result, predicted_load, initial_nodes));
  return result;
}

}  // namespace pstore
