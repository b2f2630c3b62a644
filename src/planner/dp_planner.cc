#include "planner/dp_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "obs/tracer.h"
#include "obs/wall_timer.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "planner/validate.h"

namespace pstore {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Memoization entry: the minimum cost of a feasible sequence of moves
// ending with `nodes` machines at slot `t`, plus the last move that
// achieves it (Algorithm 2's matrix m).
struct MemoEntry {
  bool computed = false;
  double cost = kInfinity;
  int prev_time = -1;
  int prev_nodes = -1;
};

// Shared state of one BestMoves invocation.
struct DpState {
  const std::vector<double>* load;  // length T+1, indices 0..T
  int n0;
  int z;
  // memo[t * (z + 1) + nodes]
  std::vector<MemoEntry> memo;
  // Transition tables over 1 <= B, A <= z, indexed by Pair(B, A) and
  // filled by RunSearch from the planner's own rules: the move's length
  // in slots (MoveSlots), its charged cost (MoveCostCharged), and where
  // its window starts in `window_capacity`. A move's window holds the
  // capacity SubCost tests at each step i = 1..duration (Eq. 7 at
  // i / duration, or Capacity(A) under assume_instant_capacity). Moves
  // longer than the horizon have no window: SubCost rejects them first.
  std::vector<int> move_slots;
  std::vector<double> move_cost;
  std::vector<size_t> window_begin;
  std::vector<double> window_capacity;
  // capacity[n] = Capacity(n), Eq. 5, for 0 <= n <= z.
  std::vector<double> capacity;

  MemoEntry& At(int t, int nodes) { return memo[t * (z + 1) + nodes]; }
  size_t Pair(int before, int after) const {
    return static_cast<size_t>(before - 1) * static_cast<size_t>(z) +
           static_cast<size_t>(after - 1);
  }
};

double Cost(DpState* state, int t, int nodes);

// Algorithm 3 (sub-cost): minimum cost ending at slot t when the last
// move is from `before` to `after` machines. Returns infinity if the move
// would start in the past or the predicted load exceeds the effective
// capacity at any point during the move.
double SubCost(DpState* state, int t, int before, int after) {
  const size_t pair = state->Pair(before, after);
  const int duration = state->move_slots[pair];
  const int start_move = t - duration;
  if (start_move < 0) return kInfinity;
  // Cost(start_move, before)'s two memo-free infeasibility tests, run
  // ahead of the window: neither has a side effect, so the order does
  // not change the result or the memo.
  const std::vector<double>& load = *state->load;
  if (start_move == 0 && before != state->n0) return kInfinity;
  if (load[start_move] > state->capacity[before]) return kInfinity;
  const double* window = state->window_capacity.data() +
                         state->window_begin[pair];
  for (int i = 1; i <= duration; ++i) {
    if (load[start_move + i] > window[i - 1]) return kInfinity;
  }
  const double prior = Cost(state, start_move, before);
  if (prior == kInfinity) return kInfinity;
  return prior + state->move_cost[pair];
}

// Algorithm 2 (cost): minimum cost of a feasible sequence of moves ending
// with `nodes` machines at slot t.
double Cost(DpState* state, int t, int nodes) {
  if (t < 0) return kInfinity;
  if (t == 0 && nodes != state->n0) return kInfinity;
  if ((*state->load)[t] > state->capacity[nodes]) return kInfinity;
  MemoEntry& entry = state->At(t, nodes);
  if (entry.computed) return entry.cost;
  entry.computed = true;  // set before recursing; t strictly decreases
  if (t == 0) {
    entry.cost = nodes;  // base case: N0 machines billed for slot 0
    return entry.cost;
  }
  double best = kInfinity;
  int best_before = -1;
  for (int before = 1; before <= state->z; ++before) {
    const double candidate = SubCost(state, t, before, nodes);
    if (candidate < best) {
      best = candidate;
      best_before = before;
    }
  }
  entry.cost = best;
  if (best_before >= 0 && best < kInfinity) {
    entry.prev_time = t - state->move_slots[state->Pair(best_before, nodes)];
    entry.prev_nodes = best_before;
  }
  return entry.cost;
}

}  // namespace

DpPlanner::DpPlanner(const PlannerParams& params) : params_(params) {
  PSTORE_CHECK(params_.target_rate_per_node > 0.0);
  PSTORE_CHECK(params_.d_slots > 0.0);
  PSTORE_CHECK(params_.partitions_per_node >= 1);
}

NodeCount DpPlanner::NodesFor(double load) const {
  if (load <= 0.0) return NodeCount(1);
  return NodeCount(std::max(
      1, static_cast<int>(std::ceil(load / params_.target_rate_per_node))));
}

int DpPlanner::MoveSlots(NodeCount before, NodeCount after) const {
  if (before == after) return 1;  // "do nothing" occupies one slot
  const double t = move_table_ != nullptr
                       ? move_table_->MoveTime(before, after)
                       : MoveTime(before, after, params_);
  return std::max(1, static_cast<int>(std::ceil(t)));
}

double DpPlanner::MoveCostCharged(NodeCount before, NodeCount after) const {
  if (before == after) return before.value();
  const bool tabled = move_table_ != nullptr;
  const double real_time = tabled ? move_table_->MoveTime(before, after)
                                  : MoveTime(before, after, params_);
  const int slots = MoveSlots(before, after);
  const double padding = static_cast<double>(slots) - real_time;
  const double cost = tabled ? move_table_->MoveCost(before, after)
                             : MoveCost(before, after, params_);
  return cost + padding * static_cast<double>(after.value());
}

StatusOr<PlanResult> DpPlanner::BestMoves(
    const std::vector<double>& predicted_load, NodeCount initial_nodes) const {
  obs::WallTimer timer;
  StatusOr<PlanResult> result = RunSearch(predicted_load, initial_nodes);
  const bool feasible = result.ok();
  PSTORE_TRACE(
      tracer_, ::pstore::obs::TraceCategory::kPlanner,
      trace_now_ ? trace_now_() : 0, "planner.plan",
      .With("wall_us", timer.ElapsedMicros())
          .With("feasible", feasible)
          .With("n0", initial_nodes.value())
          .With("horizon", predicted_load.empty()
                               ? 0
                               : static_cast<int>(predicted_load.size()) - 1)
          .With("target", feasible ? result->final_nodes.value() : 0)
          .With("moves",
                feasible ? static_cast<int>(result->moves.size()) : 0));
  return result;
}

StatusOr<PlanResult> DpPlanner::RunSearch(
    const std::vector<double>& predicted_load, NodeCount initial_nodes) const {
  if (predicted_load.size() < 2) {
    return Status::InvalidArgument("prediction horizon must cover >= 2 slots");
  }
  if (initial_nodes < NodeCount(1)) {
    return Status::InvalidArgument("initial_nodes must be >= 1");
  }
  const int horizon = static_cast<int>(predicted_load.size()) - 1;
  const double max_load =
      *std::max_element(predicted_load.begin(), predicted_load.end());
  // Z: the maximum number of machines ever needed (Algorithm 1 line 2).
  const int z = std::max(NodesFor(max_load), initial_nodes).value();

  // The memo is keyed only by (slot, machines), independent of the
  // final-machine target, so unlike the paper's pseudocode we build it
  // once and reuse it across candidate targets.
  DpState state;
  state.load = &predicted_load;
  state.n0 = initial_nodes.value();
  state.z = z;
  state.memo.assign(static_cast<size_t>(horizon + 1) * (z + 1), {});

  // Fill the transition tables once per search by calling the rules
  // themselves, so every entry is bit-identical to computing it per
  // transition. Durations come first: they size the windows.
  const size_t pairs = static_cast<size_t>(z) * static_cast<size_t>(z);
  state.move_slots.resize(pairs);
  state.move_cost.resize(pairs);
  state.window_begin.resize(pairs);
  state.capacity.resize(static_cast<size_t>(z) + 1);
  for (int n = 0; n <= z; ++n) {
    state.capacity[static_cast<size_t>(n)] = Capacity(NodeCount(n), params_);
  }
  size_t window_size = 0;
  for (int before = 1; before <= z; ++before) {
    for (int after = 1; after <= z; ++after) {
      const size_t pair = state.Pair(before, after);
      const int duration = MoveSlots(NodeCount(before), NodeCount(after));
      state.move_slots[pair] = duration;
      state.move_cost[pair] =
          MoveCostCharged(NodeCount(before), NodeCount(after));
      state.window_begin[pair] = window_size;
      if (duration <= horizon) window_size += static_cast<size_t>(duration);
    }
  }
  state.window_capacity.resize(window_size);
  for (int before = 1; before <= z; ++before) {
    for (int after = 1; after <= z; ++after) {
      const size_t pair = state.Pair(before, after);
      const int duration = state.move_slots[pair];
      if (duration > horizon) continue;
      double* window =
          state.window_capacity.data() + state.window_begin[pair];
      for (int i = 1; i <= duration; ++i) {
        const double fraction =
            static_cast<double>(i) / static_cast<double>(duration);
        window[i - 1] =
            params_.assume_instant_capacity
                ? Capacity(NodeCount(after), params_)
                : EffectiveCapacity(NodeCount(before), NodeCount(after),
                                    fraction, params_);
      }
    }
  }

  // Try to end the horizon with as few machines as possible (Algorithm 1
  // lines 3-12); the first feasible target is the answer.
  for (int final_nodes = 1; final_nodes <= z; ++final_nodes) {
    const double total = Cost(&state, horizon, final_nodes);
    if (total == kInfinity) continue;

    // Walk the memoized best moves backwards (Algorithm 1 lines 6-11).
    PlanResult result;
    result.total_cost = total;
    result.final_nodes = NodeCount(final_nodes);
    int t = horizon;
    int nodes = final_nodes;
    result.moves.reserve(static_cast<size_t>(horizon));
    while (t > 0) {
      const MemoEntry& entry = state.At(t, nodes);
      PSTORE_CHECK(entry.computed && entry.cost < kInfinity);
      PSTORE_CHECK_MSG(entry.prev_time >= 0 && entry.prev_time < t,
                       "memoized move does not advance time");
      Move move;
      move.start_slot = TimeStep(entry.prev_time);
      move.end_slot = TimeStep(t);
      move.nodes_before = NodeCount(entry.prev_nodes);
      move.nodes_after = NodeCount(nodes);
      result.moves.push_back(move);
      t = entry.prev_time;
      nodes = entry.prev_nodes;
    }
    std::reverse(result.moves.begin(), result.moves.end());
    // Debug builds mechanically re-verify every emitted plan against the
    // paper's invariants (coverage, chaining, Eq. 7 feasibility, cost).
    PSTORE_DCHECK_OK(
        PlanValidator(params_).Validate(result, predicted_load, initial_nodes));
    return result;
  }
  return Status::Infeasible(
      "no feasible sequence of moves from the initial machine count");
}

}  // namespace pstore
