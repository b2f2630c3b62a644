#ifndef PSTORE_PLANNER_MOVE_MODEL_TABLE_H_
#define PSTORE_PLANNER_MOVE_MODEL_TABLE_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/strong_id.h"
#include "planner/move_model.h"

namespace pstore {

// Precomputed, immutable grids of T(B,A) and C(B,A) (Eqs. 3-4) for all
// 1 <= B, A <= max_nodes. The dynamic program evaluates these inside every
// transition, and the values depend only on (B, A) plus two PlannerParams
// fields (d_slots, partitions_per_node) — so a sweep computes the grid
// once and shares it read-only across planners and threads. Pairs beyond
// the grid are computed on the spot from the same functions, so the grid
// size changes speed, never an answer.
//
// Entries are produced by calling the exact move-model functions, never
// a re-derivation, so lookups are bit-identical to direct computation;
// the move-model tests assert this over the full grid and beyond it. The
// table is immutable after construction and therefore safe to read
// concurrently.
class MoveModelTable {
 public:
  MoveModelTable(const PlannerParams& params, NodeCount max_nodes);

  // True when both cluster sizes fall inside the precomputed grid.
  bool Covers(NodeCount before, NodeCount after) const {
    return before >= NodeCount(1) && after >= NodeCount(1) &&
           before.value() <= max_nodes_ && after.value() <= max_nodes_;
  }

  // True when `params` would reproduce this table: MoveTime / MoveCost
  // read only these two fields, so a planner may adopt the table iff
  // they match exactly.
  bool MatchesParams(const PlannerParams& params) const {
    return params.d_slots == params_.d_slots &&
           params.partitions_per_node == params_.partitions_per_node;
  }

  // Eq. 3: a lookup inside the grid, the move model beyond it.
  double MoveTime(NodeCount before, NodeCount after) const {
    if (!Covers(before, after)) {
      return pstore::MoveTime(before, after, params_);
    }
    return move_time_[Index(before, after)];
  }

  // Eq. 4: a lookup inside the grid, the move model beyond it.
  double MoveCost(NodeCount before, NodeCount after) const {
    if (!Covers(before, after)) {
      return pstore::MoveCost(before, after, params_);
    }
    return move_cost_[Index(before, after)];
  }

  int max_nodes() const { return max_nodes_; }

 private:
  size_t Index(NodeCount before, NodeCount after) const {
    PSTORE_DCHECK(Covers(before, after));
    return static_cast<size_t>(before.value() - 1) *
               static_cast<size_t>(max_nodes_) +
           static_cast<size_t>(after.value() - 1);
  }

  int max_nodes_;
  PlannerParams params_;
  std::vector<double> move_time_;
  std::vector<double> move_cost_;
};

}  // namespace pstore

#endif  // PSTORE_PLANNER_MOVE_MODEL_TABLE_H_
