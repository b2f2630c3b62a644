#include "planner/move_model_table.h"

#include <cstddef>

#include "common/check.h"
#include "common/strong_id.h"
#include "planner/move_model.h"

namespace pstore {

MoveModelTable::MoveModelTable(const PlannerParams& params, NodeCount max_nodes)
    : max_nodes_(max_nodes.value()), params_(params) {
  PSTORE_CHECK(max_nodes >= NodeCount(1));
  const size_t cells =
      static_cast<size_t>(max_nodes_) * static_cast<size_t>(max_nodes_);
  move_time_.resize(cells);
  move_cost_.resize(cells);
  for (int before = 1; before <= max_nodes_; ++before) {
    for (int after = 1; after <= max_nodes_; ++after) {
      const size_t i = Index(NodeCount(before), NodeCount(after));
      move_time_[i] =
          pstore::MoveTime(NodeCount(before), NodeCount(after), params);
      move_cost_[i] =
          pstore::MoveCost(NodeCount(before), NodeCount(after), params);
    }
  }
}

}  // namespace pstore
