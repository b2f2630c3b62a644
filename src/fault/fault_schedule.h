#ifndef PSTORE_FAULT_FAULT_SCHEDULE_H_
#define PSTORE_FAULT_FAULT_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "sim/capacity_simulator.h"

namespace pstore {

// The fault taxonomy of the chaos drills. Windowed faults come in
// start/end pairs; kChunkAbort is a point event that fails the next
// in-flight migration chunk between any pair of nodes.
enum class FaultKind {
  kNodeCrash,       // node stops serving and sending/receiving chunks
  kNodeRecover,     // the crashed node comes back (data intact)
  kChunkAbort,      // one in-flight chunk transfer fails at completion
  kStragglerStart,  // node's migration rate is multiplied down
  kStragglerEnd,
  kNetworkDegrade,  // all chunk transfers slow down cluster-wide
  kNetworkRestore,
};

const char* FaultKindName(FaultKind kind);

// One scheduled fault, in simulated time.
struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  // Target node for crash/recover/straggler events; ignored otherwise.
  int node = -1;
  // Rate multiplier in (0, 1] for straggler/degrade events. A value of
  // 0 would stall migration entirely; use kNodeCrash for that.
  double multiplier = 1.0;
};

// Knobs of the seeded-random fault stream. Rates are per hour of
// simulated time; durations are exponential with the given means. A rate
// of zero disables that fault class. SeededRandom rejects a rate that is
// negative or not finite, a horizon or mean duration that is not finite
// and positive, a multiplier outside (0, 1], and a negative max_node.
struct FaultScheduleOptions {
  uint64_t seed = 1;
  double horizon_seconds = 3600.0;
  // Nodes eligible for faults are drawn uniformly from [0, max_node].
  int max_node = 0;
  double crash_rate_per_hour = 0.0;
  double mean_outage_seconds = 120.0;
  double chunk_abort_rate_per_hour = 0.0;
  double straggler_rate_per_hour = 0.0;
  double straggler_multiplier = 0.25;
  double mean_straggler_seconds = 60.0;
  double degrade_rate_per_hour = 0.0;
  double degrade_multiplier = 0.5;
  double mean_degrade_seconds = 120.0;
};

// An immutable, time-ordered stream of fault events. Build one from an
// explicit script (deterministic drills) or from seeded-random arrival
// processes (identical seed => identical stream, bit for bit).
class FaultSchedule {
 public:
  FaultSchedule() = default;

  static FaultSchedule Scripted(std::vector<FaultEvent> events);
  static StatusOr<FaultSchedule> SeededRandom(
      const FaultScheduleOptions& options);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

 private:
  explicit FaultSchedule(std::vector<FaultEvent> events);

  std::vector<FaultEvent> events_;
};

// Coarse translation of a fault schedule into capacity-multiplier
// windows for the long-horizon CapacitySimulator: a crashed node out of
// `typical_nodes` healthy ones removes 1/typical_nodes of capacity, a
// straggler serves at its multiplier, and network degradation (which
// slows migration but not serving) is dropped. Chunk aborts are point
// events with no capacity footprint and are likewise dropped.
std::vector<CapacityFault> ToCapacityFaults(const FaultSchedule& schedule,
                                            double slot_seconds,
                                            int typical_nodes);

}  // namespace pstore

#endif  // PSTORE_FAULT_FAULT_SCHEDULE_H_
