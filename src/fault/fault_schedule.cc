#include "fault/fault_schedule.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "sim/capacity_simulator.h"

namespace pstore {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return "node-crash";
    case FaultKind::kNodeRecover:
      return "node-recover";
    case FaultKind::kChunkAbort:
      return "chunk-abort";
    case FaultKind::kStragglerStart:
      return "straggler-start";
    case FaultKind::kStragglerEnd:
      return "straggler-end";
    case FaultKind::kNetworkDegrade:
      return "network-degrade";
    case FaultKind::kNetworkRestore:
      return "network-restore";
  }
  return "unknown";
}

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  // Stable sort keeps the scripted order of simultaneous events, so a
  // crash and its paired recovery at the same instant stay ordered.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

FaultSchedule FaultSchedule::Scripted(std::vector<FaultEvent> events) {
  return FaultSchedule(std::move(events));
}

namespace {

// Appends one Poisson arrival process of windowed faults: start events
// at exponential inter-arrivals, each paired with an end event after an
// exponential duration.
void AppendWindowedProcess(Rng* rng, double rate_per_hour,
                           double mean_duration_seconds,
                           double horizon_seconds, int max_node,
                           FaultKind start_kind, FaultKind end_kind,
                           double multiplier,
                           std::vector<FaultEvent>* events) {
  if (rate_per_hour <= 0.0) return;
  const double mean_gap = 3600.0 / rate_per_hour;
  double t = rng->NextExponential(mean_gap);
  while (t < horizon_seconds) {
    FaultEvent start;
    start.at = FromSeconds(t);
    start.kind = start_kind;
    start.node = static_cast<int>(
        rng->NextUint64(static_cast<uint64_t>(max_node) + 1));
    start.multiplier = multiplier;
    FaultEvent end = start;
    end.at = FromSeconds(t + rng->NextExponential(mean_duration_seconds));
    end.kind = end_kind;
    end.multiplier = 1.0;
    events->push_back(start);
    events->push_back(end);
    t += rng->NextExponential(mean_gap);
  }
}

}  // namespace

StatusOr<FaultSchedule> FaultSchedule::SeededRandom(
    const FaultScheduleOptions& options) {
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto fraction = [](double v) { return v > 0.0 && v <= 1.0; };
  if (!(non_negative(options.crash_rate_per_hour) &&
        non_negative(options.chunk_abort_rate_per_hour) &&
        non_negative(options.straggler_rate_per_hour) &&
        non_negative(options.degrade_rate_per_hour))) {
    return Status::InvalidArgument(
        "fault rates must be finite and non-negative");
  }
  if (!(positive(options.horizon_seconds) &&
        positive(options.mean_outage_seconds) &&
        positive(options.mean_straggler_seconds) &&
        positive(options.mean_degrade_seconds))) {
    return Status::InvalidArgument(
        "fault horizon and mean durations must be finite and positive");
  }
  if (!(fraction(options.straggler_multiplier) &&
        fraction(options.degrade_multiplier))) {
    return Status::InvalidArgument("fault multipliers must be in (0, 1]");
  }
  if (options.max_node < 0) {
    return Status::InvalidArgument("fault max_node must be >= 0");
  }
  Rng rng(options.seed);
  std::vector<FaultEvent> events;

  AppendWindowedProcess(&rng, options.crash_rate_per_hour,
                        options.mean_outage_seconds, options.horizon_seconds,
                        options.max_node, FaultKind::kNodeCrash,
                        FaultKind::kNodeRecover, 1.0, &events);
  AppendWindowedProcess(&rng, options.straggler_rate_per_hour,
                        options.mean_straggler_seconds,
                        options.horizon_seconds, options.max_node,
                        FaultKind::kStragglerStart, FaultKind::kStragglerEnd,
                        options.straggler_multiplier, &events);
  // Network degradation is cluster-wide: the node draw keeps the stream
  // layout (and thus all later draws) aligned with the windowed helper.
  AppendWindowedProcess(&rng, options.degrade_rate_per_hour,
                        options.mean_degrade_seconds, options.horizon_seconds,
                        options.max_node, FaultKind::kNetworkDegrade,
                        FaultKind::kNetworkRestore,
                        options.degrade_multiplier, &events);
  if (options.chunk_abort_rate_per_hour > 0.0) {
    const double mean_gap = 3600.0 / options.chunk_abort_rate_per_hour;
    double t = rng.NextExponential(mean_gap);
    while (t < options.horizon_seconds) {
      FaultEvent abort;
      abort.at = FromSeconds(t);
      abort.kind = FaultKind::kChunkAbort;
      events.push_back(abort);
      t += rng.NextExponential(mean_gap);
    }
  }
  return FaultSchedule(std::move(events));
}

std::vector<CapacityFault> ToCapacityFaults(const FaultSchedule& schedule,
                                            double slot_seconds,
                                            int typical_nodes) {
  PSTORE_CHECK(slot_seconds > 0.0);
  PSTORE_CHECK(typical_nodes >= 1);
  const double n = static_cast<double>(typical_nodes);
  std::vector<CapacityFault> out;
  // Open windows per node: fine slot the fault began at, keyed by the
  // fault class so a crash and a straggler on the same node can coexist.
  struct Open {
    bool active = false;
    size_t begin = 0;
    double multiplier = 1.0;
  };
  std::vector<Open> crashes;
  std::vector<Open> stragglers;
  auto slot_of = [slot_seconds](SimTime at) {
    return static_cast<size_t>(ToSeconds(at) / slot_seconds);
  };
  auto ensure = [](std::vector<Open>* v, int node) -> Open& {
    PSTORE_CHECK(node >= 0);
    if (static_cast<size_t>(node) >= v->size()) v->resize(node + 1);
    return (*v)[node];
  };
  auto close = [&out](Open* open, size_t end_slot) {
    if (!open->active) return;
    CapacityFault fault;
    fault.begin_fine_slot = open->begin;
    // A fault shorter than one slot still costs that slot.
    fault.end_fine_slot = std::max(end_slot, open->begin + 1);
    fault.capacity_multiplier = open->multiplier;
    out.push_back(fault);
    open->active = false;
  };
  for (const FaultEvent& event : schedule.events()) {
    switch (event.kind) {
      case FaultKind::kNodeCrash: {
        Open& open = ensure(&crashes, event.node);
        open.active = true;
        open.begin = slot_of(event.at);
        open.multiplier = (n - 1.0) / n;
        break;
      }
      case FaultKind::kNodeRecover:
        close(&ensure(&crashes, event.node), slot_of(event.at));
        break;
      case FaultKind::kStragglerStart: {
        Open& open = ensure(&stragglers, event.node);
        open.active = true;
        open.begin = slot_of(event.at);
        open.multiplier = (n - 1.0 + event.multiplier) / n;
        break;
      }
      case FaultKind::kStragglerEnd:
        close(&ensure(&stragglers, event.node), slot_of(event.at));
        break;
      case FaultKind::kChunkAbort:
      case FaultKind::kNetworkDegrade:
      case FaultKind::kNetworkRestore:
        break;  // no serving-capacity footprint
    }
  }
  // Faults never closed (the schedule's horizon ended first) run forever
  // as far as the simulator cares.
  constexpr size_t kOpenEnded = static_cast<size_t>(-1);
  for (Open& open : crashes) close(&open, kOpenEnded);
  for (Open& open : stragglers) close(&open, kOpenEnded);
  return out;
}

}  // namespace pstore
