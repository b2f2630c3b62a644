#ifndef PSTORE_PREDICTION_EVENT_CALENDAR_H_
#define PSTORE_PREDICTION_EVENT_CALENDAR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace pstore {

// A planned load event: between [start_slot, end_slot) (absolute slot
// indices on the predictor's timeline) demand is expected to be
// `multiplier` times the organic forecast. Used to encode known
// promotions, marketing pushes, or Black Friday itself.
struct PlannedEvent {
  std::string name;
  size_t start_slot = 0;
  size_t end_slot = 0;
  double multiplier = 1.0;
};

// The "manual provisioning" leg of the paper's composite strategy (§1:
// predictive + reactive + manual): operators register expected one-off
// events, and the calendar boosts the horizon forecasts so the planner
// provisions for them even though history says nothing about them.
class EventCalendar {
 public:
  EventCalendar() = default;

  // Registers an event. Fails if the window is empty or the multiplier
  // is not positive. Overlapping events compose multiplicatively.
  Status AddEvent(const PlannedEvent& event);

  // Combined multiplier in effect at the given absolute slot.
  double MultiplierAt(size_t slot) const;

  // Applies the calendar to a horizon forecast whose first element
  // corresponds to absolute slot `first_slot`.
  void ApplyToForecast(size_t first_slot, std::vector<double>* forecast) const;

  size_t size() const { return events_.size(); }
  const std::vector<PlannedEvent>& events() const { return events_; }

 private:
  std::vector<PlannedEvent> events_;
};

}  // namespace pstore

#endif  // PSTORE_PREDICTION_EVENT_CALENDAR_H_
