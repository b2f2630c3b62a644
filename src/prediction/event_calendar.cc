#include "prediction/event_calendar.h"

#include "common/status.h"

namespace pstore {

Status EventCalendar::AddEvent(const PlannedEvent& event) {
  if (event.end_slot <= event.start_slot) {
    return Status::InvalidArgument("event window is empty");
  }
  if (event.multiplier <= 0.0) {
    return Status::InvalidArgument("event multiplier must be positive");
  }
  events_.push_back(event);
  return Status::OK();
}

double EventCalendar::MultiplierAt(size_t slot) const {
  double multiplier = 1.0;
  for (const PlannedEvent& event : events_) {
    if (slot >= event.start_slot && slot < event.end_slot) {
      multiplier *= event.multiplier;
    }
  }
  return multiplier;
}

void EventCalendar::ApplyToForecast(size_t first_slot,
                                    std::vector<double>* forecast) const {
  if (forecast == nullptr || events_.empty()) return;
  for (size_t i = 0; i < forecast->size(); ++i) {
    (*forecast)[i] *= MultiplierAt(first_slot + i);
  }
}

}  // namespace pstore
