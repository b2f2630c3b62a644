#include "engine/event_loop.h"

#include <utility>

#include "common/logging.h"
#include "common/sim_time.h"

namespace pstore {

void EventLoop::ScheduleAt(SimTime when, Callback callback) {
  PSTORE_CHECK(callback != nullptr);
  if (when < now_) when = now_;
  queue_.push(Event{when, next_seq_++, std::move(callback)});
}

void EventLoop::ScheduleAfter(SimTime delay, Callback callback) {
  PSTORE_CHECK(delay >= 0);
  ScheduleAt(now_ + delay, std::move(callback));
}

void EventLoop::RunUntil(SimTime end) {
  PSTORE_CHECK(end >= now_);
  while (!queue_.empty() && queue_.top().when <= end) {
    // Move the callback out before popping; pop invalidates the top.
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = event.when;
    event.callback();
  }
  now_ = end;
}

void EventLoop::RunToCompletion() {
  while (!queue_.empty()) {
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = event.when;
    event.callback();
  }
}

}  // namespace pstore
