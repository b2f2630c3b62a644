#ifndef PSTORE_ENGINE_EVENT_LOOP_H_
#define PSTORE_ENGINE_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/sim_time.h"

namespace pstore {

// Single-threaded discrete-event simulation loop. Events are callbacks
// scheduled at simulated timestamps; ties are broken by scheduling order
// (FIFO), which keeps experiments deterministic.
class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time. Starts at 0.
  SimTime now() const { return now_; }

  // Schedules `callback` to run at simulated time `when`. Scheduling in
  // the past (before now()) is clamped to now().
  void ScheduleAt(SimTime when, Callback callback);

  // Schedules `callback` to run `delay` after now().
  void ScheduleAfter(SimTime delay, Callback callback);

  // Runs events until the queue is empty or simulated time would exceed
  // `end`. Events exactly at `end` are executed. Afterwards now() == end
  // unconditionally — even when the queue drains before `end`, the
  // clock lands on `end` (not on the last event's time), so a
  // subsequent ScheduleAfter(d) fires at end + d.
  void RunUntil(SimTime end);

  // Runs everything. Use only when the event graph is known to be finite.
  void RunToCompletion();

  size_t pending_events() const { return queue_.size(); }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    Callback callback;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
};

}  // namespace pstore

#endif  // PSTORE_ENGINE_EVENT_LOOP_H_
