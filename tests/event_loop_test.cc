#include "engine/event_loop.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/sim_time.h"

namespace pstore {
namespace {

TEST(EventLoopTest, StartsAtZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoopTest, TiesBreakInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(10, [&] { order.push_back(2); });
  loop.ScheduleAt(10, [&] { order.push_back(3); });
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, RunUntilStopsAtBoundary) {
  EventLoop loop;
  std::vector<int> fired;
  loop.ScheduleAt(10, [&] { fired.push_back(10); });
  loop.ScheduleAt(20, [&] { fired.push_back(20); });
  loop.ScheduleAt(30, [&] { fired.push_back(30); });
  loop.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunUntil(100);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoopTest, EventsScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) loop.ScheduleAfter(10, chain);
  };
  loop.ScheduleAt(0, chain);
  loop.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 40);
}

TEST(EventLoopTest, SchedulingInThePastClampsToNow) {
  EventLoop loop;
  SimTime fired_at = -1;
  loop.ScheduleAt(50, [&] {
    loop.ScheduleAt(10, [&] { fired_at = loop.now(); });
  });
  loop.RunToCompletion();
  EXPECT_EQ(fired_at, 50);
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime fired_at = -1;
  loop.ScheduleAt(100, [&] {
    loop.ScheduleAfter(25, [&] { fired_at = loop.now(); });
  });
  loop.RunToCompletion();
  EXPECT_EQ(fired_at, 125);
}

TEST(EventLoopTest, RunUntilWithEmptyQueueAdvancesTime) {
  EventLoop loop;
  loop.RunUntil(1000);
  EXPECT_EQ(loop.now(), 1000);
}

TEST(EventLoopTest, RunUntilAdvancesToEndWhenQueueDrainsEarly) {
  // The queue empties mid-run (last event at 40), but the clock must
  // still land exactly on the requested boundary.
  EventLoop loop;
  std::vector<int> fired;
  loop.ScheduleAt(10, [&] { fired.push_back(10); });
  loop.ScheduleAt(40, [&] { fired.push_back(40); });
  loop.RunUntil(500);
  EXPECT_EQ(fired, (std::vector<int>{10, 40}));
  EXPECT_EQ(loop.now(), 500);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, ScheduleAfterAnEarlyDrainAnchorsAtTheBoundary) {
  // Companion to the test above, pinning the documented contract: after
  // RunUntil(end) the clock is `end` even if the queue drained earlier,
  // so a relative ScheduleAfter(d) fires at end + d — NOT at
  // last-event-time + d, which is what the header used to claim.
  EventLoop loop;
  loop.ScheduleAt(40, [] {});
  loop.RunUntil(500);
  ASSERT_EQ(loop.now(), 500);
  SimTime fired_at = -1;
  loop.ScheduleAfter(10, [&] { fired_at = loop.now(); });
  loop.RunToCompletion();
  EXPECT_EQ(fired_at, 510);
}

TEST(EventLoopTest, TiesScheduledFromRunningEventsStayFifo) {
  // Events scheduled for an already-reached timestamp from inside a
  // running event run after earlier same-timestamp events, in the order
  // they were scheduled.
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] {
    order.push_back(1);
    loop.ScheduleAt(10, [&] { order.push_back(3); });
    loop.ScheduleAt(10, [&] { order.push_back(4); });
  });
  loop.ScheduleAt(10, [&] { order.push_back(2); });
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoopTest, PastClampedEventsKeepFifoWithPresentEvents) {
  // A past-clamped event lands at now() and runs after events already
  // queued for now(), preserving scheduling order among the clamped.
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(50, [&] {
    order.push_back(1);
    loop.ScheduleAt(7, [&] { order.push_back(3); });   // clamped to 50
    loop.ScheduleAt(0, [&] { order.push_back(4); });   // clamped to 50
    loop.ScheduleAt(50, [&] { order.push_back(5); });
  });
  loop.ScheduleAt(50, [&] { order.push_back(2); });
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoopTest, ScheduleAtNowRunsInsideCurrentRun) {
  EventLoop loop;
  SimTime fired_at = -1;
  loop.ScheduleAt(20, [&] {
    loop.ScheduleAt(loop.now(), [&] { fired_at = loop.now(); });
  });
  loop.RunUntil(20);
  EXPECT_EQ(fired_at, 20);
  EXPECT_EQ(loop.pending_events(), 0u);
}

}  // namespace
}  // namespace pstore
