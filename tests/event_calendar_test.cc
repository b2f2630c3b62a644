#include "prediction/event_calendar.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/time_series.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"

namespace pstore {
namespace {

TEST(EventCalendarTest, EmptyCalendarIsIdentity) {
  EventCalendar calendar;
  EXPECT_EQ(calendar.MultiplierAt(0), 1.0);
  std::vector<double> forecast = {1, 2, 3};
  calendar.ApplyToForecast(0, &forecast);
  EXPECT_EQ(forecast, (std::vector<double>{1, 2, 3}));
}

TEST(EventCalendarTest, RejectsBadEvents) {
  EventCalendar calendar;
  EXPECT_FALSE(calendar.AddEvent({"empty", 10, 10, 2.0}).ok());
  EXPECT_FALSE(calendar.AddEvent({"backwards", 10, 5, 2.0}).ok());
  EXPECT_FALSE(calendar.AddEvent({"nonpositive", 0, 5, 0.0}).ok());
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(EventCalendarTest, MultiplierWithinWindowOnly) {
  EventCalendar calendar;
  ASSERT_TRUE(calendar.AddEvent({"promo", 100, 200, 1.5}).ok());
  EXPECT_EQ(calendar.MultiplierAt(99), 1.0);
  EXPECT_EQ(calendar.MultiplierAt(100), 1.5);
  EXPECT_EQ(calendar.MultiplierAt(199), 1.5);
  EXPECT_EQ(calendar.MultiplierAt(200), 1.0);
}

TEST(EventCalendarTest, OverlappingEventsCompose) {
  EventCalendar calendar;
  ASSERT_TRUE(calendar.AddEvent({"a", 0, 10, 2.0}).ok());
  ASSERT_TRUE(calendar.AddEvent({"b", 5, 15, 3.0}).ok());
  EXPECT_EQ(calendar.MultiplierAt(2), 2.0);
  EXPECT_EQ(calendar.MultiplierAt(7), 6.0);
  EXPECT_EQ(calendar.MultiplierAt(12), 3.0);
}

TEST(EventCalendarTest, ApplyToForecastUsesAbsoluteSlots) {
  EventCalendar calendar;
  ASSERT_TRUE(calendar.AddEvent({"bf", 102, 104, 4.0}).ok());
  std::vector<double> forecast = {10, 10, 10, 10};
  calendar.ApplyToForecast(100, &forecast);
  EXPECT_EQ(forecast, (std::vector<double>{10, 10, 40, 40}));
}

TEST(EventCalendarTest, OnlinePredictorAppliesCalendar) {
  // Flat 100-value history with a LastValue model; a 3x event covering
  // forecast slots 2..3 must show up in the horizon.
  OnlinePredictorOptions options;
  options.inflation = 1.0;
  options.training_window = 10;
  OnlinePredictor online(std::make_unique<LastValuePredictor>(), options);
  TimeSeries history(60.0, std::vector<double>(20, 100.0));
  ASSERT_TRUE(online.Warmup(history).ok());
  // "Now" = slot 20; the event covers absolute slots 22..23.
  ASSERT_TRUE(online.calendar().AddEvent({"promo", 22, 24, 3.0}).ok());
  StatusOr<std::vector<double>> forecast = online.PredictHorizon(5);
  ASSERT_TRUE(forecast.ok());
  EXPECT_NEAR((*forecast)[0], 100.0, 1e-9);  // slot 20
  EXPECT_NEAR((*forecast)[1], 100.0, 1e-9);  // slot 21
  EXPECT_NEAR((*forecast)[2], 300.0, 1e-9);  // slot 22
  EXPECT_NEAR((*forecast)[3], 300.0, 1e-9);  // slot 23
  EXPECT_NEAR((*forecast)[4], 100.0, 1e-9);  // slot 24
}

}  // namespace
}  // namespace pstore
