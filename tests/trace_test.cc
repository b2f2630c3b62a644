#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/status.h"
#include "common/time_series.h"
#include "trace/b2w_trace_generator.h"
#include "trace/spike_injector.h"
#include "trace/trace_io.h"
#include "trace/wikipedia_trace_generator.h"

namespace pstore {
namespace {

B2wTraceOptions DefaultB2w(int days) {
  B2wTraceOptions options;
  options.days = days;
  options.seed = 42;
  return options;
}

TEST(B2wTraceTest, LengthAndSlotDuration) {
  const TimeSeries trace = GenerateB2wTrace(DefaultB2w(3));
  EXPECT_EQ(trace.size(), 3u * 1440u);
  EXPECT_EQ(trace.slot_seconds(), 60.0);
}

TEST(B2wTraceTest, DeterministicBySeed) {
  const TimeSeries a = GenerateB2wTrace(DefaultB2w(2));
  const TimeSeries b = GenerateB2wTrace(DefaultB2w(2));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]);
  }
}

TEST(B2wTraceTest, DifferentSeedsDiffer) {
  B2wTraceOptions options = DefaultB2w(1);
  const TimeSeries a = GenerateB2wTrace(options);
  options.seed = 43;
  const TimeSeries b = GenerateB2wTrace(options);
  int differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++differing;
  }
  EXPECT_GT(differing, 1000);
}

TEST(B2wTraceTest, PeakToTroughRatioNearTen) {
  // The paper reports peak load ~10x the trough (Fig. 1).
  B2wTraceOptions options = DefaultB2w(7);
  options.promo_probability = 0.0;  // keep the baseline shape clean
  const TimeSeries trace = GenerateB2wTrace(options);
  const double ratio = trace.Max() / trace.Min();
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 16.0);
}

TEST(B2wTraceTest, PeakNearConfiguredLevel) {
  B2wTraceOptions options = DefaultB2w(3);
  options.promo_probability = 0.0;
  const TimeSeries trace = GenerateB2wTrace(options);
  EXPECT_GT(trace.Max(), options.peak_requests_per_min * 0.8);
  EXPECT_LT(trace.Max(), options.peak_requests_per_min * 1.35);
}

TEST(B2wTraceTest, DailyPeriodicity) {
  // The same minute on consecutive weekdays should be highly correlated.
  B2wTraceOptions options = DefaultB2w(5);
  options.promo_probability = 0.0;
  options.weekend_factor = 1.0;
  const TimeSeries trace = GenerateB2wTrace(options);
  double same_slot_error = 0.0;
  int counted = 0;
  for (int minute = 0; minute < 1440; minute += 10) {
    const double day0 = trace[minute];
    const double day1 = trace[1440 + minute];
    same_slot_error += std::abs(day0 - day1) / std::max(1.0, day0);
    ++counted;
  }
  EXPECT_LT(same_slot_error / counted, 0.35);
}

TEST(B2wTraceTest, PeakOccursNearConfiguredHour) {
  B2wTraceOptions options = DefaultB2w(1);
  options.promo_probability = 0.0;
  options.slot_noise_sigma = 0.0;
  options.daily_amplitude_sigma = 0.0;
  options.drift_sigma = 0.0;
  const TimeSeries trace = GenerateB2wTrace(options);
  size_t argmax = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i] > trace[argmax]) argmax = i;
  }
  EXPECT_NEAR(static_cast<double>(argmax), options.peak_minute_of_day, 30.0);
}

TEST(B2wTraceTest, BlackFridayRaisesLoadSharply) {
  B2wTraceOptions base = DefaultB2w(3);
  base.promo_probability = 0.0;
  const TimeSeries normal = GenerateB2wTrace(base);

  B2wTraceOptions bf = base;
  bf.black_friday_day = 1;
  const TimeSeries spiked = GenerateB2wTrace(bf);

  // Day 0 identical... (same rng draw order) and day 1 much larger.
  double normal_day1_max = 0.0;
  double bf_day1_max = 0.0;
  for (int m = 0; m < 1440; ++m) {
    normal_day1_max = std::max(normal_day1_max, normal[1440 + m]);
    bf_day1_max = std::max(bf_day1_max, spiked[1440 + m]);
  }
  EXPECT_GT(bf_day1_max, normal_day1_max * 1.8);
  // Shortly after midnight the surge is already well above the normal
  // overnight trough.
  EXPECT_GT(spiked[1440 + 30], normal[1440 + 30] * 2.0);
}

TEST(B2wTraceTest, PromotionsAddMidScaleSpikes) {
  B2wTraceOptions options = DefaultB2w(60);
  options.promo_probability = 1.0;  // every day
  const TimeSeries with_promos = GenerateB2wTrace(options);
  options.promo_probability = 0.0;
  const TimeSeries without = GenerateB2wTrace(options);
  EXPECT_GT(with_promos.Mean(), without.Mean());
}

TEST(WikipediaTraceTest, LengthsAndLevels) {
  WikipediaTraceOptions options;
  options.days = 14;
  const TimeSeries en = GenerateWikipediaTrace(options);
  EXPECT_EQ(en.size(), 14u * 24u);
  EXPECT_EQ(en.slot_seconds(), 3600.0);
  // English peaks near 1e7 requests/hour (Fig. 6a).
  EXPECT_GT(en.Max(), 5e6);
  EXPECT_LT(en.Max(), 2e7);

  options.edition = WikipediaEdition::kGerman;
  const TimeSeries de = GenerateWikipediaTrace(options);
  // German is several times smaller.
  EXPECT_LT(de.Max(), en.Max() / 2.0);
}

TEST(WikipediaTraceTest, GermanIsLessPredictableThanEnglish) {
  // Proxy for predictability: relative error of the seasonal-naive
  // forecast (same hour yesterday). The paper's Fig. 6 shows German with
  // visibly higher prediction error.
  WikipediaTraceOptions options;
  options.days = 28;
  const TimeSeries en = GenerateWikipediaTrace(options);
  options.edition = WikipediaEdition::kGerman;
  const TimeSeries de = GenerateWikipediaTrace(options);

  auto naive_error = [](const TimeSeries& series) {
    double total = 0.0;
    int n = 0;
    for (size_t i = 24; i < series.size(); ++i) {
      total += std::abs(series[i] - series[i - 24]) / series[i];
      ++n;
    }
    return total / n;
  };
  EXPECT_GT(naive_error(de), naive_error(en) * 1.5);
}

TEST(SpikeInjectorTest, ShapeAndBounds) {
  TimeSeries base(60.0, std::vector<double>(200, 100.0));
  SpikeOptions spike;
  spike.start_slot = 50;
  spike.ramp_slots = 10;
  spike.sustain_slots = 20;
  spike.decay_slots = 10;
  spike.magnitude = 3.0;
  const TimeSeries out = InjectSpike(base, spike);
  // Before the spike: untouched.
  EXPECT_EQ(out[49], 100.0);
  // Ramp rises monotonically.
  EXPECT_GT(out[55], out[51]);
  // Sustain at full magnitude.
  EXPECT_NEAR(out[65], 300.0, 1e-9);
  // Decay returns to baseline.
  EXPECT_NEAR(out[95], 100.0, 1e-9);
  EXPECT_EQ(out[150], 100.0);
}

TEST(SpikeInjectorTest, SpikeBeyondEndIsIgnored) {
  TimeSeries base(60.0, std::vector<double>(10, 1.0));
  SpikeOptions spike;
  spike.start_slot = 50;
  const TimeSeries out = InjectSpike(base, spike);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 1.0);
}

TEST(TraceIoTest, RoundTrip) {
  const TimeSeries trace = GenerateB2wTrace(DefaultB2w(1));
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.csv";
  ASSERT_TRUE(SaveTraceCsv(trace, path).ok());
  StatusOr<TimeSeries> loaded = LoadTraceCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), trace.size());
  EXPECT_EQ(loaded->slot_seconds(), trace.slot_seconds());
  for (size_t i = 0; i < trace.size(); i += 97) {
    EXPECT_NEAR((*loaded)[i], trace[i], 1e-6 * std::max(1.0, trace[i]));
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileFails) {
  EXPECT_FALSE(LoadTraceCsv("/nonexistent/path/trace.csv").ok());
}

// Loads `contents` through a temporary file.
StatusOr<TimeSeries> LoadTraceText(const std::string& contents) {
  const std::string path = ::testing::TempDir() + "/trace_text.csv";
  {
    std::ofstream out(path);
    out << contents;
  }
  StatusOr<TimeSeries> loaded = LoadTraceCsv(path);
  std::remove(path.c_str());
  return loaded;
}

// A NaN slot duration passed the `<= 0` test and CHECK-aborted the
// capacity simulator later; infinity passed it too.
TEST(TraceIoTest, RejectsSlotSecondsThatAreNotFiniteAndPositive) {
  for (const std::string bad : {"nan", "inf", "-inf", "0", "-60"}) {
    const StatusOr<TimeSeries> loaded =
        LoadTraceText("# slot_seconds=" + bad + "\nslot,value\n0,100\n");
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos)
        << loaded.status().message();
  }
}

// Non-finite and negative loads were loaded and simulated silently.
TEST(TraceIoTest, RejectsLoadsThatAreNotFiniteOrAreNegative) {
  for (const std::string bad : {"nan", "inf", "-inf", "-1e9", "-0.5"}) {
    const StatusOr<TimeSeries> loaded = LoadTraceText(
        "# slot_seconds=60\nslot,value\n0,100\n1," + bad + "\n2,100\n");
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(loaded.status().message().find("line 4"), std::string::npos)
        << loaded.status().message();
  }
  const StatusOr<TimeSeries> zero =
      LoadTraceText("# slot_seconds=60\nslot,value\n0,0\n1,-0\n");
  ASSERT_TRUE(zero.ok()) << zero.status().message();
  EXPECT_EQ(zero->size(), 2u);
}

// A row that did not parse was skipped as if it were a header, and strtod
// took "12xyz" as 12, so this file loaded as four slots 100 200 400 12.
TEST(TraceIoTest, RejectsRowsThatDoNotParseInFull) {
  const StatusOr<TimeSeries> abc =
      LoadTraceText("slot,value\n0,100\n1,200\n2,abc\n3,400\n4,12xyz\n");
  ASSERT_FALSE(abc.ok());
  EXPECT_EQ(abc.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(abc.status().message().find("line 4"), std::string::npos)
      << abc.status().message();
  const StatusOr<TimeSeries> xyz =
      LoadTraceText("slot,value\n0,100\n1,200\n2,300\n3,400\n4,12xyz\n");
  ASSERT_FALSE(xyz.ok());
  EXPECT_NE(xyz.status().message().find("line 6"), std::string::npos)
      << xyz.status().message();
  // Only one header, and only before the first data row.
  for (const std::string bad :
       {"slot,value\nslot,value\n0,1\n", "slot,value\n0,1\nslot,value\n",
        "0,1\n1\n", "0,1\n1,\n", "0,1\n+1,2\n", "0,1\n 1,2\n"}) {
    const StatusOr<TimeSeries> loaded = LoadTraceText(bad);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// The slot column was never read: a skipped or repeated slot loaded as
// if the rows were consecutive.
TEST(TraceIoTest, RejectsSlotsThatDoNotCountUpFromZero) {
  for (const std::string bad : {"slot,value\n0,100\n1,200\n3,300\n",
                                "slot,value\n1,100\n",
                                "slot,value\n0,100\n0,200\n"}) {
    const StatusOr<TimeSeries> loaded = LoadTraceText(bad);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(loaded.status().message().find("expected slot"),
              std::string::npos)
        << loaded.status().message();
  }
  // Without a header, with CRLF line ends and blank lines, it loads.
  const StatusOr<TimeSeries> plain =
      LoadTraceText("0,100\r\n\n1,2.5e2\r\n# note\n2,0\n");
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  ASSERT_EQ(plain->size(), 3u);
  EXPECT_EQ((*plain)[1], 250.0);
}

}  // namespace
}  // namespace pstore
