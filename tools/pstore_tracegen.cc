// pstore_tracegen: generate synthetic load traces (B2W-like retail or
// Wikipedia-like pageviews) and write them as CSV for the planner tool,
// notebooks, or external consumers.
//
// Usage:
//   pstore_tracegen --kind=b2w --days=30 --seed=42 --out=trace.csv
//   pstore_tracegen --kind=wikipedia --edition=de --days=56 --out=de.csv
//
// Flags (b2w): --peak (req/min), --trough-fraction, --black-friday=DAY,
//              --promo-probability, --noise, --drift
// Flags (wikipedia): --edition=en|de

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "common/time_series.h"
#include "trace/b2w_trace_generator.h"
#include "trace/trace_io.h"
#include "trace/wikipedia_trace_generator.h"

using namespace pstore;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  const Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Fail(parsed.ToString());

  const std::string kind = flags.GetString("kind", "b2w");
  const std::string out = flags.GetString("out", "trace.csv");
  const StatusOr<int64_t> days = flags.GetInt("days", 30);
  const StatusOr<int64_t> seed = flags.GetInt("seed", 42);
  // --kind=b2w knobs.
  const B2wTraceOptions b2w_defaults;
  const StatusOr<double> peak = flags.GetDouble("peak", 22000.0);
  const StatusOr<double> trough =
      flags.GetDouble("trough-fraction", b2w_defaults.trough_fraction);
  const StatusOr<double> noise =
      flags.GetDouble("noise", b2w_defaults.slot_noise_sigma);
  const StatusOr<double> drift =
      flags.GetDouble("drift", b2w_defaults.drift_sigma);
  const StatusOr<double> promo =
      flags.GetDouble("promo-probability", b2w_defaults.promo_probability);
  const StatusOr<int64_t> black_friday = flags.GetInt("black-friday", -1);
  // --kind=wikipedia knob.
  const std::string edition = flags.GetString("edition", "en");
  const Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) return Fail(all_read.message());
  for (const Status& status :
       {days.status(), seed.status(), peak.status(), trough.status(),
        noise.status(), drift.status(), promo.status(),
        black_friday.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }

  TimeSeries trace;
  if (kind == "b2w") {
    B2wTraceOptions options;
    options.days = static_cast<int>(*days);
    options.seed = static_cast<uint64_t>(*seed);
    options.peak_requests_per_min = *peak;
    options.trough_fraction = *trough;
    options.slot_noise_sigma = *noise;
    options.drift_sigma = *drift;
    options.promo_probability = *promo;
    options.black_friday_day = static_cast<int>(*black_friday);
    trace = GenerateB2wTrace(options);
  } else if (kind == "wikipedia") {
    WikipediaTraceOptions options;
    options.days = static_cast<int>(*days);
    options.seed = static_cast<uint64_t>(*seed);
    if (edition == "en") {
      options.edition = WikipediaEdition::kEnglish;
    } else if (edition == "de") {
      options.edition = WikipediaEdition::kGerman;
    } else {
      return Fail("unknown --edition (want en or de): " + edition);
    }
    trace = GenerateWikipediaTrace(options);
  } else {
    return Fail("unknown --kind (want b2w or wikipedia): " + kind);
  }

  const Status saved = SaveTraceCsv(trace, out);
  if (!saved.ok()) return Fail(saved.ToString());
  std::printf(
      "wrote %zu slots (%.0f s each) to %s  [min %.0f, mean %.0f, max "
      "%.0f]\n",
      trace.size(), trace.slot_seconds(), out.c_str(), trace.Min(),
      trace.Mean(), trace.Max());
  return 0;
}
