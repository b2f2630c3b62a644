// pstore_traceinfo: analyze a load trace CSV — summary statistics,
// detected periodicity, peak/trough structure, and recommended predictor
// and planner parameters.
//
// Usage: pstore_traceinfo --trace=trace.csv [--q=<per-node capacity>]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/time_series.h"
#include "trace/trace_io.h"

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
  const std::string path = flags.GetString("trace", "");
  const StatusOr<double> q = flags.GetDouble("q", 0.0);
  const Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) return Fail(all_read.message());
  if (path.empty()) return Fail("--trace=<csv> is required");
  if (!q.ok()) return Fail(q.status().ToString());

  StatusOr<TimeSeries> trace = LoadTraceCsv(path);
  if (!trace.ok()) return Fail(trace.status().ToString());
  if (trace->size() < 16) return Fail("trace too short to analyze");

  const double slot_seconds = trace->slot_seconds();
  std::printf("Trace %s: %zu slots of %.0f s (%.1f days)\n", path.c_str(),
              trace->size(), slot_seconds,
              trace->size() * slot_seconds / 86400.0);
  std::printf("  min %.0f   mean %.0f   max %.0f   stddev %.0f\n",
              trace->Min(), trace->Mean(), trace->Max(), trace->StdDev());
  std::printf("  peak/trough ratio: %.1fx\n",
              trace->Max() / std::max(1e-9, trace->Min()));

  // Periodicity: scan up to a week of lags (bounded by series length).
  const size_t max_lag =
      std::min(trace->size() / 2 - 1,
               static_cast<size_t>(7.5 * 86400.0 / slot_seconds));
  const size_t min_lag =
      std::max<size_t>(2, static_cast<size_t>(3600.0 / slot_seconds));
  StatusOr<size_t> period = DetectPeriod(*trace, min_lag, max_lag);
  if (period.ok()) {
    StatusOr<double> strength = Autocorrelation(*trace, *period);
    std::printf("  dominant period: %zu slots (%.1f hours), "
                "autocorrelation %.3f\n",
                *period, *period * slot_seconds / 3600.0,
                strength.ok() ? *strength : 0.0);
    const size_t day_lag =
        static_cast<size_t>(86400.0 / slot_seconds + 0.5);
    if (day_lag >= 1 && day_lag < trace->size()) {
      StatusOr<double> daily = Autocorrelation(*trace, day_lag);
      if (daily.ok()) {
        std::printf("  daily-lag autocorrelation: %.3f %s\n", *daily,
                    *daily > 0.7 ? "(strongly diurnal: SPAR will fit well)"
                                 : "(weak diurnal pattern)");
      }
    }
    std::printf("\nRecommended predictor: SPAR with period=%zu, n=7, "
                "m=%zu, trained on >= %zu slots (4 periods + margin).\n",
                *period, std::max<size_t>(6, *period / 48),
                7 * *period + 2 * *period);
  }

  if (*q > 0.0) {
    const int peak_nodes =
        static_cast<int>(std::ceil(trace->Max() / *q));
    const int trough_nodes =
        static_cast<int>(std::ceil(std::max(1.0, trace->Min()) / *q));
    double mean_nodes = 0.0;
    for (size_t i = 0; i < trace->size(); ++i) {
      mean_nodes += std::ceil(std::max(1.0, (*trace)[i]) / *q);
    }
    mean_nodes /= static_cast<double>(trace->size());
    std::printf(
        "\nAt Q=%.0f per machine: peak needs %d machines, trough %d; "
        "perfect elasticity would average %.2f machines (%.0f%% of "
        "static peak provisioning).\n",
        *q, peak_nodes, trough_nodes, mean_nodes,
        100.0 * mean_nodes / peak_nodes);
  }
  return 0;
}
