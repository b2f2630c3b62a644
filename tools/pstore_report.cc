// pstore_report: render a structured JSONL trace (written by
// pstore_simulate / pstore_chaos / bench harnesses via --trace-out)
// into a human-readable per-run report: headline counters, forecast
// accuracy, wall-time rollups, and a per-cycle timeline.
//
// Usage:
//   pstore_report --trace=run.jsonl [--max-rows=40] [--csv=cycles.csv]
//
// --max-rows bounds the timeline (0 = summary only, negative = all
// rows); --csv additionally writes the full per-cycle table as CSV.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "obs/run_report.h"
#include "obs/trace_reader.h"

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

  const std::string trace_path = flags.GetString("trace", "");
  const StatusOr<int64_t> max_rows = flags.GetInt("max-rows", 40);
  const std::string csv_path = flags.GetString("csv", "");
  const Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) return Fail(all_read.message());
  if (trace_path.empty()) return Fail("--trace=<jsonl> is required");
  if (!max_rows.ok()) return Fail(max_rows.status().ToString());

  StatusOr<std::vector<obs::ParsedTraceEvent>> events =
      obs::ReadTraceFile(trace_path);
  if (!events.ok()) return Fail(events.status().ToString());

  StatusOr<obs::RunReport> report = obs::BuildRunReport(*events);
  if (!report.ok()) return Fail(report.status().ToString());

  std::printf("%s", obs::RenderRunReport(
                        *report, static_cast<int>(*max_rows)).c_str());

  if (!csv_path.empty()) {
    const Status written = obs::WriteCycleCsv(*report, csv_path);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("\nPer-cycle CSV written to %s\n", csv_path.c_str());
  }
  return 0;
}
