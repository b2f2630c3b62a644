// Extension: chaos drill on the Black-Friday replay. Runs the engine
// through the Black-Friday surge twice — once clean and once with a node
// crashing mid-scale-out (recovering ten trace-minutes later) — and
// reports what the fault cost: chunk retries and failed/repeated
// reconfigurations, transactions failed fast as unavailable, the time
// until the SLA was restored after the crash, and the violation windows
// attributed to the fault vs. ordinary migration overhead vs. baseline
// capacity shortfall.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/sim_time.h"
#include "controller/engine_run.h"
#include "engine/metrics.h"
#include "fault/fault_schedule.h"
#include "sim/run_spec.h"

namespace {

using namespace pstore;

constexpr int kReplayDays = 2;
// Black Friday is the second replayed day.
constexpr int kBlackFridayDay = bench::kTrainingDays + 1;
// Crash at 10:00 of the Black-Friday morning ramp (replay seconds: one
// full day plus 600 trace minutes at 6 s each), while the controller's
// scale-out toward the afternoon peak is in flight; recover 10 trace
// minutes later.
constexpr double kCrashSeconds = (1440.0 + 600.0) * 6.0;
constexpr double kRecoverSeconds = kCrashSeconds + 600.0;
constexpr int kCrashNode = 5;

// Seconds from the crash until service is fully restored: the end of
// the last window at or after the crash (and before `until`) in which
// clients either saw unavailability errors or a p99 SLA violation.
// 0 when the crash had no client-visible impact.
double RestoredAfterSeconds(const std::vector<WindowStats>& windows,
                            double until) {
  double last_impact = kCrashSeconds;
  for (const WindowStats& w : windows) {
    if (w.start_seconds < kCrashSeconds || w.start_seconds >= until) continue;
    const bool violated = w.completed > 0 && w.p99_ms > 500.0;
    if (w.unavailable > 0 || violated) {
      last_impact = std::max(last_impact, w.start_seconds + 1.0);
    }
  }
  return last_impact - kCrashSeconds;
}

// Windows with at least one unavailability error (the latency
// percentiles never see fast-failed transactions, so availability is
// accounted separately).
int64_t UnavailableWindows(const std::vector<WindowStats>& windows) {
  int64_t n = 0;
  for (const WindowStats& w : windows) {
    if (w.unavailable > 0) ++n;
  }
  return n;
}

void PrintRun(const char* label, const EngineRunResult& run) {
  std::printf("%-16s viol(p50/p95/p99)=%4lld /%5lld /%5lld  "
              "avg machines=%5.2f  reconfigs=%2lld (+%lld failed)  "
              "chunk retries=%3lld  unavailable=%lld\n",
              label, static_cast<long long>(run.sla.total.p50),
              static_cast<long long>(run.sla.total.p95),
              static_cast<long long>(run.sla.total.p99), run.avg_machines,
              static_cast<long long>(run.reconfigurations),
              static_cast<long long>(run.failed_reconfigurations),
              static_cast<long long>(run.chunk_retries),
              static_cast<long long>(run.unavailable));
  std::printf("%-16s p99 violations by attribution: fault=%lld "
              "migration=%lld baseline=%lld\n",
              "", static_cast<long long>(run.sla.during_fault.p99),
              static_cast<long long>(run.sla.during_migration.p99),
              static_cast<long long>(run.sla.baseline.p99));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Extension: chaos drill — node crash mid-scale-out on Black Friday",
      "recovery is bounded: chunk retries + a controller re-plan restore "
      "the SLA; violations under the fault are attributed to it");

  bench::EngineRun clean_run = bench::PaperEngineRun(
      "chaos-drill", Strategy::kPredictive, 4, kReplayDays, 0.5);
  clean_run.spec.workload.b2w.black_friday_day = kBlackFridayDay;
  bench::EngineRun faulted_run = clean_run;
  FaultEvent crash;
  crash.at = FromSeconds(kCrashSeconds);
  crash.kind = FaultKind::kNodeCrash;
  crash.node = kCrashNode;
  FaultEvent recover = crash;
  recover.at = FromSeconds(kRecoverSeconds);
  recover.kind = FaultKind::kNodeRecover;
  faulted_run.options.faults = {crash, recover};
  const std::vector<EngineRunResult> runs =
      bench::RunEngineExperiments({clean_run, faulted_run}, 0);
  const EngineRunResult& clean = runs[0];
  const EngineRunResult& faulted = runs[1];

  std::printf("\nClean Black-Friday replay (no faults):\n");
  PrintRun("clean", clean);
  std::printf("\nSame replay, node %d crashes at t=%.0fs (BF 10:00), "
              "recovers at t=%.0fs:\n",
              kCrashNode, kCrashSeconds, kRecoverSeconds);
  PrintRun("crash+recover", faulted);

  // Only look 30 trace minutes past the recovery for residual impact;
  // later violations (the Black-Friday afternoon peak) happen in the
  // clean run too and are not the crash's doing.
  const double horizon = kRecoverSeconds + 1800.0;
  const double restored = RestoredAfterSeconds(faulted.windows, horizon);
  std::printf("\nservice restored %.0f s after the crash (outage was %.0f "
              "s; clean-run reference: %.0f s)\n",
              restored, kRecoverSeconds - kCrashSeconds,
              RestoredAfterSeconds(clean.windows, horizon));
  std::printf("fault cost: %lld unavailable txns over %lld windows, "
              "%lld chunk retries, %lld aborted reconfigurations "
              "(controller re-planned each)\n",
              static_cast<long long>(faulted.unavailable),
              static_cast<long long>(UnavailableWindows(faulted.windows)),
              static_cast<long long>(faulted.chunk_retries),
              static_cast<long long>(faulted.failed_reconfigurations));
  PSTORE_CHECK(faulted.chunk_retries > 0);   // the crash hit a migration
  PSTORE_CHECK(restored >= kRecoverSeconds - kCrashSeconds);
  PSTORE_CHECK(restored <= horizon - kCrashSeconds);

  // Per-second trace around the crash, for plotting.
  auto csv = bench::OpenCsv("ext_chaos_drill.csv");
  if (csv) {
    csv->WriteRow({"seconds", "p99_ms", "unavailable", "machines",
                   "migrating", "fault"});
    for (const WindowStats& w : faulted.windows) {
      if (w.start_seconds < kCrashSeconds - 600.0 ||
          w.start_seconds > kRecoverSeconds + 1800.0) {
        continue;
      }
      csv->WriteRow({std::to_string(w.start_seconds),
                     std::to_string(w.p99_ms),
                     std::to_string(w.unavailable),
                     std::to_string(w.machines),
                     std::to_string(w.migrating ? 1 : 0),
                     std::to_string(w.fault ? 1 : 0)});
    }
  }
  bench::CloseCsv(csv.get());
  return 0;
}
