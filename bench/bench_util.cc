#include "bench_util.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "controller/engine_run.h"
#include "sim/run_spec.h"

namespace pstore {
namespace bench {

void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper reference: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

std::unique_ptr<CsvWriter> OpenCsv(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (ec) return nullptr;
  auto writer = std::make_unique<CsvWriter>("bench_out/" + name);
  if (!writer->ok()) return nullptr;
  return writer;
}

void CloseCsv(CsvWriter* csv) {
  if (csv == nullptr) return;
  const Status closed = csv->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "warning: %s\n", closed.ToString().c_str());
  }
}

EngineRun PaperEngineRun(const std::string& label, Strategy strategy,
                         int nodes, int replay_days, double scale) {
  EngineRun run;
  run.spec.label = label;
  run.spec.strategy = strategy;
  run.spec.seed = 42;
  if (strategy == Strategy::kPredictive) {
    run.spec.predictor_spec = "spar(tau_stride=5)";
  }
  WorkloadSpec& workload = run.spec.workload;
  workload.kind = WorkloadSpec::Kind::kB2wSynthetic;
  workload.b2w.days = kTrainingDays + replay_days;
  // ~1500 txn/s at 10x acceleration: 10 machines at Q-hat = 350 leave
  // comfortable headroom, 4 do not (the paper's Fig. 9 setup).
  workload.b2w.peak_requests_per_min = 9000.0;
  // req/min -> txn/s at 10x replay speed, scaled.
  workload.scale = 10.0 / 60.0 * scale;

  // The option structs' defaults are the paper calibration; only the
  // start, the seed and the scaled quantities differ.
  EngineRunOptions& options = run.options;
  options.cluster.initial_nodes = nodes;
  options.b2w.cart_pool = static_cast<uint64_t>(300000 * scale);
  options.b2w.checkout_pool = static_cast<uint64_t>(120000 * scale);
  options.driver.start_slot = static_cast<size_t>(kTrainingDays) * 1440;
  options.driver.seed = run.spec.seed * 7919 + 13;
  options.controller.planner_params.target_rate_per_node = 285.0 * scale;
  options.controller.planner_params.max_rate_per_node = 350.0 * scale;
  return run;
}

std::vector<EngineRunResult> RunEngineExperiments(
    const std::vector<EngineRun>& runs, int threads) {
  std::vector<EngineRunResult> results(runs.size());
  ThreadPool pool(ResolveThreadCount(threads));
  const Status status =
      pool.ParallelForStatus(runs.size(), [&](size_t i) -> Status {
        StatusOr<EngineRunResult> result =
            RunEngine(runs[i].spec, runs[i].options);
        if (!result.ok()) return result.status();
        results[i] = std::move(result).value();
        return Status::OK();
      });
  PSTORE_CHECK_OK(status);
  return results;
}

void PrintRunSummary(const std::string& label, const EngineRunResult& run) {
  std::printf(
      "%-20s  viol(p50/p95/p99)=%4lld /%5lld /%5lld  avg machines=%5.2f  "
      "reconfigs=%2lld  committed=%lld\n",
      label.c_str(), static_cast<long long>(run.sla.total.p50),
      static_cast<long long>(run.sla.total.p95),
      static_cast<long long>(run.sla.total.p99), run.avg_machines,
      static_cast<long long>(run.reconfigurations),
      static_cast<long long>(run.committed));
}

}  // namespace bench
}  // namespace pstore
