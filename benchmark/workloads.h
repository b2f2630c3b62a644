#ifndef PSTORE_BENCHMARK_WORKLOADS_H_
#define PSTORE_BENCHMARK_WORKLOADS_H_

// The benchmark's reference workloads. Each rep runs in its own child
// process: set up from the seed, run the timed phase, check the outputs,
// and hand back what the parent aggregates.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pstore {
namespace bench {

struct WorkloadInfo {
  const char* name;
  // Why the workload is in the set: which layers it exercises, and
  // which ones it leaves idle so a change there should not move it.
  const char* why;
  // What one unit of `work` is (work_per_s = work / wall_s).
  const char* work_unit;
};

// The workloads in run order.
const std::vector<WorkloadInfo>& Workloads();

struct RepResult {
  // Host seconds of set-up (inputs generated, data loaded, models
  // fitted) and of the timed phase.
  double setup_s = 0.0;
  double wall_s = 0.0;
  // Work units completed in the timed phase.
  double work = 0.0;
  // Simulated outcomes, deterministic for a seed.
  double sim_machine_hours = 0.0;
  double sim_sla_violation_s = 0.0;
  // FNV-1a digest of every simulated output the rep produced.
  std::string sim_digest;
  // Invariant violations; a rep with any is a failed rep.
  std::vector<std::string> failures;
  // Per-layer values of a traced rep, by per-layer metric name.
  std::vector<std::pair<std::string, double>> layers;
};

// Runs one rep of `workload`. With `traced`, wraps the layer boundaries
// in probes, fills `layers` and writes the rep's spans to `spans_path`.
// Errors are reserved for a workload the library refused to run.
StatusOr<RepResult> RunRep(const std::string& workload, uint64_t seed,
                           bool traced, const std::string& spans_path);

}  // namespace bench
}  // namespace pstore

#endif  // PSTORE_BENCHMARK_WORKLOADS_H_
