#ifndef PSTORE_SIM_CAPACITY_SIMULATOR_H_
#define PSTORE_SIM_CAPACITY_SIMULATOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/time_series.h"
#include "obs/tracer.h"
#include "planner/move_model_table.h"
#include "prediction/predictor.h"

namespace pstore {

// Options of the long-horizon capacity simulator (paper §8.3): it steps
// through months of load at fine (per-minute) granularity, letting each
// allocation strategy decide when to reconfigure, and accounts cost
// (machine-slots, Eq. 1) and the time during which the offered load
// exceeded the effective capacity of the cluster — including the reduced
// capacity while data is in flight (Eq. 7).
// One coarse fault window for the capacity simulator: while the window
// is active the cluster's effective capacity is multiplied by
// `capacity_multiplier` (e.g. a crashed node out of n healthy ones is
// (n-1)/n). Overlapping windows compound by taking the minimum.
struct CapacityFault {
  size_t begin_fine_slot = 0;
  size_t end_fine_slot = 0;  // exclusive
  double capacity_multiplier = 1.0;
};

struct SimOptions {
  // Fine slots per planning slot (the paper plans at 5-minute granularity
  // over a 1-minute trace, so violations occur even under a perfect
  // predictor).
  int plan_slot_factor = 5;
  // Planner horizon, in planning slots.
  int horizon_plan_slots = 36;
  // Q and Q-hat, in the units of the trace (e.g. txn/s). Q governs
  // provisioning; Q-hat governs what the machines can actually serve,
  // i.e. what counts as insufficient capacity.
  double q = 285.0;
  double q_hat = 350.0;
  // D in fine slots (the paper's 77 minutes on a per-minute trace).
  double d_fine_slots = 77.0;
  int partitions_per_node = 6;
  int initial_nodes = 4;
  int max_nodes = 60;
  int scale_in_confirm_cycles = 3;
  // Multiplier applied to predictions before planning (§8.2: 15%).
  double inflation = 1.15;
  // Ablation: plan as if new machines were instantly at full capacity
  // (ignoring Eq. 7). Violations are always *measured* against the true
  // effective capacity.
  bool naive_capacity_planner = false;
  // Database growth, as a fraction of the original size per day: the
  // *actual* migration time D(t) grows accordingly (more data to move),
  // probing §4.2's "database size is not quickly changing" assumption.
  double d_growth_per_day = 0.0;
  // When true (the paper's prescription), the planner re-discovers D as
  // the database grows; when false it keeps planning with the original,
  // increasingly stale D.
  bool refresh_d = true;
  // Fine slot at which evaluation starts (history before it is the
  // predictor's warmup window).
  size_t eval_begin = 0;
  // Injected fault windows (see CapacityFault). Strategies do not see
  // them when planning; violations are measured against the degraded
  // capacity, so faults show up as fault-attributed insufficiency.
  std::vector<CapacityFault> faults;
  // Simulated duration of one fine slot, used only to timestamp trace
  // events (the paper's traces are per-minute).
  double fine_slot_sim_seconds = 60.0;
};

// Reactive-baseline knobs (same semantics as ReactiveController: the
// default high watermark above 1.0 models reacting to detected stress —
// the system never calibrated Q-hat offline; lowering the watermark buys
// a proactive buffer at higher cost, tracing the Fig. 12 reactive curve).
struct ReactiveSimParams {
  double high_watermark = 1.1;
  double low_watermark = 0.7;
  int low_slots_required = 10;
  double headroom = 0.10;
  // Slots of sustained overload before the reconfiguration starts
  // (E-Store's detailed-monitoring phase).
  int detection_slots = 5;
};

// "Simple" time-of-day baseline knobs.
struct SimpleSimParams {
  int slots_per_day = 1440;
  int up_slot = 8 * 60;
  int down_slot = 23 * 60;
  int day_nodes = 10;
  int night_nodes = 3;
};

// Result of one simulated run over the evaluation window.
struct SimResult {
  // Sum over fine slots of machines allocated (the Eq. 1 cost).
  double machine_slots = 0.0;
  // Fine slots in which load exceeded the Q-hat effective capacity.
  int64_t insufficient_slots = 0;
  double insufficient_fraction = 0.0;
  // Subset of the above that occurred while a reconfiguration was in
  // flight, plus the total in-flight slot count (isolates the Eq. 7
  // effect for the effective-capacity ablation).
  int64_t insufficient_during_move_slots = 0;
  int64_t move_slots = 0;
  // Fine slots with an injected fault active, and the subset of
  // insufficient slots that had one (fault-attributed violations, kept
  // separate from the migration attribution above).
  int64_t fault_slots = 0;
  int64_t insufficient_during_fault_slots = 0;
  int reconfigurations = 0;
  // Per evaluated fine slot (for Fig. 13-style plots).
  std::vector<double> effective_capacity;
  std::vector<int> machines;
};

// Steps strategies over a fine-grained load trace. The same instance can
// run multiple strategies over the same trace for comparisons.
class CapacitySimulator {
 public:
  explicit CapacitySimulator(const SimOptions& options);

  // P-Store: plan with the DP over predictions from `predictor`, which
  // must be fitted on (a prefix of) the *planning-granularity* trace:
  // the mean-downsampled series of `fine_trace` by plan_slot_factor.
  // Pass inflation = 1.0 in options for the oracle variant.
  StatusOr<SimResult> RunPredictive(const TimeSeries& fine_trace,
                                    const LoadPredictor& predictor) const;

  // Reactive baseline: threshold-triggered scale-out/in.
  StatusOr<SimResult> RunReactive(const TimeSeries& fine_trace,
                                  const ReactiveSimParams& params) const;

  // Time-of-day baseline.
  StatusOr<SimResult> RunSimple(const TimeSeries& fine_trace,
                                const SimpleSimParams& params) const;

  // Fixed allocation.
  StatusOr<SimResult> RunStatic(const TimeSeries& fine_trace,
                                int nodes) const;

  const SimOptions& options() const { return options_; }

  // Observability: runs emit sim.cycle / sim.forecast / sim.action at
  // plan boundaries (RunPredictive), sim.move.start / sim.move.done for
  // reconfigurations, and sim.insufficient per violating fine slot.
  // Timestamps derive from the fine slot index and fine_slot_sim_seconds.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  class Run;  // defined in the .cc

  SimOptions options_;
  // T(B,A)/C(B,A)/avg-mach-alloc grid up to max_nodes, built once per
  // simulator from the planning params and attached (read-only) to
  // every DpPlanner the strategies construct — except when refresh_d
  // rescales D mid-run, which changes the params the table was built
  // from (the planner then recomputes directly).
  std::unique_ptr<const MoveModelTable> move_table_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace pstore

#endif  // PSTORE_SIM_CAPACITY_SIMULATOR_H_
