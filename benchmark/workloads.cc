#include "workloads.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/time_series.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "fleet/fleet_simulator.h"
#include "fleet/tenant.h"
#include "migration/squall_migrator.h"
#include "obs/tracer.h"
#include "planner/move_model.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"
#include "prediction/spar_model.h"
#include "probes.h"
#include "sim/capacity_simulator.h"
#include "sim/run_spec.h"
#include "trace/b2w_trace_generator.h"
#include "ycsb/ycsb_workload.h"

namespace pstore {
namespace bench {
namespace {

// Per-call spans past this many in one rep are counted, not kept: the
// capacity sweep makes ~10^5 forecast calls, and writing each would time
// the writer.
constexpr size_t kSpanCapacity = 20000;

// FNV-1a over the bytes of every simulated output of a rep.
class Digest {
 public:
  void Add(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  void Add(int64_t value) { Add(&value, sizeof(value)); }
  void Add(double value) { Add(&value, sizeof(value)); }
  void Add(const std::string& text) { Add(text.data(), text.size()); }

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// A rep's span log, or nothing for an untraced rep. `current` is the
// span the probes parent their per-call spans under.
class RepTrace {
 public:
  explicit RepTrace(bool traced) {
    if (traced) {
      spans_ = std::make_unique<SpanLog>(kSpanCapacity);
      root_ = spans_->Begin("rep", -1);
    }
  }

  bool on() const { return spans_ != nullptr; }
  SpanLog* spans() { return spans_.get(); }
  int root() const { return root_; }
  int* current() { return &current_; }

  int Begin(const std::string& name, int parent) {
    return on() ? spans_->Begin(name, parent) : -1;
  }
  void End(int id) {
    if (on()) spans_->End(id);
  }

  Status Finish(const std::string& path) {
    if (!on()) return Status::OK();
    spans_->End(root_);
    return spans_->WriteJsonl(path);
  }

 private:
  std::unique_ptr<SpanLog> spans_;
  int root_ = -1;
  int current_ = -1;
};

// One timed phase: a span under `parent` and its host seconds.
class Phase {
 public:
  Phase(RepTrace* trace, const std::string& name, int parent)
      : trace_(trace), id_(trace->Begin(name, parent)), start_(NowNs()) {}

  int id() const { return id_; }
  int64_t start_ns() const { return start_; }
  double Stop() {
    trace_->End(id_);
    return 1e-9 * static_cast<double>(NowNs() - start_);
  }

 private:
  RepTrace* trace_;
  int id_;
  int64_t start_;
};

void AddLayer(RepResult* result, std::string name, double value) {
  result->layers.emplace_back(std::move(name), value);
}

// ---- Engine workloads -------------------------------------------------------

// WorkloadDriver's transaction factory: the plain call the library's own
// benches install, or the same call inside the probe.
template <typename Workload>
WorkloadDriver::TxnFactory Factory(Workload* workload, TxnProbe* probe) {
  if (probe == nullptr) {
    return [workload](Rng& rng) { return workload->NextTransaction(rng); };
  }
  return [workload, probe](Rng& rng) {
    return probe->Call([&] { return workload->NextTransaction(rng); });
  };
}

// What every engine workload does from set-up to result: the timed
// phase (event loop to `end`, then the metrics summary) and the checks.
struct EngineRig {
  EventLoop* loop;
  WorkloadDriver* driver;
  TxnExecutor* executor;
  MetricsCollector* metrics;
  TxnProbe* probe;  // null when untraced
  SimTime end;
};

struct EngineOutcome {
  std::vector<WindowStats> windows;
  SlaViolations violations;
  double avg_machines = 0.0;
  double finalize_s = 0.0;
};

EngineOutcome RunEngine(RepTrace* trace, int timed_span, const EngineRig& rig) {
  EngineOutcome out;
  Phase run(trace, "engine.run", timed_span);
  *trace->current() = run.id();
  if (rig.probe != nullptr) rig.probe->Begin();
  rig.driver->Start(rig.end);
  rig.loop->RunUntil(rig.end);
  if (rig.probe != nullptr) rig.probe->End();
  run.Stop();
  Phase finalize(trace, "engine.finalize", timed_span);
  out.windows = rig.metrics->Finalize(rig.end);
  out.violations = MetricsCollector::CountViolations(out.windows);
  out.avg_machines = rig.metrics->AverageMachines(rig.end);
  out.finalize_s = finalize.Stop();
  return out;
}

// Simulated results, digest and invariants shared by the engine
// workloads.
void FinishEngine(const EngineRig& rig, const EngineOutcome& out,
                  int64_t reconfigurations, RepResult* result) {
  const TxnExecutor& executor = *rig.executor;
  result->work = static_cast<double>(executor.submitted_count());
  result->sim_machine_hours = out.avg_machines * ToSeconds(rig.end) / 3600.0;
  result->sim_sla_violation_s =
      static_cast<double>(out.violations.p99) * rig.metrics->window_seconds();
  if (executor.committed_count() + executor.aborted_count() !=
      executor.submitted_count()) {
    result->failures.push_back("committed + aborted != submitted");
  }
  if (executor.submitted_count() != rig.driver->arrivals_generated()) {
    result->failures.push_back("submitted != arrivals generated");
  }
  if (executor.submitted_count() == 0) {
    result->failures.push_back("no transactions submitted");
  }
  Digest digest;
  for (const int64_t count :
       {executor.submitted_count(), executor.committed_count(),
        executor.aborted_count(), executor.distributed_count(),
        executor.unavailable_count(), reconfigurations}) {
    digest.Add(count);
  }
  for (const WindowStats& w : out.windows) {
    digest.Add(w.start_seconds);
    digest.Add(w.submitted);
    digest.Add(w.completed);
    digest.Add(w.unavailable);
    digest.Add(w.p50_ms);
    digest.Add(w.p95_ms);
    digest.Add(w.p99_ms);
    digest.Add(static_cast<int64_t>(w.machines));
    digest.Add(static_cast<int64_t>(w.migrating) << 1 |
               static_cast<int64_t>(w.fault));
  }
  result->sim_digest = digest.Hex();
}

// Per-layer split of a traced engine rep. `control_s` is the control
// plane's host time inside the event loop (prediction and planner).
void EngineLayers(const std::string& gen_layer, const TxnProbe& probe,
                  const EngineOutcome& out, double control_s,
                  RepResult* result) {
  const double timer_cost_ns = CalibrateTimerCostNs();
  const TxnProbe::Split split = probe.Estimate(timer_cost_ns, control_s);
  AddLayer(result, gen_layer, split.gen_ns_per_txn);
  AddLayer(result, "engine.submit_ns_per_txn", split.submit_ns_per_txn);
  AddLayer(result, "engine.txns", static_cast<double>(split.calls));
  AddLayer(result, "engine.gen_s", split.gen_s);
  AddLayer(result, "engine.submit_s", split.submit_s);
  AddLayer(result, "engine.loop_s", split.loop_s);
  AddLayer(result, "engine.finalize_s", out.finalize_s);
  AddLayer(result, "engine.timer_cost_ns", timer_cost_ns);
  AddLayer(result, "obs.probe_s", split.probe_s);
  AddLayer(result, "bench.layer_sum_s",
           split.gen_s + split.submit_s + split.loop_s + control_s +
               out.finalize_s + split.probe_s);
}

ClusterOptions EngineCluster(int nodes, int max_nodes, int buckets) {
  ClusterOptions options;
  options.partitions_per_node = 6;
  options.max_nodes = max_nodes;
  options.initial_nodes = nodes;
  options.num_buckets = buckets;
  return options;
}

// b2w_pstore_1d: the engine replay behind the paper's headline
// experiment, configured as the repo's P-Store engine runs (bench_util's
// RunEngineExperiment): a B2W trace at 10x speed, 28 training days, the
// SPAR predictor refitted weekly, the paper's migration calibration.
//
// The load profile is one fixed reference trace, as the paper replays
// one recorded B2W trace; --seed drives the transaction stream (arrival
// times, procedures, keys). A seeded profile would change the replayed
// volume by several percent from seed to seed (day-to-day amplitude),
// and wall time with it.
constexpr int kPstoreTrainDays = 28;
constexpr int kPstoreReplayDays = 1;
constexpr int kPstoreNodes = 4;
constexpr uint64_t kReferenceTraceSeed = 42;

StatusOr<RepResult> RunB2wPstore(uint64_t seed, RepTrace* trace) {
  RepResult result;
  const int64_t setup_start = NowNs();
  const int setup = trace->Begin("setup", trace->root());

  Phase generate(trace, "trace.generate", setup);
  WorkloadSpec spec;
  spec.kind = WorkloadSpec::Kind::kB2wSynthetic;
  spec.b2w.days = kPstoreTrainDays + kPstoreReplayDays;
  spec.b2w.peak_requests_per_min = 9000.0;
  spec.b2w.seed = kReferenceTraceSeed;
  spec.scale = 10.0 / 60.0;  // req/min -> txn/s at 10x replay speed
  StatusOr<TimeSeries> series = BuildWorkloadTrace(spec);
  if (!series.ok()) return series.status();
  const double generate_s = generate.Stop();
  const size_t replay_begin = static_cast<size_t>(kPstoreTrainDays) * 1440;

  Phase load(trace, "b2w.load", setup);
  const ClusterOptions cluster_options =
      EngineCluster(kPstoreNodes, /*max_nodes=*/16, /*buckets=*/3600);
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  RETURN_IF_ERROR(b2w::RegisterProcedures(&executor));
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 300000;
  workload_options.checkout_pool = 120000;
  b2w::Workload workload(workload_options);
  RETURN_IF_ERROR(workload.LoadInitialData(&cluster));
  const double load_s = load.Stop();

  EventLoop loop;
  // ~250 kB/s sustained per pair with 1000 kB chunks: D ~= 77 minutes
  // for the ~1.1 GB database (paper §8.1).
  MigrationOptions migration_options;
  migration_options.net_rate_bytes_per_sec = 500e3;
  migration_options.chunk_spacing_seconds = 2.0;
  migration_options.chunk_bytes = 1000 * 1000;
  migration_options.extract_rate_bytes_per_sec = 20e6;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);
  metrics.RecordMachines(0, kPstoreNodes);

  TxnProbe probe(&loop);
  TxnProbe* probe_or_null = trace->on() ? &probe : nullptr;
  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;  // one trace minute at 10x
  driver_options.rate_factor = 1.0;
  driver_options.start_slot = replay_begin;
  driver_options.seed = seed * 7919 + 13;
  WorkloadDriver driver(&loop, &executor, *series,
                        Factory(&workload, probe_or_null), driver_options);

  PlannerParams planner_params;
  planner_params.target_rate_per_node = 285.0;
  planner_params.max_rate_per_node = 350.0;
  planner_params.partitions_per_node = 6;
  // Planning slot = 5 trace minutes = 30 simulated seconds.
  planner_params.d_slots = SingleThreadFullMigrationSeconds(
                               cluster.TotalDataBytes(), migration_options) /
                           30.0;

  SparOptions spar_options;
  spar_options.period = 1440;
  spar_options.num_periods = 7;
  spar_options.num_recent = 30;
  spar_options.max_tau = 240;
  spar_options.tau_stride = 5;
  std::unique_ptr<LoadPredictor> model =
      std::make_unique<SparPredictor>(spar_options);
  PredictorStats predictor_stats;
  if (trace->on()) {
    model = std::make_unique<TimedPredictor>(
        std::move(model), &predictor_stats, trace->spans(), trace->current());
  }
  OnlinePredictorOptions online_options;
  online_options.inflation = 1.15;
  online_options.training_window = replay_begin;
  online_options.refit_interval = 7 * 1440;
  OnlinePredictor predictor(std::move(model), online_options);
  Phase warmup(trace, "prediction.warmup", setup);
  *trace->current() = warmup.id();
  RETURN_IF_ERROR(predictor.Warmup(series->Slice(0, replay_begin)));
  const double warmup_s = warmup.Stop();
  predictor_stats = PredictorStats{};  // timed-phase calls only

  PredictiveControllerOptions controller_options;
  controller_options.slot_sim_seconds = 6.0;
  controller_options.plan_slot_factor = 5;
  controller_options.horizon_plan_slots = 48;  // 4 hours of trace time
  controller_options.planner_params = planner_params;
  PredictiveController controller(&loop, &cluster, &executor, &migration,
                                  &predictor, controller_options);
  obs::Tracer tracer;
  ControlPlaneSink* sink = nullptr;
  if (trace->on()) {
    auto owned = std::make_unique<ControlPlaneSink>(trace->spans(),
                                                    trace->current());
    sink = owned.get();
    tracer.SetSink(std::move(owned));
    controller.set_tracer(&tracer);
    migration.set_tracer(&tracer);
  }
  controller.Start();
  trace->End(setup);
  result.setup_s = 1e-9 * static_cast<double>(NowNs() - setup_start);

  const int64_t timed_start = NowNs();
  const int timed = trace->Begin("timed", trace->root());
  const EngineRig rig{&loop,   &driver,       &executor,
                      &metrics, probe_or_null, FromSeconds(kPstoreReplayDays *
                                                           1440 * 6.0)};
  const EngineOutcome out = RunEngine(trace, timed, rig);
  trace->End(timed);
  result.wall_s = 1e-9 * static_cast<double>(NowNs() - timed_start);

  FinishEngine(rig, out, migration.reconfigurations_completed(), &result);
  if (trace->on()) {
    const double control_s = predictor_stats.total_s() + sink->plan_s;
    EngineLayers("b2w.gen_ns_per_txn", probe, out, control_s, &result);
    AddLayer(&result, "trace.generate_s", generate_s);
    AddLayer(&result, "b2w.load_s", load_s);
    AddLayer(&result, "prediction.warmup_s", warmup_s);
    AddLayer(&result, "prediction.fit_s", predictor_stats.fit_s);
    AddLayer(&result, "prediction.update_s", predictor_stats.update_s);
    AddLayer(&result, "prediction.forecast_s", predictor_stats.forecast_s);
    AddLayer(&result, "prediction.forecast_calls",
             static_cast<double>(predictor_stats.forecasts));
    AddLayer(&result, "prediction.refits",
             static_cast<double>(predictor_stats.refits));
    AddLayer(&result, "planner.plan_s", sink->plan_s);
    AddLayer(&result, "planner.plan_calls",
             static_cast<double>(sink->plan_calls));
    AddLayer(&result, "planner.infeasible_plans",
             static_cast<double>(sink->infeasible_plans));
    AddLayer(&result, "controller.cycles",
             static_cast<double>(sink->controller_cycles));
    AddLayer(&result, "migration.reconfigurations",
             static_cast<double>(sink->reconfigurations));
    AddLayer(&result, "migration.chunks",
             static_cast<double>(sink->migration_chunks));
    AddLayer(&result, "migration.sim_active_s", sink->migration_sim_active_s);
  }
  return result;
}


// b2w_flat_100n and ycsb_skew_32n: `nodes` machines under a constant
// offered rate, no controller. `family` names the transaction generator
// ("b2w", "ycsb"); `load` registers its procedures and loads its data.
struct FlatRun {
  int nodes;
  int buckets;
  double rate;  // txn per simulated second, whole cluster
  int seconds;
};

template <typename Workload>
StatusOr<RepResult> RunFlatEngine(
    const FlatRun& flat, uint64_t seed, RepTrace* trace,
    const std::string& family,
    const std::function<StatusOr<std::unique_ptr<Workload>>(
        Cluster*, TxnExecutor*)>& load_workload) {
  RepResult result;
  const int64_t setup_start = NowNs();
  const int setup = trace->Begin("setup", trace->root());

  Phase generate(trace, "trace.generate", setup);
  const TimeSeries series(1.0, std::vector<double>(flat.seconds, flat.rate));
  const double generate_s = generate.Stop();

  Phase load(trace, family + ".load", setup);
  Cluster cluster(EngineCluster(flat.nodes, flat.nodes, flat.buckets));
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  StatusOr<std::unique_ptr<Workload>> workload =
      load_workload(&cluster, &executor);
  if (!workload.ok()) return workload.status();
  const double load_s = load.Stop();

  EventLoop loop;
  metrics.RecordMachines(0, flat.nodes);
  TxnProbe probe(&loop);
  TxnProbe* probe_or_null = trace->on() ? &probe : nullptr;
  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 1.0;
  driver_options.rate_factor = 1.0;
  driver_options.seed = seed * 7919 + 13;
  WorkloadDriver driver(&loop, &executor, series,
                        Factory(workload->get(), probe_or_null),
                        driver_options);
  trace->End(setup);
  result.setup_s = 1e-9 * static_cast<double>(NowNs() - setup_start);

  const int64_t timed_start = NowNs();
  const int timed = trace->Begin("timed", trace->root());
  const EngineRig rig{&loop,    &driver,       &executor,
                      &metrics, probe_or_null, flat.seconds * kSecond};
  const EngineOutcome out = RunEngine(trace, timed, rig);
  trace->End(timed);
  result.wall_s = 1e-9 * static_cast<double>(NowNs() - timed_start);

  FinishEngine(rig, out, /*reconfigurations=*/0, &result);
  if (trace->on()) {
    EngineLayers(family + ".gen_ns_per_txn", probe, out, /*control_s=*/0.0,
                 &result);
    AddLayer(&result, "trace.generate_s", generate_s);
    AddLayer(&result, family + ".load_s", load_s);
  }
  return result;
}

// b2w_flat_100n: the data plane alone at the 100-node scale of
// ext_linear_scalability (600 partitions, 15360 buckets), each machine
// offered Q = 285 txn/s.
StatusOr<RepResult> RunB2wFlat(uint64_t seed, RepTrace* trace) {
  const FlatRun flat{/*nodes=*/100, /*buckets=*/15360, /*rate=*/285.0 * 100,
                     /*seconds=*/120};
  return RunFlatEngine<b2w::Workload>(
      flat, seed, trace, "b2w",
      [](Cluster* cluster, TxnExecutor* executor)
          -> StatusOr<std::unique_ptr<b2w::Workload>> {
        RETURN_IF_ERROR(b2w::RegisterProcedures(executor));
        b2w::B2wWorkloadOptions options;
        options.cart_pool = 100000;
        options.checkout_pool = 40000;
        auto workload = std::make_unique<b2w::Workload>(options);
        RETURN_IF_ERROR(workload->LoadInitialData(cluster));
        return workload;
      });
}

// ycsb_skew_32n: YCSB mix A with zipf skew and 10% two-key transfers, so
// the multi-partition (2PC) path and skewed partition queues near the
// knee carry the load. Above theta ~0.7 the hot partition saturates and
// every window violates, so theta stays at 0.6.
StatusOr<RepResult> RunYcsbSkew(uint64_t seed, RepTrace* trace) {
  const FlatRun flat{/*nodes=*/32, /*buckets=*/3600, /*rate=*/8000.0,
                     /*seconds=*/300};
  return RunFlatEngine<ycsb::Workload>(
      flat, seed, trace, "ycsb",
      [](Cluster* cluster, TxnExecutor* executor)
          -> StatusOr<std::unique_ptr<ycsb::Workload>> {
        RETURN_IF_ERROR(ycsb::Workload::RegisterProcedures(executor));
        ycsb::YcsbWorkloadOptions options;
        options.mix = ycsb::Mix::kA;
        options.zipf_theta = 0.6;
        options.multi_key_fraction = 0.10;
        options.record_count = 1000000;
        auto workload = std::make_unique<ycsb::Workload>(options);
        RETURN_IF_ERROR(workload->LoadInitialData(cluster));
        return workload;
      });
}

// ---- Capacity simulator -----------------------------------------------------

// capacity_fig12_77d: fig12's strategy grid over its 11 weeks of B2W
// load with a Black Friday surge, through RunSweep on one thread. Seven
// weeks are evaluated, enough that the seed's day-to-day amplitude
// averages out of the simulated cost.
constexpr int kCapacityDays = 77;
constexpr int kCapacityTrainDays = 28;
constexpr int kCapacityBlackFriday = 70;

SimOptions CapacityOptions() {
  SimOptions options;
  options.plan_slot_factor = 5;
  options.horizon_plan_slots = 36;
  options.q = 285.0;
  options.q_hat = 350.0;
  options.d_fine_slots = 77.0;
  options.partitions_per_node = 6;
  options.initial_nodes = 4;
  options.max_nodes = 60;
  options.eval_begin = kCapacityTrainDays * 1440;
  return options;
}

// The fig12 grid: P-Store with SPAR and with the oracle across Q, then
// reactive across its watermark, Simple across day machines and Static
// across machine counts. Every spec borrows `trace`.
std::vector<RunSpec> CapacityGrid(const TimeSeries& trace,
                                  const LoadPredictor* spar,
                                  const LoadPredictor* oracle) {
  std::vector<RunSpec> specs;
  RunSpec base;
  base.workload.kind = WorkloadSpec::Kind::kProvided;
  base.workload.provided = &trace;
  base.sim = CapacityOptions();
  for (const double q : {200.0, 240.0, 285.0, 320.0, 340.0}) {
    RunSpec spec = base;
    spec.label = "spar_q" + std::to_string(static_cast<int>(q));
    spec.strategy = Strategy::kPredictive;
    spec.sim.q = q;
    spec.predictor = spar;
    specs.push_back(spec);
    spec.label = "oracle_q" + std::to_string(static_cast<int>(q));
    spec.sim.inflation = 1.0;
    spec.predictor = oracle;
    specs.push_back(spec);
  }
  for (const double watermark : {1.1, 1.0, 0.9, 0.8, 0.7}) {
    RunSpec spec = base;
    spec.label = "watermark" + std::to_string(watermark).substr(0, 3);
    spec.strategy = Strategy::kReactive;
    spec.reactive.high_watermark = watermark;
    specs.push_back(spec);
  }
  for (const int day_nodes : {8, 10, 12, 16, 20}) {
    RunSpec spec = base;
    spec.label = "day" + std::to_string(day_nodes);
    spec.strategy = Strategy::kSimple;
    spec.simple.day_nodes = day_nodes;
    spec.simple.night_nodes = 3;
    specs.push_back(spec);
  }
  for (const int nodes : {4, 6, 8, 10, 14, 20}) {
    RunSpec spec = base;
    spec.label = "static" + std::to_string(nodes);
    spec.strategy = Strategy::kStatic;
    spec.static_nodes = nodes;
    specs.push_back(spec);
  }
  return specs;
}

StatusOr<RepResult> RunCapacity(uint64_t seed, RepTrace* trace) {
  RepResult result;
  const int64_t setup_start = NowNs();
  const int setup = trace->Begin("setup", trace->root());

  Phase generate(trace, "trace.generate", setup);
  B2wTraceOptions trace_options;
  trace_options.days = kCapacityDays;
  trace_options.seed = seed;
  trace_options.peak_requests_per_min = 10500.0;
  trace_options.black_friday_day = kCapacityBlackFriday;
  const TimeSeries series =
      GenerateB2wTrace(trace_options).Scaled(10.0 / 60.0);
  const TimeSeries coarse = series.DownsampleMean(5);
  const double generate_s = generate.Stop();

  // Fitted once on the training window and shared read-only by every
  // predictive spec, as fig12 does.
  Phase warmup(trace, "prediction.warmup", setup);
  PredictorContext context;
  context.period = 1440 / 5;
  context.max_tau = 36;
  StatusOr<std::unique_ptr<LoadPredictor>> spar =
      MakePredictor("spar(n=7,m=6)", context);
  if (!spar.ok()) return spar.status();
  RETURN_IF_ERROR(
      (*spar)->Fit(coarse.Slice(0, static_cast<size_t>(kCapacityTrainDays) *
                                       288)));
  std::unique_ptr<LoadPredictor> oracle =
      std::make_unique<OraclePredictor>(coarse);
  const double warmup_s = warmup.Stop();
  PredictorStats predictor_stats;
  if (trace->on()) {
    *spar = std::make_unique<TimedPredictor>(
        std::move(*spar), &predictor_stats, trace->spans(), trace->current());
    oracle = std::make_unique<TimedPredictor>(
        std::move(oracle), &predictor_stats, trace->spans(), trace->current());
  }
  const std::vector<RunSpec> specs =
      CapacityGrid(series, spar->get(), oracle.get());
  trace->End(setup);
  result.setup_s = 1e-9 * static_cast<double>(NowNs() - setup_start);

  const int64_t timed_start = NowNs();
  const int timed = trace->Begin("timed", trace->root());
  Phase sweep_phase(trace, "sim.sweep", timed);
  *trace->current() = sweep_phase.id();
  SweepOptions sweep_options;
  sweep_options.threads = 1;
  const StatusOr<SweepResult> sweep = RunSweep(specs, sweep_options);
  sweep_phase.Stop();
  trace->End(timed);
  result.wall_s = 1e-9 * static_cast<double>(NowNs() - timed_start);
  if (!sweep.ok()) {
    result.failures.push_back("sweep failed: " + sweep.status().ToString());
    return result;
  }

  Digest digest;
  digest.Add(SweepCsvRows(specs, *sweep));
  result.sim_digest = digest.Hex();
  int64_t reconfigurations = 0;
  int64_t insufficient_slots = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const SimResult& sim = sweep->results[i];
    result.work += static_cast<double>(sim.machines.size());
    reconfigurations += sim.reconfigurations;
    insufficient_slots += sim.insufficient_slots;
    // The headline point: P-Store with SPAR at the paper's Q = 285, in
    // per-minute fine slots.
    if (specs[i].label == "spar_q285") {
      result.sim_machine_hours = sim.machine_slots / 60.0;
      result.sim_sla_violation_s =
          60.0 * static_cast<double>(sim.insufficient_slots);
    }
  }
  if (result.work == 0.0) result.failures.push_back("sweep simulated nothing");

  if (trace->on()) {
    // One thread runs the tasks back to back, so each task's span starts
    // where the previous one ended; forecast spans then move under the
    // task that made them.
    std::vector<double> strategy_s(4, 0.0);
    std::vector<int> task_spans;
    int64_t task_start = sweep_phase.start_ns();
    double layer_sum_s = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const double task_us = sweep->task_wall_us[i];
      const int64_t task_end = task_start + static_cast<int64_t>(1e3 * task_us);
      task_spans.push_back(trace->spans()->Add(
          std::string(StrategyName(specs[i].strategy)) + ":" + specs[i].label,
          sweep_phase.id(), task_start, task_end));
      task_start = task_end;
      strategy_s[static_cast<size_t>(specs[i].strategy)] += 1e-6 * task_us;
      layer_sum_s += 1e-6 * task_us;
    }
    trace->spans()->AdoptByTime(sweep_phase.id(), task_spans);
    AddLayer(&result, "sim.predictive_s",
             strategy_s[static_cast<size_t>(Strategy::kPredictive)]);
    AddLayer(&result, "sim.reactive_s",
             strategy_s[static_cast<size_t>(Strategy::kReactive)]);
    AddLayer(&result, "sim.simple_s",
             strategy_s[static_cast<size_t>(Strategy::kSimple)]);
    AddLayer(&result, "sim.static_s",
             strategy_s[static_cast<size_t>(Strategy::kStatic)]);
    AddLayer(&result, "sim.reconfigurations",
             static_cast<double>(reconfigurations));
    AddLayer(&result, "sim.insufficient_slots",
             static_cast<double>(insufficient_slots));
    AddLayer(&result, "prediction.forecast_s", predictor_stats.forecast_s);
    AddLayer(&result, "prediction.forecast_calls",
             static_cast<double>(predictor_stats.forecasts));
    AddLayer(&result, "trace.generate_s", generate_s);
    AddLayer(&result, "prediction.warmup_s", warmup_s);
    AddLayer(&result, "bench.layer_sum_s", layer_sum_s);
  }
  return result;
}

// ---- Fleet --------------------------------------------------------------------

// fleet_1000t_4d: pstore_fleet's defaults with 1000 tenants over 4 days,
// the shared pool first (it also builds the demand grid once), then the
// dedicated baseline.
constexpr int kFleetTenants = 1000;
constexpr int kFleetDays = 4;

double FleetMachineHours(const fleet::FleetResult& r,
                         const fleet::FleetOptions& options) {
  return (r.machine_slots + r.move_machine_slots) *
         options.fine_slot_seconds / 3600.0;
}

StatusOr<RepResult> RunFleet(uint64_t seed, RepTrace* trace) {
  RepResult result;
  const int64_t setup_start = NowNs();
  const int setup = trace->Begin("setup", trace->root());
  Phase mix_phase(trace, "fleet.mix", setup);
  fleet::TenantMixOptions mix;
  mix.wikipedia_tenants = kFleetTenants / 5;
  mix.ycsb_tenants = kFleetTenants / 5;
  mix.step_tenants = kFleetTenants / 5;
  mix.b2w_tenants = kFleetTenants - mix.wikipedia_tenants -
                    mix.ycsb_tenants - mix.step_tenants;
  mix.days = kFleetDays;
  mix.seed = seed;
  fleet::FleetOptions options;
  options.controller.placement.machine_capacity = 285.0;
  options.controller.placement.interference_per_tenant = 0.02;
  options.controller.inflation = 1.15;
  options.machine_serve_capacity = 350.0;
  options.planner.target_rate_per_node = 285.0;
  options.planner.max_rate_per_node = 350.0;
  options.eval_begin = 1440;  // one warmup day of per-minute slots
  fleet::FleetSimulator simulator(options, fleet::MakeTenantMix(mix));
  const double mix_s = mix_phase.Stop();
  trace->End(setup);
  result.setup_s = 1e-9 * static_cast<double>(NowNs() - setup_start);

  const int64_t timed_start = NowNs();
  const int timed = trace->Begin("timed", trace->root());
  Phase fleet_phase(trace, "fleet.simulate.fleet", timed);
  const StatusOr<fleet::FleetResult> pooled =
      simulator.Simulate(fleet::FleetMode::kFleet, /*pool=*/nullptr);
  const double fleet_s = fleet_phase.Stop();
  Phase dedicated_phase(trace, "fleet.simulate.dedicated", timed);
  const StatusOr<fleet::FleetResult> dedicated =
      simulator.Simulate(fleet::FleetMode::kDedicated, /*pool=*/nullptr);
  const double dedicated_s = dedicated_phase.Stop();
  trace->End(timed);
  result.wall_s = 1e-9 * static_cast<double>(NowNs() - timed_start);

  for (const StatusOr<fleet::FleetResult>* r : {&pooled, &dedicated}) {
    if (!r->ok()) {
      result.failures.push_back("simulate failed: " +
                                r->status().ToString());
      return result;
    }
    result.work += static_cast<double>((*r)->tenants) *
                   static_cast<double>((*r)->eval_fine_slots);
  }
  Digest digest;
  digest.Add(fleet::FleetCsvRows(*pooled));
  digest.Add(fleet::FleetCsvRows(*dedicated));
  result.sim_digest = digest.Hex();
  result.sim_machine_hours = FleetMachineHours(*pooled, options);
  result.sim_sla_violation_s =
      options.fine_slot_seconds *
      static_cast<double>(pooled->tenant_violation_slots);
  if (!(result.sim_machine_hours < FleetMachineHours(*dedicated, options))) {
    result.failures.push_back("fleet machine-hours not below dedicated");
  }

  if (trace->on()) {
    AddLayer(&result, "fleet.mix_s", mix_s);
    AddLayer(&result, "fleet.fleet_mode_s", fleet_s);
    AddLayer(&result, "fleet.dedicated_mode_s", dedicated_s);
    AddLayer(&result, "fleet.cycles", static_cast<double>(pooled->cycles));
    AddLayer(&result, "fleet.repacks", static_cast<double>(pooled->repacks));
    AddLayer(&result, "fleet.partition_moves",
             static_cast<double>(pooled->partition_moves));
    AddLayer(&result, "fleet.spike_replans",
             static_cast<double>(pooled->spike_replans));
    AddLayer(&result, "bench.layer_sum_s", fleet_s + dedicated_s);
  }
  return result;
}

using RepFn = StatusOr<RepResult> (*)(uint64_t seed, RepTrace* trace);

struct Entry {
  WorkloadInfo info;
  RepFn run;
};

const std::vector<Entry>& Catalog() {
  static const std::vector<Entry>* const catalog = new std::vector<Entry>{
      {{"b2w_pstore_1d",
        "every engine layer under the P-Store SPAR controller with live "
        "migration; control plane is <1% of wall, so it shows data-plane "
        "changes and hides control-plane ones",
        "txn"},
       &RunB2wPstore},
      {{"b2w_flat_100n",
        "data plane alone at 100 nodes (600 partitions); prediction, "
        "planning and migration are idle, so control-plane changes must "
        "leave it unchanged",
        "txn"},
       &RunB2wFlat},
      {{"ycsb_skew_32n",
        "writes, skewed queues near the knee and 10% two-key 2PC "
        "transfers: a single-key fast path that slows multi-key work "
        "shows here",
        "txn"},
       &RunYcsbSkew},
      {{"capacity_fig12_77d",
        "prediction, planning and the capacity simulator over 11 weeks "
        "with no engine work: control-plane changes show here and nowhere "
        "else",
        "fine_slot"},
       &RunCapacity},
      {{"fleet_1000t_4d",
        "per-tenant forecasting and placement for 1000 tenants; the "
        "memory-heavy workload, where peak RSS moves",
        "tenant_fine_slot"},
       &RunFleet},
  };
  return *catalog;
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo>* const infos = [] {
    auto* out = new std::vector<WorkloadInfo>();
    for (const Entry& entry : Catalog()) out->push_back(entry.info);
    return out;
  }();
  return *infos;
}

StatusOr<RepResult> RunRep(const std::string& workload, uint64_t seed,
                           bool traced, const std::string& spans_path) {
  for (const Entry& entry : Catalog()) {
    if (workload != entry.info.name) continue;
    RepTrace trace(traced);
    StatusOr<RepResult> result = entry.run(seed, &trace);
    if (result.ok() && traced) {
      AddLayer(&*result, "bench.spans_dropped",
               static_cast<double>(trace.spans()->dropped()));
      RETURN_IF_ERROR(trace.Finish(spans_path));
    }
    return result;
  }
  return Status::InvalidArgument("unknown workload: " + workload);
}

}  // namespace bench
}  // namespace pstore
