// pstore_fleet: multi-tenant fleet provisioning over a synthetic tenant
// mix — one shared machine pool packed by the FleetController, compared
// against dedicated per-tenant clusters.
//
// Usage:
//   pstore_fleet --tenants=100 [--days=4] [--seed=17]
//       [--mode=fleet|dedicated|both]
//   pstore_fleet --b2w=40 --wiki=20 --ycsb=20 --step=20
//
// --tenants=N picks a default family split (40% B2W, 20% Wikipedia,
// 20% YCSB, 20% step); the per-family flags override it. Per-tenant
// forecasting fans out on --threads N workers (default: hardware
// concurrency) and every output is bit-identical for any thread count.
// Unknown flags and out-of-range values exit 1 with an "error: …"
// message.
//
// Knobs:
//   --q=285 --qhat=350         pack / serve capacity per pooled machine
//   --interference=0.02        capacity lost per extra co-located tenant
//   --partitions=2             placement units per tenant
//   --inflation=1.15           forecast inflation before packing
//   --mean-peak=60             mean per-tenant peak demand (txn/s)
//   --sla=0.01                 per-tenant SLA: tolerated fraction of
//                              violating time, in [0, 1]
//   --forecast=SPEC            per-tenant predictor spec ("ar(p=8)",
//                              "shift(spar)", ... — see
//                              prediction/predictor_spec.h); default is
//                              the built-in cheap seasonal forecaster
//   --forecast-refit=288       cycles between per-tenant model re-fits
//                              (only with --forecast)
//
// Machine-readable outputs:
//   --csv-out=fleet.csv        deterministic summary + per-tenant rows
//   --trace-out=fleet.jsonl    fleet.cycle / fleet.pack / fleet.tenant_move
//                              events (render with pstore_report)
//   --bench-json=out.json      headline metrics as a JSON metrics registry

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fleet/fleet_controller.h"
#include "fleet/fleet_simulator.h"
#include "fleet/tenant.h"
#include "fleet/tenant_forecaster.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"

using namespace pstore;
using namespace pstore::fleet;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

void Report(const FleetResult& result, double fine_slot_seconds) {
  const double hours =
      (result.machine_slots + result.move_machine_slots) *
      fine_slot_seconds / 3600.0;
  std::printf("machine-hours:        %.0f (%.0f held + %.0f moving)\n",
              hours, result.machine_slots * fine_slot_seconds / 3600.0,
              result.move_machine_slots * fine_slot_seconds / 3600.0);
  std::printf("peak machines:        %d\n", result.peak_machines);
  std::printf("violation slots:      %lld (%.4f%% of tenant-time)\n",
              static_cast<long long>(result.tenant_violation_slots),
              100.0 * result.tenant_violation_fraction);
  std::printf("tenants over SLA:     %d of %d\n",
              result.tenants_violating_sla, result.tenants);
  if (result.mode == FleetMode::kFleet) {
    std::printf("packs:                %lld (%lld repacks, %lld spike "
                "re-plans, %lld partition moves)\n",
                static_cast<long long>(result.cycles),
                static_cast<long long>(result.repacks),
                static_cast<long long>(result.spike_replans),
                static_cast<long long>(result.partition_moves));
  } else {
    std::printf("resizes:              %lld (%lld spike re-plans)\n",
                static_cast<long long>(result.partition_moves),
                static_cast<long long>(result.spike_replans));
  }
}

void FillMetrics(obs::MetricsRegistry* registry, const FleetResult& result,
                 double fine_slot_seconds) {
  const std::string prefix =
      std::string("fleet.") + FleetModeName(result.mode) + ".";
  registry->GetGauge(prefix + "machine_hours")
      ->Set((result.machine_slots + result.move_machine_slots) *
            fine_slot_seconds / 3600.0);
  registry->GetGauge(prefix + "violation_fraction")
      ->Set(result.tenant_violation_fraction);
  registry->GetGauge(prefix + "peak_machines")->Set(result.peak_machines);
  registry->GetCounter(prefix + "violation_slots")
      ->Increment(result.tenant_violation_slots);
  registry->GetCounter(prefix + "tenants_violating_sla")
      ->Increment(result.tenants_violating_sla);
  registry->GetCounter(prefix + "partition_moves")
      ->Increment(result.partition_moves);
  registry->GetCounter(prefix + "repacks")->Increment(result.repacks);
  registry->GetCounter(prefix + "spike_replans")
      ->Increment(result.spike_replans);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  const Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Fail(parsed.ToString());
  const StatusOr<int64_t> tenants = flags.GetInt("tenants", 0);
  const StatusOr<int64_t> b2w = flags.GetInt("b2w", 0);
  const StatusOr<int64_t> wiki = flags.GetInt("wiki", 0);
  const StatusOr<int64_t> ycsb = flags.GetInt("ycsb", 0);
  const StatusOr<int64_t> step = flags.GetInt("step", 0);
  const StatusOr<int64_t> days = flags.GetInt("days", 4);
  const StatusOr<int64_t> seed = flags.GetInt("seed", 17);
  const StatusOr<int64_t> partitions = flags.GetInt("partitions", 2);
  const StatusOr<int64_t> threads = flags.GetInt("threads", 0);
  const StatusOr<double> q = flags.GetDouble("q", 285.0);
  const StatusOr<double> qhat = flags.GetDouble("qhat", 350.0);
  const StatusOr<double> interference = flags.GetDouble("interference", 0.02);
  const StatusOr<double> inflation = flags.GetDouble("inflation", 1.15);
  const StatusOr<double> mean_peak = flags.GetDouble("mean-peak", 60.0);
  const StatusOr<double> sla = flags.GetDouble("sla", 0.01);
  const std::string forecast_spec = flags.GetString("forecast", "");
  const StatusOr<int64_t> forecast_refit = flags.GetInt("forecast-refit", 288);
  const std::string mode_flag = flags.GetString("mode", "both");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string csv_out = flags.GetString("csv-out", "");
  const std::string bench_json = flags.GetString("bench-json", "");
  const Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) return Fail(all_read.message());
  for (const Status& status :
       {tenants.status(), b2w.status(), wiki.status(), ycsb.status(),
        step.status(), days.status(), seed.status(), partitions.status(),
        threads.status(), q.status(), qhat.status(), interference.status(),
        inflation.status(), mean_peak.status(), sla.status(),
        forecast_refit.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }
  for (const auto& [name, count] :
       {std::pair<const char*, int64_t>{"tenants", *tenants},
        {"b2w", *b2w}, {"wiki", *wiki}, {"ycsb", *ycsb}, {"step", *step}}) {
    if (count < 0) return Fail(std::string("--") + name + ": must be >= 0");
  }
  if (*days < 2) return Fail("--days: must be >= 2 (1 warmup day)");
  if (*partitions < 1) return Fail("--partitions: must be >= 1");
  if (!(*mean_peak > 0.0) || std::isinf(*mean_peak)) {
    return Fail("--mean-peak: must be positive and finite");
  }
  if (!(*sla >= 0.0 && *sla <= 1.0)) return Fail("--sla: must be in [0, 1]");

  // Family counts: explicit per-family flags win; otherwise --tenants=N
  // splits 40/20/20/20 (B2W absorbing the rounding remainder).
  TenantMixOptions mix;
  bool per_family = false;
  for (const char* family : {"b2w", "wiki", "ycsb", "step"}) {
    if (flags.flags().count(family) != 0) per_family = true;
  }
  if (per_family) {
    mix.b2w_tenants = static_cast<int>(*b2w);
    mix.wikipedia_tenants = static_cast<int>(*wiki);
    mix.ycsb_tenants = static_cast<int>(*ycsb);
    mix.step_tenants = static_cast<int>(*step);
  } else if (*tenants > 0) {
    const int n = static_cast<int>(*tenants);
    mix.wikipedia_tenants = n / 5;
    mix.ycsb_tenants = n / 5;
    mix.step_tenants = n / 5;
    mix.b2w_tenants =
        n - mix.wikipedia_tenants - mix.ycsb_tenants - mix.step_tenants;
  } else {
    return Fail("--tenants=N or per-family counts (--b2w/--wiki/--ycsb/"
                "--step) required");
  }
  mix.days = static_cast<int>(*days);
  mix.seed = static_cast<uint64_t>(*seed);
  mix.mean_peak_rate = *mean_peak;
  mix.partitions_per_tenant = static_cast<int>(*partitions);
  mix.sla_target = *sla;
  if (TotalTenants(mix) < 1) return Fail("fleet has no tenants");

  FleetOptions options;
  options.controller.placement.machine_capacity = *q;
  options.controller.placement.interference_per_tenant = *interference;
  options.controller.inflation = *inflation;
  // Optional spec-built per-tenant forecasters, built once here the way
  // every tenant's will be, so a bad spec fails with the flag's name.
  if (!forecast_spec.empty()) {
    if (*forecast_refit < 1) return Fail("--forecast-refit: must be >= 1");
    options.controller.forecast_spec = forecast_spec;
    options.controller.forecast_refit_interval =
        static_cast<size_t>(*forecast_refit);
    const StatusOr<TenantForecaster> forecaster_check =
        MakeTenantForecaster(options.controller);
    if (!forecaster_check.ok()) {
      return Fail("--forecast: " + forecaster_check.status().ToString());
    }
  }
  options.machine_serve_capacity = *qhat;
  options.planner.target_rate_per_node = *q;
  options.planner.max_rate_per_node = *qhat;
  // One warmup day at per-minute fine slots; the 288 cycles match the
  // forecasters' daily seasonal period.
  options.eval_begin = 1440;

  std::vector<FleetMode> modes;
  if (mode_flag == "both") {
    modes = {FleetMode::kFleet, FleetMode::kDedicated};
  } else {
    StatusOr<FleetMode> mode = ParseFleetMode(mode_flag);
    if (!mode.ok()) return Fail(mode.status().ToString());
    modes = {*mode};
  }

  obs::Tracer tracer;
  if (!trace_out.empty()) {
    const Status opened = tracer.OpenJsonl(trace_out);
    if (!opened.ok()) return Fail(opened.ToString());
  }

  FleetSimulator simulator(options, MakeTenantMix(mix));
  if (!trace_out.empty()) simulator.set_tracer(&tracer);
  ThreadPool pool(ResolveThreadCount(*threads));

  std::printf("Fleet: %d tenants (%d b2w, %d wikipedia, %d ycsb, %d step)"
              " over %d days on %d thread(s)\n",
              TotalTenants(mix), mix.b2w_tenants, mix.wikipedia_tenants,
              mix.ycsb_tenants, mix.step_tenants, mix.days,
              pool.thread_count());

  obs::MetricsRegistry registry;
  std::string csv;
  for (const FleetMode mode : modes) {
    StatusOr<FleetResult> result = simulator.Simulate(mode, &pool);
    if (!result.ok()) return Fail(result.status().ToString());
    std::printf("\n[%s]\n", FleetModeName(mode));
    Report(*result, options.fine_slot_seconds);
    FillMetrics(&registry, *result, options.fine_slot_seconds);
    if (!csv.empty()) csv += '\n';
    csv += FleetCsvRows(*result);
  }

  if (!csv_out.empty()) {
    std::FILE* file = std::fopen(csv_out.c_str(), "w");
    if (file == nullptr) return Fail("cannot open " + csv_out);
    std::fwrite(csv.data(), 1, csv.size(), file);
    if (std::fclose(file) != 0) return Fail("write failed: " + csv_out);
    std::printf("\nFleet CSV: %s\n", csv_out.c_str());
  }

  if (!trace_out.empty()) {
    const Status closed = tracer.Close();
    if (!closed.ok()) return Fail(closed.ToString());
    std::printf("\nTrace: %lld events -> %s (render with pstore_report "
                "--trace=%s)\n",
                static_cast<long long>(tracer.events_emitted()),
                trace_out.c_str(), trace_out.c_str());
  }

  if (!bench_json.empty()) {
    const Status written = registry.WriteJson(bench_json);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("Metrics: %s\n", bench_json.c_str());
  }
  return 0;
}
