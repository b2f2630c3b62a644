#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "common/status.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/trace_event.h"
#include "obs/trace_reader.h"
#include "obs/tracer.h"

namespace pstore {
namespace obs {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

// ---- TraceEvent serialization ---------------------------------------------

TEST(TraceEventTest, SerializesEnvelopeAndTypedFields) {
  std::string out;
  TraceEvent(TraceCategory::kMigration, 1500000, "migration.chunk")
      .With("from", 3)
      .With("rate", 2.5)
      .With("ok", true)
      .With("label", "plain")
      .AppendJsonl(&out);
  EXPECT_EQ(out,
            "{\"ts\":1500000,\"cat\":\"migration\",\"name\":"
            "\"migration.chunk\",\"from\":3,\"rate\":2.5,\"ok\":true,"
            "\"label\":\"plain\"}\n");
}

TEST(TraceEventTest, EscapesStringsInNamesAndValues) {
  std::string out;
  TraceEvent(TraceCategory::kReport, 0, "run.summary")
      .With("text", "a\"b\\c\nd\te")
      .AppendJsonl(&out);
  EXPECT_NE(out.find("\"text\":\"a\\\"b\\\\c\\nd\\te\""), std::string::npos);
}

TEST(TraceEventTest, NarrowIntegralTypesWidenToInt64) {
  std::string out;
  uint32_t small = 7;
  int64_t big = 1234567890123LL;
  TraceEvent(TraceCategory::kEngine, 0, "e")
      .With("small", small)
      .With("big", big)
      .AppendJsonl(&out);
  EXPECT_NE(out.find("\"small\":7"), std::string::npos);
  EXPECT_NE(out.find("\"big\":1234567890123"), std::string::npos);
}

// ---- Reader round trip ----------------------------------------------------

TEST(TraceReaderTest, ParsesEventBackWithTypedFields) {
  std::string line;
  TraceEvent(TraceCategory::kSim, 42 * kSecond, "sim.cycle")
      .With("load", 123.5)
      .With("machines", 4)
      .With("migrating", false)
      .With("kind", "start_move")
      .AppendJsonl(&line);
  // Strip the trailing newline the serializer appends.
  line.pop_back();
  StatusOr<ParsedTraceEvent> parsed = ParseTraceLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ts, 42 * kSecond);
  EXPECT_EQ(parsed->cat, "sim");
  EXPECT_EQ(parsed->name, "sim.cycle");
  EXPECT_DOUBLE_EQ(parsed->Number("load", 0.0), 123.5);
  EXPECT_EQ(parsed->Int("machines", 0), 4);
  EXPECT_FALSE(parsed->Bool("migrating", true));
  EXPECT_EQ(parsed->Str("kind", ""), "start_move");
  // Fallbacks for absent keys.
  EXPECT_EQ(parsed->Int("absent", -1), -1);
  EXPECT_EQ(parsed->Find("absent"), nullptr);
}

TEST(TraceReaderTest, EscapedStringsSurviveRoundTrip) {
  std::string line;
  TraceEvent(TraceCategory::kFault, 0, "fault.apply")
      .With("kind", "crash\"quoted\\back\nline")
      .AppendJsonl(&line);
  line.pop_back();
  StatusOr<ParsedTraceEvent> parsed = ParseTraceLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Str("kind", ""), "crash\"quoted\\back\nline");
}

TEST(TraceReaderTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseTraceLine("not json").ok());
  EXPECT_FALSE(ParseTraceLine("{\"ts\":1,\"cat\":\"sim\"").ok());
  EXPECT_FALSE(ParseTraceLine("").ok());
}

TEST(TraceReaderTest, ReadTraceFileFailsOnMissingPath) {
  EXPECT_FALSE(ReadTraceFile("/nonexistent/dir/trace.jsonl").ok());
}

// ---- Tracer + JSONL sink --------------------------------------------------

TEST(TracerTest, JsonlFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/roundtrip.jsonl";
  Tracer tracer;
  ASSERT_TRUE(tracer.OpenJsonl(path).ok());
  // Emit directly (not via PSTORE_TRACE) so the serialization round
  // trip is exercised even in -DPSTORE_TRACING=OFF builds.
  tracer.Emit(TraceEvent(TraceCategory::kController, FromSeconds(1.0),
                         "controller.cycle")
                  .With("load", 100.0)
                  .With("machines", 4)
                  .With("migrating", false));
  tracer.Emit(TraceEvent(TraceCategory::kMigration, FromSeconds(2.0),
                         "migration.chunk")
                  .With("bytes", 1000000));
  ASSERT_TRUE(tracer.Close().ok());
  EXPECT_EQ(tracer.events_emitted(), 2);

  StatusOr<std::vector<ParsedTraceEvent>> events = ReadTraceFile(path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].name, "controller.cycle");
  EXPECT_DOUBLE_EQ((*events)[0].Number("load", 0.0), 100.0);
  EXPECT_EQ((*events)[1].name, "migration.chunk");
  EXPECT_EQ((*events)[1].Int("bytes", 0), 1000000);
  std::remove(path.c_str());
}

TEST(TracerTest, OpenJsonlFailsOnBadPath) {
  Tracer tracer;
  EXPECT_FALSE(tracer.OpenJsonl("/nonexistent/dir/trace.jsonl").ok());
}

TEST(TracerTest, VerboseCategoryMaskedByDefault) {
  // In -DPSTORE_TRACING=OFF builds the macro emits nothing at all; in
  // normal builds only the enabled-category emission lands.
#if defined(PSTORE_TRACE_DISABLED)
  constexpr int64_t kEmitted = 0;
#else
  constexpr int64_t kEmitted = 1;
#endif
  Tracer tracer;
  tracer.SetSink(std::make_unique<CountingTraceSink>());
  EXPECT_TRUE(tracer.enabled(TraceCategory::kController));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kVerbose));
  PSTORE_TRACE(&tracer, TraceCategory::kVerbose, 0, "engine.txn",
               .With("latency_us", 5));
  EXPECT_EQ(tracer.events_emitted(), 0);
  tracer.Enable(TraceCategory::kVerbose);
  PSTORE_TRACE(&tracer, TraceCategory::kVerbose, 0, "engine.txn",
               .With("latency_us", 5));
  EXPECT_EQ(tracer.events_emitted(), kEmitted);
  tracer.Disable(TraceCategory::kVerbose);
  PSTORE_TRACE(&tracer, TraceCategory::kVerbose, 0, "engine.txn",
               .With("latency_us", 5));
  EXPECT_EQ(tracer.events_emitted(), kEmitted);
}

TEST(TracerTest, NoSinkMeansNothingEnabled) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled(TraceCategory::kController));
  PSTORE_TRACE(&tracer, TraceCategory::kController, 0, "controller.cycle",
               .With("load", 1.0));
  EXPECT_EQ(tracer.events_emitted(), 0);
  EXPECT_TRUE(tracer.Close().ok());
}

TEST(TracerTest, MacroDoesNotEvaluateArgsWhenDisabled) {
  // The field expressions of a skipped event must not run: hot paths
  // rely on this to make disabled tracing free.
  int calls = 0;
  Tracer* null_tracer = nullptr;
  PSTORE_TRACE(null_tracer, TraceCategory::kController, 0, "x",
               .With("v", ++calls));
  EXPECT_EQ(calls, 0);

  Tracer masked;
  masked.SetSink(std::make_unique<CountingTraceSink>());
  PSTORE_TRACE(&masked, TraceCategory::kVerbose, 0, "x",
               .With("v", ++calls));
  EXPECT_EQ(calls, 0);

  PSTORE_TRACE(&masked, TraceCategory::kEngine, 0, "x", .With("v", ++calls));
#if defined(PSTORE_TRACE_DISABLED)
  EXPECT_EQ(calls, 0);
#else
  EXPECT_EQ(calls, 1);
#endif
}

// ---- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* chunks = registry.GetCounter("migration.chunks_moved");
  chunks->Increment();
  // Creating many other entries must not invalidate the cached pointer.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i))->Increment();
  }
  chunks->Increment(4);
  EXPECT_EQ(registry.GetCounter("migration.chunks_moved")->value(), 5);
}

TEST(MetricsRegistryTest, ToJsonIsSortedAndTyped) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Increment(2);
  registry.GetCounter("a.count")->Increment(1);
  registry.GetGauge("sim.avg_machines")->Set(4.5);
  registry.GetTimer("planner.search_us")->Observe(100);
  registry.GetTimer("planner.search_us")->Observe(300);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"sim.avg_machines\":4.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"total_us\":400"), std::string::npos);
  EXPECT_NE(json.find("\"max_us\":300"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteJsonLands) {
  MetricsRegistry registry;
  registry.GetCounter("engine.committed")->Increment(10);
  registry.GetGauge("engine.avg_machines")->Set(5.25);
  registry.GetTimer("predictor.fit_us")->Observe(42);

  const std::string json_path = ::testing::TempDir() + "/metrics.json";
  ASSERT_TRUE(registry.WriteJson(json_path).ok());
  EXPECT_EQ(ReadWholeFile(json_path), registry.ToJson());
  std::remove(json_path.c_str());
}

TEST(MetricsRegistryTest, ExportersFailLoudlyOnBadPath) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.WriteJson("/nonexistent/dir/m.json").ok());
}

// ---- Run report -----------------------------------------------------------

ParsedTraceEvent MakeEvent(SimTime ts, const std::string& name) {
  ParsedTraceEvent event;
  event.ts = ts;
  event.cat = "sim";
  event.name = name;
  return event;
}

void AddNumber(ParsedTraceEvent* event, const std::string& key,
               double value) {
  TraceFieldValue field;
  field.kind = TraceFieldValue::Kind::kNumber;
  field.number = value;
  event->fields.emplace_back(key, field);
}

void AddBool(ParsedTraceEvent* event, const std::string& key, bool value) {
  TraceFieldValue field;
  field.kind = TraceFieldValue::Kind::kBool;
  field.bool_value = value;
  event->fields.emplace_back(key, field);
}

void AddString(ParsedTraceEvent* event, const std::string& key,
               const std::string& value) {
  TraceFieldValue field;
  field.kind = TraceFieldValue::Kind::kString;
  field.text = value;
  event->fields.emplace_back(key, field);
}

TEST(RunReportTest, AggregatesSyntheticRun) {
  std::vector<ParsedTraceEvent> events;

  // Cycle 0: load 100, forecast 120, planner plans, a move starts.
  ParsedTraceEvent cycle0 = MakeEvent(0, "controller.cycle");
  AddNumber(&cycle0, "load", 100.0);
  AddNumber(&cycle0, "machines", 4);
  AddBool(&cycle0, "migrating", false);
  events.push_back(cycle0);
  ParsedTraceEvent forecast0 = MakeEvent(0, "predictor.forecast");
  AddNumber(&forecast0, "pred_next", 120.0);
  AddNumber(&forecast0, "wall_us", 50);
  events.push_back(forecast0);
  ParsedTraceEvent plan0 = MakeEvent(0, "planner.plan");
  AddBool(&plan0, "feasible", true);
  AddNumber(&plan0, "wall_us", 200);
  events.push_back(plan0);
  ParsedTraceEvent action0 = MakeEvent(0, "controller.action");
  AddString(&action0, "kind", "start_move");
  AddNumber(&action0, "target", 5);
  events.push_back(action0);
  events.push_back(MakeEvent(0, "migration.start"));

  // Cycle 1: load 110 (actual for cycle 0's forecast); chunks flow, one
  // retry, then the move completes.
  ParsedTraceEvent cycle1 = MakeEvent(kSecond, "controller.cycle");
  AddNumber(&cycle1, "load", 110.0);
  AddNumber(&cycle1, "machines", 4);
  AddBool(&cycle1, "migrating", true);
  events.push_back(cycle1);
  ParsedTraceEvent chunk = MakeEvent(kSecond, "migration.chunk");
  AddNumber(&chunk, "bytes", 1000);
  events.push_back(chunk);
  events.push_back(MakeEvent(kSecond, "migration.retry"));
  events.push_back(MakeEvent(kSecond, "migration.done"));

  // One infeasible plan, a fault window opening and closing, SLA
  // windows in each attribution bucket, and the trailing summary.
  ParsedTraceEvent plan1 = MakeEvent(kSecond, "planner.plan");
  AddBool(&plan1, "feasible", false);
  AddNumber(&plan1, "wall_us", 100);
  events.push_back(plan1);
  ParsedTraceEvent fault_on = MakeEvent(kSecond, "fault.window");
  AddBool(&fault_on, "active", true);
  events.push_back(fault_on);
  ParsedTraceEvent fault_off = MakeEvent(2 * kSecond, "fault.window");
  AddBool(&fault_off, "active", false);
  events.push_back(fault_off);
  events.push_back(MakeEvent(2 * kSecond, "sim.insufficient"));
  ParsedTraceEvent sla_fault = MakeEvent(2 * kSecond, "sla.window");
  AddBool(&sla_fault, "fault", true);
  AddBool(&sla_fault, "migrating", true);  // fault wins
  events.push_back(sla_fault);
  ParsedTraceEvent sla_migration = MakeEvent(2 * kSecond, "sla.window");
  AddBool(&sla_migration, "fault", false);
  AddBool(&sla_migration, "migrating", true);
  events.push_back(sla_migration);
  ParsedTraceEvent sla_base = MakeEvent(2 * kSecond, "sla.window");
  AddBool(&sla_base, "fault", false);
  AddBool(&sla_base, "migrating", false);
  events.push_back(sla_base);
  ParsedTraceEvent summary = MakeEvent(3 * kSecond, "run.summary");
  AddString(&summary, "controller", "pstore");
  AddNumber(&summary, "committed", 1000);
  events.push_back(summary);

  StatusOr<RunReport> report = BuildRunReport(events);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->events, static_cast<int64_t>(events.size()));
  EXPECT_DOUBLE_EQ(report->duration_seconds, 3.0);
  ASSERT_EQ(report->cycles.size(), 2u);
  EXPECT_DOUBLE_EQ(report->cycles[0].load, 100.0);
  EXPECT_TRUE(report->cycles[0].has_forecast);
  EXPECT_DOUBLE_EQ(report->cycles[0].pred_next, 120.0);
  EXPECT_EQ(report->cycles[0].action, "start_move");
  EXPECT_EQ(report->cycles[0].action_target, 5);
  EXPECT_EQ(report->cycles[1].chunks, 1);
  EXPECT_EQ(report->cycles[1].chunk_retries, 1);

  EXPECT_EQ(report->plans, 2);
  EXPECT_EQ(report->infeasible_plans, 1);
  EXPECT_EQ(report->moves_started, 1);
  EXPECT_EQ(report->moves_completed, 1);
  EXPECT_EQ(report->moves_aborted, 0);
  EXPECT_EQ(report->chunks, 1);
  EXPECT_EQ(report->chunk_retries, 1);
  EXPECT_EQ(report->bytes_moved, 1000);
  // fault.window with active=false closes a window; only the opening
  // counts.
  EXPECT_EQ(report->fault_windows, 1);
  EXPECT_EQ(report->insufficient_slots, 1);
  EXPECT_EQ(report->sla_violations, 3);
  EXPECT_EQ(report->sla_during_fault, 1);
  EXPECT_EQ(report->sla_during_migration, 1);
  EXPECT_EQ(report->sla_baseline, 1);

  // Forecast error: |120 - 110| against actual 110.
  EXPECT_EQ(report->forecast_samples, 1);
  EXPECT_NEAR(report->forecast_mae, 10.0, 1e-9);
  EXPECT_NEAR(report->forecast_mre, 10.0 / 110.0, 1e-9);

  // Wall rollups cover every event carrying wall_us, keyed by name.
  ASSERT_EQ(report->wall.size(), 2u);
  EXPECT_EQ(report->wall[0].name, "planner.plan");
  EXPECT_EQ(report->wall[0].count, 2);
  EXPECT_EQ(report->wall[0].total_us, 300);
  EXPECT_EQ(report->wall[0].max_us, 200);
  EXPECT_EQ(report->wall[1].name, "predictor.forecast");

  ASSERT_EQ(report->summary.size(), 2u);
  EXPECT_EQ(report->summary[0].first, "controller");
  EXPECT_EQ(report->summary[0].second, "pstore");
  EXPECT_EQ(report->summary[1].second, "1000");

  const std::string rendered = RenderRunReport(*report, -1);
  EXPECT_NE(rendered.find("== run summary =="), std::string::npos);
  EXPECT_NE(rendered.find("== timeline (2 of 2 cycles) =="),
            std::string::npos);
  EXPECT_NE(rendered.find("start_move(5)"), std::string::npos);
  const std::string summary_only = RenderRunReport(*report, 0);
  EXPECT_EQ(summary_only.find("== timeline"), std::string::npos);

  const std::string csv_path = ::testing::TempDir() + "/cycles.csv";
  ASSERT_TRUE(WriteCycleCsv(*report, csv_path).ok());
  const std::string csv = ReadWholeFile(csv_path);
  EXPECT_NE(csv.find("t_s,load,pred_next"), std::string::npos);
  EXPECT_NE(csv.find("start_move"), std::string::npos);
  std::remove(csv_path.c_str());
}

TEST(RunReportTest, ForecastErrorSkipsNearZeroActuals) {
  std::vector<ParsedTraceEvent> events;
  for (int i = 0; i < 3; ++i) {
    ParsedTraceEvent cycle = MakeEvent(i * kSecond, "sim.cycle");
    // Loads: 100, 0, 50 — the middle actual is skipped for MRE safety.
    AddNumber(&cycle, "load", i == 0 ? 100.0 : (i == 1 ? 0.0 : 50.0));
    events.push_back(cycle);
    ParsedTraceEvent forecast = MakeEvent(i * kSecond, "sim.forecast");
    AddNumber(&forecast, "pred_next", 60.0);
    events.push_back(forecast);
  }
  StatusOr<RunReport> report = BuildRunReport(events);
  ASSERT_TRUE(report.ok());
  // Only cycle 1 -> cycle 2 (actual 50) contributes; cycle 0 -> cycle 1
  // has actual 0 and is skipped by both MAE and MRE.
  EXPECT_EQ(report->forecast_samples, 1);
  EXPECT_NEAR(report->forecast_mae, 10.0, 1e-9);
  EXPECT_NEAR(report->forecast_mre, 0.2, 1e-9);
}

TEST(RunReportTest, ZeroTaskSweepSkipsEfficiency) {
  // A sweep.done with no tasks (e.g. an empty spec list) must not claim
  // a speedup or efficiency, and the rendering must say so instead of
  // printing a 0.0x figure.
  ParsedTraceEvent done = MakeEvent(kSecond, "sweep.done");
  AddNumber(&done, "tasks", 0);
  AddNumber(&done, "threads", 4);
  AddNumber(&done, "wall_us", 1500.0);
  AddNumber(&done, "serial_wall_us", 0.0);
  StatusOr<RunReport> report = BuildRunReport({done});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->has_sweep);
  EXPECT_EQ(report->sweep.tasks, 0);
  EXPECT_EQ(report->sweep.speedup, 0.0);
  EXPECT_EQ(report->sweep.efficiency, 0.0);
  const std::string rendered = RenderRunReport(*report, 0);
  EXPECT_NE(rendered.find("parallel efficiency not meaningful"),
            std::string::npos);
  EXPECT_EQ(rendered.find("speedup"), std::string::npos);
}

TEST(RunReportTest, AggregatesFleetEvents) {
  std::vector<ParsedTraceEvent> events;

  ParsedTraceEvent pack0 = MakeEvent(0, "fleet.pack");
  AddNumber(&pack0, "machines_after", 6);
  AddNumber(&pack0, "moved_partitions", 3);
  AddBool(&pack0, "repacked", false);
  AddBool(&pack0, "spike_replan", false);
  events.push_back(pack0);
  ParsedTraceEvent move0 = MakeEvent(0, "fleet.tenant_move");
  AddNumber(&move0, "tenant", 2);
  AddNumber(&move0, "moved_partitions", 3);
  events.push_back(move0);
  ParsedTraceEvent cycle0 = MakeEvent(0, "fleet.cycle");
  AddNumber(&cycle0, "machines", 6);
  AddNumber(&cycle0, "violation_slot_tenants", 1);
  events.push_back(cycle0);

  // Second cycle: a spike re-plan adopts a repack and grows the pool.
  ParsedTraceEvent pack1 = MakeEvent(kSecond, "fleet.pack");
  AddNumber(&pack1, "machines_after", 9);
  AddNumber(&pack1, "moved_partitions", 4);
  AddBool(&pack1, "repacked", true);
  AddBool(&pack1, "spike_replan", true);
  events.push_back(pack1);
  ParsedTraceEvent cycle1 = MakeEvent(kSecond, "fleet.cycle");
  AddNumber(&cycle1, "machines", 9);
  AddNumber(&cycle1, "violation_slot_tenants", 0);
  events.push_back(cycle1);

  StatusOr<RunReport> report = BuildRunReport(events);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->has_fleet);
  EXPECT_EQ(report->fleet.cycles, 2);
  EXPECT_EQ(report->fleet.packs, 2);
  EXPECT_EQ(report->fleet.repacks, 1);
  EXPECT_EQ(report->fleet.spike_replans, 1);
  EXPECT_EQ(report->fleet.peak_machines, 9);
  EXPECT_EQ(report->fleet.moved_partitions, 7);
  EXPECT_EQ(report->fleet.tenant_moves, 1);
  EXPECT_EQ(report->fleet.violation_slot_tenants, 1);

  const std::string rendered = RenderRunReport(*report, 0);
  EXPECT_NE(rendered.find("fleet: 2 cycles, peak 9 machines"),
            std::string::npos);
}

TEST(RunReportTest, NoFleetLineWithoutFleetEvents) {
  ParsedTraceEvent cycle = MakeEvent(0, "controller.cycle");
  AddNumber(&cycle, "load", 10.0);
  StatusOr<RunReport> report = BuildRunReport({cycle});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->has_fleet);
  EXPECT_EQ(RenderRunReport(*report, 0).find("fleet:"), std::string::npos);
}

TEST(RunReportTest, EmptyTraceMakesEmptyReport) {
  StatusOr<RunReport> report = BuildRunReport({});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->events, 0);
  EXPECT_TRUE(report->cycles.empty());
  // Rendering an empty report must not crash or divide by zero.
  const std::string rendered = RenderRunReport(*report, -1);
  EXPECT_NE(rendered.find("cycles: 0"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace pstore
