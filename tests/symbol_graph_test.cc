// Tests for the cross-TU symbol index and call graph: qualified-name
// resolution through namespaces and classes, overload-set granularity,
// call-edge resolution (including virtual calls resolving to every
// class providing the method), reachability, mention counting, and the
// determinism contract that a parallel build equals the serial one.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/project.h"
#include "analysis/source_file.h"
#include "analysis/symbol_graph.h"
#include "analysis/token_cache.h"
#include "common/thread_pool.h"

namespace pstore {
namespace analysis {
namespace {

SourceFile Make(const std::string& path, const std::string& body) {
  return SourceFile::FromContents(path, body);
}

// A small two-directory project exercising namespaces, classes,
// out-of-line definitions, overloads, and cross-file calls.
Project FixtureProject() {
  Project project;
  project.AddFile(Make("src/engine/widget.h",
                       "namespace pstore {\n"
                       "class Widget {\n"
                       " public:\n"
                       "  void Tick();\n"
                       "  int Count(int base) const;\n"
                       "  int Count(int base, int extra) const;\n"
                       " private:\n"
                       "  int ticks_ = 0;\n"
                       "};\n"
                       "int FreeHelper(int x);\n"
                       "}  // namespace pstore\n"));
  project.AddFile(Make("src/engine/widget.cc",
                       "#include \"engine/widget.h\"\n"
                       "namespace pstore {\n"
                       "void Widget::Tick() {\n"
                       "  ticks_ += Count(1);\n"
                       "}\n"
                       "int Widget::Count(int base) const {\n"
                       "  return Count(base, 0);\n"
                       "}\n"
                       "int Widget::Count(int base, int extra) const {\n"
                       "  return base + extra + ticks_;\n"
                       "}\n"
                       "int FreeHelper(int x) { return x + 1; }\n"
                       "}  // namespace pstore\n"));
  project.AddFile(Make("src/planner/driver.cc",
                       "#include \"engine/widget.h\"\n"
                       "namespace pstore {\n"
                       "int DrivePlan(Widget* w) {\n"
                       "  w->Tick();\n"
                       "  return FreeHelper(2);\n"
                       "}\n"
                       "}  // namespace pstore\n"));
  return project;
}

TEST(SymbolGraphTest, QualifiedNameResolution) {
  Project project = FixtureProject();
  TokenCache cache(project);
  SymbolGraph graph(project, cache);

  // Exact lookup through namespace and class.
  const size_t tick = graph.FindFunction("pstore::Widget::Tick");
  ASSERT_NE(tick, SymbolGraph::kNoSymbol);
  const FunctionSymbol& tick_symbol = graph.functions()[tick];
  EXPECT_EQ(tick_symbol.name, "Tick");
  EXPECT_EQ(tick_symbol.class_name, "Widget");
  ASSERT_EQ(tick_symbol.declarations.size(), 1u);
  EXPECT_EQ(tick_symbol.declarations[0].file, "src/engine/widget.h");
  ASSERT_EQ(tick_symbol.definitions.size(), 1u);
  EXPECT_EQ(tick_symbol.definitions[0].file, "src/engine/widget.cc");
  EXPECT_EQ(tick_symbol.definitions[0].dir, "engine");

  EXPECT_NE(graph.FindFunction("pstore::FreeHelper"),
            SymbolGraph::kNoSymbol);
  EXPECT_EQ(graph.FindFunction("pstore::Nothing"), SymbolGraph::kNoSymbol);

  // Suffix resolution: a bare name matches; a longer path narrows; a
  // component must align on a :: boundary ("ick" must not match Tick).
  EXPECT_EQ(graph.Resolve({"Tick"}).size(), 1u);
  EXPECT_EQ(graph.Resolve({"Widget", "Tick"}).size(), 1u);
  EXPECT_TRUE(graph.Resolve({"ick"}).empty());
  EXPECT_TRUE(graph.Resolve({"Other", "Tick"}).empty());
}

TEST(SymbolGraphTest, OverloadSetGranularity) {
  Project project = FixtureProject();
  TokenCache cache(project);
  SymbolGraph graph(project, cache);

  // Both Count overloads land in ONE FunctionSymbol: two declarations,
  // two definitions, one qualified name.
  const size_t count = graph.FindFunction("pstore::Widget::Count");
  ASSERT_NE(count, SymbolGraph::kNoSymbol);
  const FunctionSymbol& symbol = graph.functions()[count];
  EXPECT_EQ(symbol.declarations.size(), 2u);
  EXPECT_EQ(symbol.definitions.size(), 2u);
  EXPECT_EQ(graph.Resolve({"Count"}).size(), 1u);
}

TEST(SymbolGraphTest, CallEdgesAndReachability) {
  Project project = FixtureProject();
  TokenCache cache(project);
  SymbolGraph graph(project, cache);

  const size_t drive = graph.FindFunction("pstore::DrivePlan");
  const size_t tick = graph.FindFunction("pstore::Widget::Tick");
  const size_t count = graph.FindFunction("pstore::Widget::Count");
  const size_t helper = graph.FindFunction("pstore::FreeHelper");
  ASSERT_NE(drive, SymbolGraph::kNoSymbol);
  ASSERT_NE(tick, SymbolGraph::kNoSymbol);
  ASSERT_NE(count, SymbolGraph::kNoSymbol);
  ASSERT_NE(helper, SymbolGraph::kNoSymbol);

  // DrivePlan -> {Tick, FreeHelper}; Tick -> Count; Count -> Count
  // (the one-arg overload forwards to the two-arg one, same set).
  EXPECT_EQ(graph.callees_of(drive),
            (std::vector<size_t>{
                std::min(tick, helper), std::max(tick, helper)}));
  EXPECT_EQ(graph.callees_of(tick), std::vector<size_t>{count});
  EXPECT_EQ(graph.callers_of(count),
            (std::vector<size_t>{
                std::min(tick, count), std::max(tick, count)}));

  const std::vector<char> reach = graph.ReachableFrom({drive});
  EXPECT_TRUE(reach[drive]);
  EXPECT_TRUE(reach[tick]);
  EXPECT_TRUE(reach[count]);  // transitively via Tick
  EXPECT_TRUE(reach[helper]);
  const std::vector<char> from_tick = graph.ReachableFrom({tick});
  EXPECT_FALSE(from_tick[drive]);
  EXPECT_FALSE(from_tick[helper]);
}

TEST(SymbolGraphTest, VirtualCallResolvesToEveryProvider) {
  Project project;
  project.AddFile(Make("src/sim/policies.h",
                       "namespace pstore {\n"
                       "class PolicyA { public: void Apply(); };\n"
                       "class PolicyB { public: void Apply(); };\n"
                       "}  // namespace pstore\n"));
  project.AddFile(Make("src/sim/run.cc",
                       "#include \"sim/policies.h\"\n"
                       "namespace pstore {\n"
                       "void PolicyA::Apply() {}\n"
                       "void PolicyB::Apply() {}\n"
                       "void RunAll(PolicyA* p) {\n"
                       "  p->Apply();\n"
                       "}\n"
                       "}  // namespace pstore\n"));
  TokenCache cache(project);
  SymbolGraph graph(project, cache);
  // The receiver's static type is not tracked, so the member call
  // resolves to the whole overload set: both Apply providers.
  const size_t run = graph.FindFunction("pstore::RunAll");
  ASSERT_NE(run, SymbolGraph::kNoSymbol);
  EXPECT_EQ(graph.callees_of(run).size(), 2u);
}

TEST(SymbolGraphTest, MentionsCountReferencesOutsideOwnSites) {
  Project project;
  project.AddFile(Make("src/common/hooks.h",
                       "namespace pstore {\n"
                       "void OnFlush();\n"
                       "void Unreferenced();\n"
                       "}  // namespace pstore\n"));
  project.AddFile(Make("src/common/hooks.cc",
                       "#include \"common/hooks.h\"\n"
                       "namespace pstore {\n"
                       "void OnFlush() {}\n"
                       "void Unreferenced() {}\n"
                       "void Register(void (*hook)());\n"
                       "void Install() {\n"
                       "  Register(&OnFlush);\n"
                       "}\n"
                       "}  // namespace pstore\n"));
  TokenCache cache(project);
  SymbolGraph graph(project, cache);
  const size_t flush = graph.FindFunction("pstore::OnFlush");
  const size_t unref = graph.FindFunction("pstore::Unreferenced");
  ASSERT_NE(flush, SymbolGraph::kNoSymbol);
  ASSERT_NE(unref, SymbolGraph::kNoSymbol);
  // The address-of reference counts; declaration and definition lines
  // of the symbol itself do not.
  EXPECT_GT(graph.functions()[flush].mentions, 0);
  EXPECT_EQ(graph.functions()[unref].mentions, 0);
}

TEST(SymbolGraphTest, AttributeAfterClassKeywordKeepsTheClassScope) {
  Project project;
  project.AddFile(Make("src/common/result.h",
                       "namespace pstore {\n"
                       "class [[nodiscard]] Result {\n"
                       " public:\n"
                       "  static Result OK();\n"
                       "};\n"
                       "}  // namespace pstore\n"));
  project.AddFile(Make("src/common/result.cc",
                       "#include \"common/result.h\"\n"
                       "namespace pstore {\n"
                       "Result Result::OK() { return Result(); }\n"
                       "Result Succeed() { return Result::OK(); }\n"
                       "}  // namespace pstore\n"));
  TokenCache cache(project);
  SymbolGraph graph(project, cache);
  EXPECT_EQ(graph.FindFunction("pstore::OK"), SymbolGraph::kNoSymbol);
  const size_t ok = graph.FindFunction("pstore::Result::OK");
  const size_t succeed = graph.FindFunction("pstore::Succeed");
  ASSERT_NE(ok, SymbolGraph::kNoSymbol);
  ASSERT_NE(succeed, SymbolGraph::kNoSymbol);
  EXPECT_EQ(graph.functions()[ok].class_name, "Result");
  EXPECT_EQ(graph.callers_of(ok), std::vector<size_t>{succeed});
}

TEST(SymbolGraphTest, ParallelBuildMatchesSerial) {
  Project project = FixtureProject();
  // Extra files so the parallel scan actually interleaves.
  for (int i = 0; i < 12; ++i) {
    const std::string n = std::to_string(i);
    project.AddFile(Make("src/common/extra" + n + ".cc",
                         "namespace pstore {\n"
                         "int Extra" + n + "(int x) { return x + " + n +
                             "; }\n"
                         "int UseExtra" + n + "() { return Extra" + n +
                             "(1); }\n"
                         "}  // namespace pstore\n"));
  }
  TokenCache cache(project);
  const SymbolGraph serial(project, cache);
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const SymbolGraph parallel(project, cache, &pool);
    ASSERT_EQ(parallel.functions().size(), serial.functions().size());
    for (size_t i = 0; i < serial.functions().size(); ++i) {
      const FunctionSymbol& a = serial.functions()[i];
      const FunctionSymbol& b = parallel.functions()[i];
      EXPECT_EQ(a.qualified_name, b.qualified_name);
      EXPECT_EQ(a.definitions.size(), b.definitions.size());
      EXPECT_EQ(a.declarations.size(), b.declarations.size());
      EXPECT_EQ(a.mentions, b.mentions);
      EXPECT_EQ(serial.callees_of(i), parallel.callees_of(i));
      EXPECT_EQ(serial.callers_of(i), parallel.callers_of(i));
    }
    ASSERT_EQ(parallel.calls().size(), serial.calls().size());
    for (size_t i = 0; i < serial.calls().size(); ++i) {
      EXPECT_EQ(serial.calls()[i].caller, parallel.calls()[i].caller);
      EXPECT_EQ(serial.calls()[i].callee, parallel.calls()[i].callee);
      EXPECT_EQ(serial.calls()[i].line, parallel.calls()[i].line);
    }
  }
}

}  // namespace
}  // namespace analysis
}  // namespace pstore
