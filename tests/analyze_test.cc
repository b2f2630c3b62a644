// Fixture tests for the pstore_analyze rule families: each rule is
// seeded with a small violating snippet and asserted to fire, plus the
// negative cases (suppressions, explicit discards, exports) that keep
// the real tree clean.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/check.h"
#include "analysis/hot_path_perf_check.h"
#include "analysis/include_hygiene_check.h"
#include "analysis/layering_check.h"
#include "analysis/nondet_iteration_check.h"
#include "analysis/project.h"
#include "analysis/source_file.h"
#include "analysis/status_check.h"
#include "analysis/symbol_graph.h"
#include "analysis/token_cache.h"
#include "analysis/tokenizer.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace pstore {
namespace analysis {
namespace {

SourceFile Make(const std::string& path, const std::string& body) {
  return SourceFile::FromContents(path, body);
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& file, const std::string& needle) {
  for (const Finding& finding : findings) {
    if (finding.rule == rule && finding.file == file &&
        finding.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<Finding> RunRule(const Project& project, const std::string& rule) {
  Analyzer analyzer;
  EXPECT_TRUE(analyzer.SelectRules({rule}).ok());
  return analyzer.Run(project);
}

// ---------------------------------------------------------------- source file

TEST(SourceFileTest, StripsCommentsAndStringsButKeepsLines) {
  SourceFile file = Make("src/common/x.h",
                         "int a; // trailing comment\n"
                         "const char* s = \"string // not a comment\";\n"
                         "/* block\n   spanning */ int b;\n");  // b on line 4
  EXPECT_NE(file.clean().find("int a;"), std::string::npos);
  EXPECT_NE(file.clean().find("int b;"), std::string::npos);
  EXPECT_EQ(file.clean().find("trailing"), std::string::npos);
  EXPECT_EQ(file.clean().find("not a comment"), std::string::npos);
  EXPECT_EQ(file.clean().find("spanning"), std::string::npos);
  // Line structure preserved: "int b;" lands on line 4 because the
  // block comment spans lines 3-4.
  std::vector<Token> tokens = Tokenize(file.clean());
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens.back().text, ";");
  EXPECT_EQ(tokens.back().line, 4);
}

TEST(SourceFileTest, HandlesRawStringsAndEscapedQuotes) {
  SourceFile file = Make("src/common/x.cc",
                         "auto a = R\"(raw \" with quote and // slashes)\";\n"
                         "auto b = R\"delim(nested )\" still raw)delim\";\n"
                         "auto c = \"escaped \\\" quote\"; int after = 1;\n");
  EXPECT_EQ(file.clean().find("raw"), std::string::npos);
  EXPECT_EQ(file.clean().find("still"), std::string::npos);
  EXPECT_EQ(file.clean().find("escaped"), std::string::npos);
  EXPECT_NE(file.clean().find("int after = 1;"), std::string::npos);
}

TEST(SourceFileTest, DigitSeparatorIsNotACharLiteral) {
  SourceFile file = Make("src/common/x.cc",
                         "int big = 1'000'000; int next = 2;\n");
  EXPECT_NE(file.clean().find("int next = 2;"), std::string::npos);
}

TEST(SourceFileTest, RecordsIncludesAndMacros) {
  SourceFile file = Make("src/common/x.h",
                         "#include <vector>\n"
                         "#include \"common/status.h\"\n"
                         "#define MY_MACRO(x) (x)\n");
  ASSERT_EQ(file.includes().size(), 2u);
  EXPECT_TRUE(file.includes()[0].angled);
  EXPECT_EQ(file.includes()[0].target, "vector");
  EXPECT_FALSE(file.includes()[1].angled);
  EXPECT_EQ(file.includes()[1].target, "common/status.h");
  EXPECT_EQ(file.includes()[1].line, 2);
  ASSERT_EQ(file.macros().size(), 1u);
  EXPECT_EQ(file.macros()[0].name, "MY_MACRO");
}

TEST(SourceFileTest, DirAndIncludeKeyDerivation) {
  SourceFile in_src = Make("/abs/repo/src/planner/move.h", "");
  EXPECT_EQ(in_src.dir(), "planner");
  EXPECT_EQ(in_src.include_key(), "planner/move.h");
  SourceFile outside = Make("tests/analyze_test.cc", "");
  EXPECT_EQ(outside.dir(), "");
  EXPECT_EQ(outside.include_key(), "");
}

TEST(SourceFileTest, SuppressionCoversOwnOrNextLine) {
  SourceFile file = Make("src/common/x.cc",
                         "Foo();  // pstore-analyze: allow(status)\n"
                         "// pstore-analyze: allow(layering, include)\n"
                         "Bar();\n");
  EXPECT_TRUE(file.IsSuppressed("status", 1));
  EXPECT_FALSE(file.IsSuppressed("include", 1));
  EXPECT_TRUE(file.IsSuppressed("layering", 3));
  EXPECT_TRUE(file.IsSuppressed("include", 3));
  EXPECT_FALSE(file.IsSuppressed("status", 3));
}

// ------------------------------------------------------------------- layering

TEST(LayeringCheckTest, FlagsForbiddenEdge) {
  Project project;
  project.AddFile(Make("src/migration/squall.h", "struct Mig {};\n"));
  project.AddFile(Make("src/planner/bad.h",
                       "#include \"migration/squall.h\"\n"
                       "Mig use_it();\n"));
  std::vector<Finding> findings = RunRule(project, "layering");
  EXPECT_TRUE(HasFinding(findings, "layering", "src/planner/bad.h",
                         "'planner' may not depend on 'migration'"));
}

TEST(LayeringCheckTest, AllowsDeclaredEdgeAndSelf) {
  Project project;
  project.AddFile(Make("src/common/base.h", "struct Base {};\n"));
  project.AddFile(Make("src/planner/a.h", "struct A {};\n"));
  project.AddFile(Make("src/planner/good.h",
                       "#include \"common/base.h\"\n"
                       "#include \"planner/a.h\"\n"
                       "Base b(); A a();\n"));
  EXPECT_TRUE(RunRule(project, "layering").empty());
}

TEST(LayeringCheckTest, ReportsCycleInObservedGraph) {
  Project project;
  // planner -> engine is allowed; engine -> planner is both a
  // violation and closes a directory cycle.
  project.AddFile(Make("src/planner/a.h",
                       "#include \"engine/b.h\"\nEngineB use();\n"));
  project.AddFile(Make("src/engine/b.h",
                       "#include \"planner/a.h\"\nstruct EngineB {};\n"));
  std::vector<Finding> findings = RunRule(project, "layering");
  EXPECT_TRUE(HasFinding(findings, "layering", "src/engine/b.h",
                         "'engine' may not depend on 'planner'"));
  // The cycle report anchors at whichever edge the DFS closes, so only
  // pin the rule and message, not the file.
  bool cycle_reported = false;
  for (const Finding& finding : findings) {
    if (finding.rule == "layering" &&
        finding.message.find("include cycle between src directories") !=
            std::string::npos) {
      cycle_reported = true;
      EXPECT_NE(finding.message.find("engine"), std::string::npos);
      EXPECT_NE(finding.message.find("planner"), std::string::npos);
    }
  }
  EXPECT_TRUE(cycle_reported);
}

TEST(LayeringCheckTest, FlagsDirectoryMissingFromTheDag) {
  Project project;
  project.AddFile(Make("src/newdir/thing.h", "struct Thing {};\n"));
  std::vector<Finding> findings = RunRule(project, "layering");
  EXPECT_TRUE(HasFinding(findings, "layering", "src/newdir/thing.h",
                         "not declared in the layer DAG"));
}

TEST(LayeringCheckTest, DeclaredDagIsAcyclicAndClosed) {
  // Every directory named in an allowed set is itself declared, and the
  // declared edges form a DAG (defense against future map edits).
  const auto& allowed = LayeringCheck::AllowedDependencies();
  for (const auto& [dir, deps] : allowed) {
    for (const std::string& dep : deps) {
      EXPECT_TRUE(allowed.count(dep) != 0) << dir << " -> " << dep;
      // Antisymmetry is enough for a DAG here because allowed sets are
      // transitively closed by construction.
      auto it = allowed.find(dep);
      if (it != allowed.end()) {
        EXPECT_TRUE(it->second.count(dir) == 0)
            << "cycle: " << dir << " <-> " << dep;
      }
    }
  }
}

// --------------------------------------------------------------------- status

TEST(StatusCheckTest, CollectsStatusReturningFunctions) {
  Project project;
  project.AddFile(Make("src/common/api.h",
                       "Status DoThing(int x);\n"
                       "StatusOr<std::vector<int>> Compute();\n"
                       "class Widget {\n"
                       " public:\n"
                       "  Status Apply();\n"
                       "  const Status& last() const;\n"
                       "  void Run();\n"
                       "};\n"));
  TokenCache cache(project);
  std::set<std::string> fns = StatusCheck::CollectStatusFunctions(project, cache);
  EXPECT_TRUE(fns.count("DoThing"));
  EXPECT_TRUE(fns.count("Compute"));
  EXPECT_TRUE(fns.count("Apply"));
  EXPECT_FALSE(fns.count("last"));
  EXPECT_FALSE(fns.count("Run"));
}

TEST(StatusCheckTest, FlagsDiscardedCalls) {
  Project project;
  project.AddFile(Make("src/common/api.h",
                       "Status DoThing(int x);\n"
                       "struct Widget { Status Apply(); };\n"));
  project.AddFile(Make("src/common/user.cc",
                       "#include \"common/api.h\"\n"
                       "void Caller(Widget w, Widget* p) {\n"
                       "  DoThing(1);\n"
                       "  w.Apply();\n"
                       "  p->Apply();\n"
                       "  if (p) DoThing(2);\n"
                       "}\n"));
  std::vector<Finding> findings = RunRule(project, "status");
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].line, 4);
  EXPECT_EQ(findings[2].line, 5);
  EXPECT_EQ(findings[3].line, 6);
  EXPECT_TRUE(HasFinding(findings, "status", "src/common/user.cc",
                         "'DoThing' is silently discarded"));
  EXPECT_TRUE(HasFinding(findings, "status", "src/common/user.cc",
                         "'Apply' is silently discarded"));
}

TEST(StatusCheckTest, AcceptsHandledConsumedOrVoidedCalls) {
  Project project;
  project.AddFile(Make("src/common/api.h", "Status DoThing(int x);\n"));
  project.AddFile(Make("src/common/user.cc",
                       "#include \"common/api.h\"\n"
                       "Status Forward() {\n"
                       "  (void)DoThing(1);\n"
                       "  Status s = DoThing(2);\n"
                       "  RETURN_IF_ERROR(DoThing(3));\n"
                       "  if (!DoThing(4).ok()) return s;\n"
                       "  return DoThing(5);\n"
                       "}\n"));
  EXPECT_TRUE(RunRule(project, "status").empty());
}

TEST(StatusCheckTest, SuppressionComment) {
  Project project;
  project.AddFile(Make("src/common/api.h", "Status DoThing(int x);\n"));
  project.AddFile(Make("src/common/user.cc",
                       "#include \"common/api.h\"\n"
                       "void Caller() {\n"
                       "  DoThing(1);  // pstore-analyze: allow(status)\n"
                       "}\n"));
  EXPECT_TRUE(RunRule(project, "status").empty());
}

// -------------------------------------------------------------------- include

TEST(IncludeHygieneTest, ExtractsDeclaredNames) {
  SourceFile header = Make("src/common/api.h",
                           "#define API_MACRO 1\n"
                           "namespace pstore {\n"
                           "enum class Color { kRed, kBlue };\n"
                           "using Alias = int;\n"
                           "struct Gadget {\n"
                           "  void Method();\n"
                           "  int member_ = 0;\n"
                           "};\n"
                           "double Compute(double x);\n"
                           "inline constexpr int kLimit = 3;\n"
                           "}\n");
  DeclaredNames names = IncludeHygieneCheck::ExtractDeclaredNames(header);
  EXPECT_TRUE(names.strong.count("API_MACRO"));
  EXPECT_TRUE(names.strong.count("Color"));
  EXPECT_TRUE(names.strong.count("kRed"));
  EXPECT_TRUE(names.strong.count("Alias"));
  EXPECT_TRUE(names.strong.count("Gadget"));
  EXPECT_TRUE(names.strong.count("Compute"));
  EXPECT_TRUE(names.strong.count("kLimit"));
  EXPECT_TRUE(names.weak.count("Method"));
  EXPECT_TRUE(names.weak.count("member_"));
  EXPECT_FALSE(names.strong.count("Method"));
  // Parameter names declare nothing.
  EXPECT_FALSE(names.strong.count("x"));
  EXPECT_FALSE(names.weak.count("x"));
}

TEST(IncludeHygieneTest, FlagsUnusedInclude) {
  Project project;
  project.AddFile(Make("src/common/alpha.h", "struct Alpha {};\n"));
  project.AddFile(Make("src/planner/user.cc",
                       "#include \"common/alpha.h\"\n"
                       "int unrelated() { return 7; }\n"));
  std::vector<Finding> findings = RunRule(project, "include");
  EXPECT_TRUE(HasFinding(findings, "include", "src/planner/user.cc",
                         "unused include"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(IncludeHygieneTest, FlagsMissingDirectInclude) {
  Project project;
  project.AddFile(Make("src/common/alpha.h", "struct Alpha {};\n"));
  project.AddFile(Make("src/common/beta.h",
                       "#include \"common/alpha.h\"\n"
                       "struct Beta { Alpha a; };\n"));
  project.AddFile(Make("src/planner/user.cc",
                       "#include \"common/beta.h\"\n"
                       "Beta b;\n"
                       "Alpha a;\n"));
  std::vector<Finding> findings = RunRule(project, "include");
  EXPECT_TRUE(HasFinding(findings, "include", "src/planner/user.cc",
                         "uses 'Alpha' declared in 'common/alpha.h'"));
}

TEST(IncludeHygieneTest, OwnHeaderIsAlwaysKept) {
  Project project;
  project.AddFile(Make("src/planner/thing.h", "struct Thing {};\n"));
  project.AddFile(Make("src/planner/thing.cc",
                       "#include \"planner/thing.h\"\n"
                       "int helper() { return 1; }\n"));
  EXPECT_TRUE(RunRule(project, "include").empty());
}

TEST(IncludeHygieneTest, IwyuExportVouchesForTheTarget) {
  Project project;
  project.AddFile(Make("src/common/alpha.h", "struct Alpha {};\n"));
  project.AddFile(Make(
      "src/common/facade.h",
      "#include \"common/alpha.h\"  // IWYU pragma: export\n"));
  project.AddFile(Make("src/planner/user.cc",
                       "#include \"common/facade.h\"\n"
                       "Alpha a;\n"));
  std::vector<Finding> findings = RunRule(project, "include");
  // Neither a missing-include for alpha.h (the facade re-exports it)
  // nor an unused-include for facade.h (its exported names are used).
  EXPECT_TRUE(findings.empty());
}

TEST(IncludeHygieneTest, SuppressionKeepsAnInclude) {
  Project project;
  project.AddFile(Make("src/common/alpha.h", "struct Alpha {};\n"));
  project.AddFile(Make(
      "src/planner/user.cc",
      "#include \"common/alpha.h\"  // pstore-analyze: allow(include)\n"
      "int unrelated() { return 7; }\n"));
  EXPECT_TRUE(RunRule(project, "include").empty());
}

// ----------------------------------------------------------- nondet-iteration

TEST(NondetIterationTest, SimAffectingDirs) {
  for (const char* dir : {"engine", "sim", "fleet", "planner", "prediction",
                          "migration", "controller", "fault"}) {
    EXPECT_TRUE(NondetIterationCheck::IsSimAffectingDir(dir)) << dir;
  }
  EXPECT_FALSE(NondetIterationCheck::IsSimAffectingDir("common"));
  EXPECT_FALSE(NondetIterationCheck::IsSimAffectingDir("b2w"));
  EXPECT_FALSE(NondetIterationCheck::IsSimAffectingDir(""));
}

TEST(NondetIterationTest, FlagsDeclarationRangeForAndBegin) {
  Project project;
  project.AddFile(Make("src/engine/hot.h",
                       "struct Hot {\n"
                       "  std::unordered_map<int, int> counts_;\n"
                       "};\n"));
  project.AddFile(Make("src/engine/hot.cc",
                       "void Hot_Scan(Hot* h) {\n"
                       "  for (const auto& kv : h->counts_) { (void)kv; }\n"
                       "  auto it = h->counts_.begin();\n"
                       "  (void)it;\n"
                       "}\n"));
  std::vector<Finding> findings = RunRule(project, "nondet-iteration");
  EXPECT_TRUE(HasFinding(findings, "nondet-iteration", "src/engine/hot.h",
                         "unordered container 'counts_' declared"));
  EXPECT_TRUE(HasFinding(findings, "nondet-iteration", "src/engine/hot.cc",
                         "range-for over unordered container 'counts_'"));
  EXPECT_TRUE(HasFinding(findings, "nondet-iteration", "src/engine/hot.cc",
                         "iterator over unordered container 'counts_'"));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(NondetIterationTest, SeesThroughUsingAliases) {
  Project project;
  project.AddFile(Make("src/common/types.h",
                       "using CountMap = std::unordered_map<int, long>;\n"));
  project.AddFile(Make("src/sim/state.h",
                       "#include \"common/types.h\"\n"
                       "struct State { CountMap by_id_; };\n"));
  std::vector<Finding> findings = RunRule(project, "nondet-iteration");
  EXPECT_TRUE(HasFinding(findings, "nondet-iteration", "src/sim/state.h",
                         "unordered container 'by_id_' declared"));
}

TEST(NondetIterationTest, NonSimDirAndOrderedContainersAreClean) {
  Project project;
  // The same declaration outside a sim-affecting module is fine, as is
  // any ordered container inside one.
  project.AddFile(Make("src/common/cache.h",
                       "struct Cache { std::unordered_map<int, int> m_; };\n"));
  project.AddFile(Make("src/engine/sortedscan.cc",
                       "void Scan(const std::map<int, int>& m) {\n"
                       "  for (const auto& kv : m) { (void)kv; }\n"
                       "}\n"));
  EXPECT_TRUE(RunRule(project, "nondet-iteration").empty());
}

TEST(NondetIterationTest, SuppressionComment) {
  Project project;
  project.AddFile(Make("src/engine/hot.h",
                       "struct Hot {\n"
                       "  // pstore-analyze: allow(nondet-iteration)\n"
                       "  std::unordered_map<int, int> counts_;\n"
                       "};\n"));
  project.AddFile(Make(
      "src/engine/hot.cc",
      "long Hot_Sum(const Hot& h) {\n"
      "  long total = 0;\n"
      "  // Commutative sum; order-independent.\n"
      "  // pstore-analyze: allow(nondet-iteration)\n"
      "  for (const auto& kv : h.counts_) total += kv.second;\n"
      "  return total;\n"
      "}\n"));
  EXPECT_TRUE(RunRule(project, "nondet-iteration").empty());
}

// ------------------------------------------------------- global-mutable-state

TEST(GlobalStateTest, FlagsNamespaceScopeVariable) {
  Project project;
  project.AddFile(Make("src/common/globals.cc",
                       "namespace pstore {\n"
                       "int g_counter = 0;\n"
                       "}  // namespace pstore\n"));
  std::vector<Finding> findings = RunRule(project, "global-mutable-state");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "global-mutable-state",
                         "src/common/globals.cc",
                         "namespace-scope variable 'g_counter'"));
  EXPECT_EQ(findings[0].line, 2);
}

TEST(GlobalStateTest, FlagsFunctionLocalStatic) {
  Project project;
  project.AddFile(Make("src/common/ids.h",
                       "inline int NextId() {\n"
                       "  static int counter = 0;\n"
                       "  return ++counter;\n"
                       "}\n"));
  std::vector<Finding> findings = RunRule(project, "global-mutable-state");
  EXPECT_TRUE(HasFinding(findings, "global-mutable-state", "src/common/ids.h",
                         "function-local static 'counter'"));
}

TEST(GlobalStateTest, FlagsStaticDataMember) {
  Project project;
  project.AddFile(Make("src/common/widget.h",
                       "class Widget {\n"
                       "  static int live_count_;\n"
                       "};\n"));
  std::vector<Finding> findings = RunRule(project, "global-mutable-state");
  EXPECT_TRUE(HasFinding(findings, "global-mutable-state",
                         "src/common/widget.h",
                         "static data member 'live_count_'"));
}

TEST(GlobalStateTest, ConstFunctionsAndMethodsAreClean) {
  Project project;
  project.AddFile(Make(
      "src/common/clean.h",
      "constexpr int kLimit = 8;\n"
      "const char* const kName = nullptr;\n"
      "inline int Add(int a, int b) { return a + b; }\n"
      "inline bool operator==(int a, long b) { return b == a; }\n"
      "class Widget {\n"
      " public:\n"
      "  static constexpr int kMax = 4;\n"
      "  static int Count();\n"
      "  void Tick() { int local = 0; local += 1; (void)local; }\n"
      " private:\n"
      "  int member_ = 0;\n"
      "};\n"
      "inline const std::map<int, int>& Table() {\n"
      "  static const std::map<int, int> kTable = {{1, 2}};\n"
      "  return kTable;\n"
      "}\n"));
  project.AddFile(Make("src/common/clean.cc",
                       "#include \"common/clean.h\"\n"
                       "int Widget::Count() { return 0; }\n"));
  EXPECT_TRUE(RunRule(project, "global-mutable-state").empty());
}

TEST(GlobalStateTest, SuppressionComment) {
  Project project;
  project.AddFile(Make(
      "src/common/registry.cc",
      "// Deliberately process-wide: written once at startup.\n"
      "// pstore-analyze: allow(global-mutable-state)\n"
      "int g_registry_epoch = 0;\n"));
  EXPECT_TRUE(RunRule(project, "global-mutable-state").empty());
}

// -------------------------------------------------------------- pointer-order

TEST(PointerOrderTest, FlagsPointerKeyedContainersAndComparators) {
  Project project;
  project.AddFile(Make("src/planner/index.h",
                       "struct Node;\n"
                       "struct Index {\n"
                       "  std::map<const Node*, int> weight_;\n"
                       "  std::set<Node*> visited_;\n"
                       "  std::less<Node*> cmp_;\n"
                       "};\n"));
  std::vector<Finding> findings = RunRule(project, "pointer-order");
  EXPECT_TRUE(HasFinding(findings, "pointer-order", "src/planner/index.h",
                         "std::map ordered by raw pointer key"));
  EXPECT_TRUE(HasFinding(findings, "pointer-order", "src/planner/index.h",
                         "std::set ordered by raw pointer key"));
  EXPECT_TRUE(HasFinding(findings, "pointer-order", "src/planner/index.h",
                         "std::less ordered by raw pointer key"));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(PointerOrderTest, FlagsPointerComparingLambda) {
  Project project;
  project.AddFile(Make(
      "src/planner/sortit.cc",
      "struct Node;\n"
      "void SortNodes(std::vector<Node*>* nodes) {\n"
      "  std::sort(nodes->begin(), nodes->end(),\n"
      "            [](const Node* a, const Node* b) { return a < b; });\n"
      "}\n"));
  std::vector<Finding> findings = RunRule(project, "pointer-order");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "pointer-order", "src/planner/sortit.cc",
                         "comparator lambda orders raw pointers 'a' and 'b'"));
}

TEST(PointerOrderTest, ValueKeysAndFieldComparatorsAreClean) {
  Project project;
  project.AddFile(Make(
      "src/planner/clean.cc",
      "struct Node { int id; };\n"
      "std::map<int, Node*> by_id;  "
      "// pstore-analyze: allow(global-mutable-state)\n"
      "void SortNodes(std::vector<Node*>* nodes) {\n"
      "  std::sort(nodes->begin(), nodes->end(),\n"
      "            [](const Node* a, const Node* b) "
      "{ return a->id < b->id; });\n"
      "}\n"));
  // Pointer *values* (not keys) and field-based comparisons are fine.
  EXPECT_TRUE(RunRule(project, "pointer-order").empty());
}

TEST(PointerOrderTest, SuppressionComment) {
  Project project;
  project.AddFile(Make(
      "src/planner/arena.h",
      "struct Slab;\n"
      "struct Arena {\n"
      "  // Iterated only for leak accounting, never for results.\n"
      "  // pstore-analyze: allow(pointer-order)\n"
      "  std::set<Slab*> live_;\n"
      "};\n"));
  EXPECT_TRUE(RunRule(project, "pointer-order").empty());
}

// ----------------------------------------------------------------- guarded-by

TEST(GuardedByTest, FlagsUnannotatedMutex) {
  Project project;
  project.AddFile(Make("src/common/bad_counter.h",
                       "class BadCounter {\n"
                       " private:\n"
                       "  std::mutex mu_;\n"
                       "  int value_ = 0;\n"
                       "};\n"));
  std::vector<Finding> findings = RunRule(project, "guarded-by");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "guarded-by", "src/common/bad_counter.h",
                         "owns mutex 'mu_' but no member is annotated"));
  EXPECT_EQ(findings[0].line, 3);
}

TEST(GuardedByTest, FlagsMethodThatSkipsTheLock) {
  Project project;
  project.AddFile(Make("src/common/racy.h",
                       "class Racy {\n"
                       " public:\n"
                       "  int Peek() const { return value_; }\n"
                       "  void Inc() {\n"
                       "    std::lock_guard<std::mutex> lock(mu_);\n"
                       "    ++value_;\n"
                       "  }\n"
                       " private:\n"
                       "  mutable std::mutex mu_;\n"
                       "  int value_ PSTORE_GUARDED_BY(mu_) = 0;\n"
                       "};\n"));
  project.AddFile(Make("src/common/racy.cc",
                       "#include \"common/racy.h\"\n"
                       "void Racy_Use(Racy* r) { (void)r; }\n"));
  std::vector<Finding> findings = RunRule(project, "guarded-by");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "guarded-by", "src/common/racy.h",
                         "'Racy::Peek' accesses 'value_' (guarded by 'mu_') "
                         "without naming the lock"));
  EXPECT_EQ(findings[0].line, 3);
}

TEST(GuardedByTest, ChecksOutOfLineDefinitions) {
  Project project;
  project.AddFile(Make("src/common/queue.h",
                       "class Queue {\n"
                       " public:\n"
                       "  Queue();\n"
                       "  int Size() const;\n"
                       "  void Push(int v);\n"
                       " private:\n"
                       "  mutable std::mutex mu_;\n"
                       "  std::vector<int> items_ PSTORE_GUARDED_BY(mu_);\n"
                       "};\n"));
  project.AddFile(Make(
      "src/common/queue.cc",
      "#include \"common/queue.h\"\n"
      // Ctor is exempt; Push locks; Size forgets the lock.
      "Queue::Queue() { items_.reserve(16); }\n"
      "void Queue::Push(int v) {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  items_.push_back(v);\n"
      "}\n"
      "int Queue::Size() const { return (int)items_.size(); }\n"));
  std::vector<Finding> findings = RunRule(project, "guarded-by");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "guarded-by", "src/common/queue.cc",
                         "'Queue::Size' accesses 'items_'"));
}

TEST(GuardedByTest, ExternalMutexAnnotationIsTolerated) {
  Project project;
  // A nested struct's member guarded by the *owner's* lock: the
  // annotation names a mutex that is not a member of Inner, which is
  // recorded but not enforced (mirrors ThreadPool::Batch).
  project.AddFile(Make("src/common/owner.h",
                       "class Owner {\n"
                       " private:\n"
                       "  struct Inner {\n"
                       "    int cached PSTORE_GUARDED_BY(big_mu_) = 0;\n"
                       "  };\n"
                       "  std::mutex big_mu_;\n"
                       "  int state_ PSTORE_GUARDED_BY(big_mu_) = 0;\n"
                       "};\n"));
  EXPECT_TRUE(RunRule(project, "guarded-by").empty());
}

TEST(GuardedByTest, SuppressionComment) {
  Project project;
  project.AddFile(Make(
      "src/common/racy.h",
      "class Racy {\n"
      " public:\n"
      "  // Benign torn read, monitoring only.\n"
      "  // pstore-analyze: allow(guarded-by)\n"
      "  int Peek() const { return value_; }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int value_ PSTORE_GUARDED_BY(mu_) = 0;\n"
      "};\n"));
  EXPECT_TRUE(RunRule(project, "guarded-by").empty());
}

// ----------------------------------------------------------------- lock-order

// The seeded ABBA deadlock: First() takes mu_a_ then calls Second()
// (mu_b_ under mu_a_); Reversed() takes mu_b_ then mu_a_ directly.
Project AbbaProject() {
  Project project;
  project.AddFile(Make("src/engine/pair.h",
                       "namespace demo {\n"
                       "class Pair {\n"
                       " public:\n"
                       "  void First();\n"
                       "  void Second();\n"
                       "  void Reversed();\n"
                       " private:\n"
                       "  std::mutex mu_a_;\n"
                       "  std::mutex mu_b_;\n"
                       "  int value_ PSTORE_GUARDED_BY(mu_a_) = 0;\n"
                       "};\n"
                       "}  // namespace demo\n"));
  project.AddFile(Make("src/engine/pair.cc",
                       "#include \"engine/pair.h\"\n"
                       "namespace demo {\n"
                       "void Pair::First() {\n"
                       "  std::lock_guard<std::mutex> lock(mu_a_);\n"
                       "  Second();\n"
                       "}\n"
                       "void Pair::Second() {\n"
                       "  std::lock_guard<std::mutex> lock(mu_b_);\n"
                       "}\n"
                       "void Pair::Reversed() {\n"
                       "  std::lock_guard<std::mutex> lock_b(mu_b_);\n"
                       "  std::lock_guard<std::mutex> lock_a(mu_a_);\n"
                       "}\n"
                       "}  // namespace demo\n"));
  return project;
}

TEST(LockOrderTest, ReportsAbbaCycleWithWitnessCallPath) {
  std::vector<Finding> findings = RunRule(AbbaProject(), "lock-order");
  ASSERT_EQ(findings.size(), 1u);
  const Finding& finding = findings[0];
  EXPECT_EQ(finding.rule, "lock-order");
  EXPECT_NE(finding.message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(finding.message.find("Pair::mu_a_"), std::string::npos);
  EXPECT_NE(finding.message.find("Pair::mu_b_"), std::string::npos);
  // The witness names the cross-function carry path: mu_b_ is acquired
  // in Second while mu_a_ is held across the First -> Second call edge.
  EXPECT_NE(
      finding.message.find("across demo::Pair::First -> demo::Pair::Second"),
      std::string::npos);
}

TEST(LockOrderTest, ScopedLockAcquiresSimultaneously) {
  Project project;
  project.AddFile(Make("src/engine/both.h",
                       "namespace demo {\n"
                       "class Both {\n"
                       " public:\n"
                       "  void Forward();\n"
                       "  void Backward();\n"
                       " private:\n"
                       "  std::mutex mu_a_;\n"
                       "  std::mutex mu_b_;\n"
                       "};\n"
                       "}  // namespace demo\n"));
  // std::scoped_lock acquires its arguments with built-in deadlock
  // avoidance, so opposite argument orders must NOT produce a cycle.
  project.AddFile(Make("src/engine/both.cc",
                       "#include \"engine/both.h\"\n"
                       "namespace demo {\n"
                       "void Both::Forward() {\n"
                       "  std::scoped_lock lock(mu_a_, mu_b_);\n"
                       "}\n"
                       "void Both::Backward() {\n"
                       "  std::scoped_lock lock(mu_b_, mu_a_);\n"
                       "}\n"
                       "}  // namespace demo\n"));
  EXPECT_TRUE(RunRule(project, "lock-order").empty());
}

TEST(LockOrderTest, ConsistentOrderIsCleanAndSuppressionWorks) {
  Project consistent;
  consistent.AddFile(Make("src/engine/same.cc",
                          "namespace demo {\n"
                          "class Same {\n"
                          "  void One() {\n"
                          "    std::lock_guard<std::mutex> a(mu_a_);\n"
                          "    std::lock_guard<std::mutex> b(mu_b_);\n"
                          "  }\n"
                          "  void Two() {\n"
                          "    std::lock_guard<std::mutex> a(mu_a_);\n"
                          "    std::lock_guard<std::mutex> b(mu_b_);\n"
                          "  }\n"
                          "  std::mutex mu_a_;\n"
                          "  std::mutex mu_b_;\n"
                          "};\n"
                          "}  // namespace demo\n"));
  EXPECT_TRUE(RunRule(consistent, "lock-order").empty());

  // Suppressing at the reported acquisition site silences the cycle.
  Project annotated;
  annotated.AddFile(AbbaProject().files()[0]);
  annotated.AddFile(
      Make("src/engine/pair.cc",
           "#include \"engine/pair.h\"\n"
           "namespace demo {\n"
           "void Pair::First() {\n"
           "  std::lock_guard<std::mutex> lock(mu_a_);\n"
           "  Second();\n"
           "}\n"
           "void Pair::Second() {\n"
           "  // pstore-analyze: allow(lock-order) intentional in fixture\n"
           "  std::lock_guard<std::mutex> lock(mu_b_);\n"
           "}\n"
           "void Pair::Reversed() {\n"
           "  // pstore-analyze: allow(lock-order) intentional in fixture\n"
           "  std::lock_guard<std::mutex> lock_b(mu_b_);\n"
           "  std::lock_guard<std::mutex> lock_a(mu_a_);\n"
           "}\n"
           "}  // namespace demo\n"));
  EXPECT_TRUE(RunRule(annotated, "lock-order").empty());
}

// ---------------------------------------------------------------- dead-symbol

TEST(DeadSymbolTest, FlagsUnreferencedSrcFunction) {
  Project project;
  project.AddFile(Make("src/common/util.h",
                       "namespace pstore {\n"
                       "int Used(int x);\n"
                       "int Orphan(int x);\n"
                       "}  // namespace pstore\n"));
  project.AddFile(Make("src/common/util.cc",
                       "#include \"common/util.h\"\n"
                       "namespace pstore {\n"
                       "int Used(int x) { return x; }\n"
                       "int Orphan(int x) { return x * 2; }\n"
                       "}  // namespace pstore\n"));
  project.AddFile(Make("tests/util_test.cc",
                       "#include \"common/util.h\"\n"
                       "int main() { return pstore::Used(0); }\n"));
  std::vector<Finding> findings = RunRule(project, "dead-symbol");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "dead-symbol", "src/common/util.cc",
                         "'pstore::Orphan' is defined but has no call sites"));
}

TEST(DeadSymbolTest, ExternalCallersMentionsAndMainKeepSymbolsAlive) {
  Project project;
  project.AddFile(Make("src/common/kept.cc",
                       "namespace pstore {\n"
                       // Referenced by address from a tool: alive.
                       "int ByAddress() { return 1; }\n"
                       // Special members are exempt even if uncalled.
                       "struct Holder { ~Holder() { } };\n"
                       "}  // namespace pstore\n"));
  project.AddFile(Make("tools/driver.cc",
                       "int main() {\n"
                       "  auto* f = &pstore::ByAddress;\n"
                       "  return f != nullptr ? 0 : 1;\n"
                       "}\n"));
  EXPECT_TRUE(RunRule(project, "dead-symbol").empty());
}

TEST(DeadSymbolTest, SuppressionComment) {
  Project project;
  project.AddFile(Make(
      "src/common/api.cc",
      "namespace pstore {\n"
      "// Public API kept for downstream users.\n"
      "// pstore-analyze: allow(dead-symbol)\n"
      "int ReservedEntryPoint() { return 0; }\n"
      "}  // namespace pstore\n"));
  EXPECT_TRUE(RunRule(project, "dead-symbol").empty());
}

// -------------------------------------------------------------- hot-path-perf

// A hot-path fixture: Simulate() lives in src/sim and is a hot root by
// name and directory; Helper() is reachable from it.
Project HotPathProject(const std::string& helper_body) {
  Project project;
  project.AddFile(Make("src/sim/loop.cc",
                       "namespace pstore {\n"
                       "void Helper(std::vector<int>* out);\n"
                       "void Simulate() {\n"
                       "  std::vector<int> out;\n"
                       "  Helper(&out);\n"
                       "}\n"
                       "void Helper(std::vector<int>* out) {\n" +
                           helper_body +
                           "}\n"
                           "}  // namespace pstore\n"));
  return project;
}

TEST(HotPathPerfTest, FlagsLoopGrowthWithoutReserve) {
  Project project = HotPathProject(
      "  for (int i = 0; i < 100; ++i) {\n"
      "    out->push_back(i);\n"
      "  }\n");
  std::vector<Finding> findings = RunRule(project, "hot-path-perf");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "hot-path-perf", "src/sim/loop.cc",
                         "grown with push_back inside a loop"));
}

TEST(HotPathPerfTest, PriorReserveIsClean) {
  Project project = HotPathProject(
      "  out->reserve(100);\n"
      "  for (int i = 0; i < 100; ++i) {\n"
      "    out->push_back(i);\n"
      "  }\n");
  EXPECT_TRUE(RunRule(project, "hot-path-perf").empty());
}

TEST(HotPathPerfTest, FlagsByValueHeavyParamAndStdFunctionInLoop) {
  Project project;
  project.AddFile(Make(
      "src/engine/tick.cc",
      "namespace pstore {\n"
      "int Consume(std::string label);\n"
      "void Tick() {\n"
      "  for (int i = 0; i < 4; ++i) {\n"
      "    std::function<int(int)> f = [](int x) { return x; };\n"
      "    (void)f;\n"
      "  }\n"
      "  Consume(\"x\");\n"
      "}\n"
      "int Consume(std::string label) { return (int)label.size(); }\n"
      "}  // namespace pstore\n"));
  std::vector<Finding> findings = RunRule(project, "hot-path-perf");
  EXPECT_TRUE(HasFinding(findings, "hot-path-perf", "src/engine/tick.cc",
                         "parameter 'label'"));
  EXPECT_TRUE(HasFinding(findings, "hot-path-perf", "src/engine/tick.cc",
                         "std::function constructed inside a loop"));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(HotPathPerfTest, MovedFromByValueParamIsASink) {
  Project project;
  project.AddFile(Make(
      "src/engine/tick.cc",
      "namespace pstore {\n"
      "void Store(std::string label);\n"
      "void Tick() { Store(\"x\"); }\n"
      "void Store(std::string label) {\n"
      "  std::string kept = std::move(label);\n"
      "  (void)kept;\n"
      "}\n"
      "}  // namespace pstore\n"));
  EXPECT_TRUE(RunRule(project, "hot-path-perf").empty());
}

TEST(HotPathPerfTest, ColdFunctionsAndSuppressionsAreClean) {
  // The same growth pattern outside a hot root's reach is not linted.
  Project cold;
  cold.AddFile(Make("src/common/build.cc",
                    "namespace pstore {\n"
                    "void Collect(std::vector<int>* out) {\n"
                    "  for (int i = 0; i < 100; ++i) {\n"
                    "    out->push_back(i);\n"
                    "  }\n"
                    "}\n"
                    "}  // namespace pstore\n"));
  EXPECT_TRUE(RunRule(cold, "hot-path-perf").empty());

  Project suppressed = HotPathProject(
      "  for (int i = 0; i < 100; ++i) {\n"
      "    // Bounded by a tiny constant; reserve would be noise.\n"
      "    // pstore-analyze: allow(hot-path-perf)\n"
      "    out->push_back(i);\n"
      "  }\n");
  EXPECT_TRUE(RunRule(suppressed, "hot-path-perf").empty());
}

TEST(HotPathPerfTest, HotRootNaming) {
  FunctionSymbol in_engine;
  in_engine.name = "Tick";
  in_engine.definitions.push_back({0, "src/engine/a.cc", "engine", 1});
  EXPECT_TRUE(HotPathPerfCheck::IsHotRoot(in_engine));
  in_engine.name = "RunSweep";
  EXPECT_TRUE(HotPathPerfCheck::IsHotRoot(in_engine));
  in_engine.name = "Helper";
  EXPECT_FALSE(HotPathPerfCheck::IsHotRoot(in_engine));
  FunctionSymbol in_common;
  in_common.name = "Tick";
  in_common.definitions.push_back({0, "src/common/a.cc", "common", 1});
  EXPECT_FALSE(HotPathPerfCheck::IsHotRoot(in_common));
}

// ------------------------------------------------------------------ test-only

TEST(TestOnlyTest, FlagsHeaderOnlyATestIncludes) {
  // The checkout sits below a directory named tools/: the innermost
  // top-level directory decides, so the test is still not a program.
  const std::string root = "/ci/tools/checkout/";
  Project project;
  project.AddFile(Make(root + "src/planner/used.h",
                       "namespace pstore { int Used(); }\n"));
  project.AddFile(Make(root + "src/planner/oracle.h",
                       "#ifndef ORACLE_H_\n"
                       "#define ORACLE_H_\n"
                       "\n"
                       "namespace pstore { int Oracle(); }\n"
                       "#endif\n"));
  project.AddFile(Make(root + "tools/plan.cc",
                       "#include \"planner/used.h\"\n"
                       "int main() { return pstore::Used(); }\n"));
  project.AddFile(Make(root + "tests/oracle_test.cc",
                       "#include \"planner/oracle.h\"\n"
                       "int main() { return pstore::Oracle(); }\n"));
  std::vector<Finding> findings = RunRule(project, "test-only");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "test-only", root + "src/planner/oracle.h",
                         "no tool, bench, benchmark or example includes "
                         "'planner/oracle.h'"));
  EXPECT_EQ(findings[0].line, 4);  // first line of code, past the guard
}

TEST(TestOnlyTest, HeaderReachedThroughSrcIsClean) {
  // examples -> a.h -> b.h; b.h's own b.cc -> c.h.
  Project project;
  project.AddFile(Make("src/sim/a.h", "#include \"sim/b.h\"\n"));
  project.AddFile(Make("src/sim/b.h", "namespace pstore { int B(); }\n"));
  project.AddFile(Make("src/sim/b.cc",
                       "#include \"sim/b.h\"\n"
                       "#include \"sim/c.h\"\n"
                       "namespace pstore { int B() { return C(); } }\n"));
  project.AddFile(Make("src/sim/c.h", "namespace pstore { int C(); }\n"));
  project.AddFile(Make("examples/demo.cc",
                       "#include \"sim/a.h\"\n"
                       "int main() { return pstore::B(); }\n"));
  EXPECT_TRUE(RunRule(project, "test-only").empty());
}

TEST(TestOnlyTest, HeaderIncludedOnlyByAnUnreachedHeaderFires) {
  Project project;
  project.AddFile(Make("src/sim/used.h", "namespace pstore { int U(); }\n"));
  project.AddFile(Make("src/sim/orphan.h",
                       "#include \"sim/leaf.h\"\n"
                       "namespace pstore { int O(); }\n"));
  project.AddFile(Make("src/sim/leaf.h", "namespace pstore { int L(); }\n"));
  project.AddFile(Make("benchmark/run.cc",
                       "#include \"sim/used.h\"\n"
                       "int main() { return pstore::U(); }\n"));
  project.AddFile(Make("tests/orphan_test.cc",
                       "#include \"sim/orphan.h\"\n"
                       "int main() { return pstore::O(); }\n"));
  std::vector<Finding> findings = RunRule(project, "test-only");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(HasFinding(findings, "test-only", "src/sim/leaf.h",
                         "'sim/leaf.h'"));
  EXPECT_TRUE(HasFinding(findings, "test-only", "src/sim/orphan.h",
                         "'sim/orphan.h'"));
}

TEST(TestOnlyTest, SuppressionComment) {
  Project project;
  project.AddFile(Make("src/planner/oracle.h",
                       "#ifndef ORACLE_H_\n"
                       "#define ORACLE_H_\n"
                       "// Only tests run it: the oracle for the DP.\n"
                       "// pstore-analyze: allow(test-only)\n"
                       "namespace pstore { int Oracle(); }\n"
                       "#endif\n"));
  project.AddFile(Make("bench/fig.cc", "int main() { return 0; }\n"));
  EXPECT_TRUE(RunRule(project, "test-only").empty());
}

TEST(TestOnlyTest, SilentWithoutProgramFiles) {
  Project project;
  project.AddFile(Make("src/planner/oracle.h",
                       "namespace pstore { int Oracle(); }\n"));
  project.AddFile(Make("tests/oracle_test.cc",
                       "#include \"planner/oracle.h\"\n"
                       "int main() { return pstore::Oracle(); }\n"));
  EXPECT_TRUE(RunRule(project, "test-only").empty());
}

// ------------------------------------------------------------------- analyzer

TEST(AnalyzerTest, RuleCatalogAndSelection) {
  Analyzer analyzer;
  const std::vector<std::string> names = analyzer.RuleNames();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "layering", "status", "include", "nondet-iteration",
                       "global-mutable-state", "pointer-order", "guarded-by",
                       "lock-order", "dead-symbol", "hot-path-perf",
                       "test-only"}));
  EXPECT_FALSE(analyzer.SelectRules({"nonsense"}).ok());
  EXPECT_TRUE(analyzer.SelectRules({"layering", "status"}).ok());
  EXPECT_TRUE(analyzer.SelectRules({"lock-order", "dead-symbol"}).ok());
}

TEST(AnalyzerTest, FindingsAreSortedAndFormatted) {
  Project project;
  project.AddFile(Make("src/migration/squall.h", "struct Mig {};\n"));
  project.AddFile(Make("src/planner/bad.h",
                       "#include \"migration/squall.h\"\n"
                       "Mig use_it();\n"));
  Analyzer analyzer;
  std::vector<Finding> findings = analyzer.Run(project);
  ASSERT_FALSE(findings.empty());
  const std::string formatted = FormatFinding(findings[0]);
  EXPECT_NE(formatted.find("src/planner/bad.h:1: [layering]"),
            std::string::npos);
}

TEST(AnalyzerTest, LoadsProjectFromDisk) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "analyze_fixture";
  fs::create_directories(root / "src" / "planner");
  fs::create_directories(root / "src" / "migration");
  {
    std::ofstream out(root / "src" / "migration" / "squall.h");
    out << "struct Mig {};\n";
  }
  {
    std::ofstream out(root / "src" / "planner" / "bad.h");
    out << "#include \"migration/squall.h\"\nMig use_it();\n";
  }
  StatusOr<Project> project = Project::Load({(root / "src").string()});
  ASSERT_TRUE(project.ok()) << project.status().ToString();
  EXPECT_EQ(project.value().files().size(), 2u);
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.SelectRules({"layering"}).ok());
  std::vector<Finding> findings = analyzer.Run(project.value());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "layering", findings[0].file,
                         "'planner' may not depend on 'migration'"));
  fs::remove_all(root);
}

TEST(AnalyzerTest, ParallelRunMatchesSerial) {
  Project project;
  // One violation per rule family, so every check contributes findings
  // in both modes.
  project.AddFile(Make("src/migration/squall.h", "struct Mig {};\n"));
  project.AddFile(Make("src/planner/bad.h",
                       "#include \"migration/squall.h\"\n"
                       "Mig use_it();\n"
                       "Status DoThing(int x);\n"
                       "std::map<Mig*, int> g_weights;\n"));
  project.AddFile(Make("src/planner/bad.cc",
                       "#include \"planner/bad.h\"\n"
                       "void Caller() { DoThing(1); }\n"));
  project.AddFile(Make("src/engine/hot.h",
                       "struct Hot { std::unordered_map<int, int> m_; };\n"));
  project.AddFile(Make("src/common/lock.h",
                       "class Lock { std::mutex mu_; int v_ = 0; };\n"));
  Analyzer analyzer;
  const std::vector<Finding> serial = analyzer.Run(project);
  EXPECT_FALSE(serial.empty());
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(analyzer.Run(project, &pool), serial);
  }
  // A single-threaded pool also takes the serial path.
  ThreadPool one(1);
  EXPECT_EQ(analyzer.Run(project, &one), serial);
}

// ----------------------------------------------------------------------- json

TEST(AnalyzerJsonTest, CanonicalByteStableOutput) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, "status", "result of \"F\" discarded"},
      {"src/b.cc", 7, "layering", "back\\slash and\nnewline"}};
  const std::string json = FindingsToJson(findings);
  EXPECT_EQ(json,
            "[\n"
            "  {\"file\": \"src/a.cc\", \"line\": 3, \"rule\": \"status\", "
            "\"message\": \"result of \\\"F\\\" discarded\"},\n"
            "  {\"file\": \"src/b.cc\", \"line\": 7, \"rule\": \"layering\", "
            "\"message\": \"back\\\\slash and\\nnewline\"}\n"
            "]\n");
  // Byte-stable: encoding the same list twice is identical.
  EXPECT_EQ(json, FindingsToJson(findings));
  EXPECT_EQ(FindingsToJson({}), "[]\n");
}

TEST(AnalyzerJsonTest, RoundTrip) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, "status", "quote \" slash \\ tab \t done"},
      {"src/engine/hot.h", 12, "nondet-iteration", "plain message"},
      {"src/z.cc", 1, "guarded-by", "control \x01 char"}};
  StatusOr<std::vector<Finding>> parsed =
      ParseFindingsJson(FindingsToJson(findings));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), findings);
  StatusOr<std::vector<Finding>> empty = ParseFindingsJson("[]\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(AnalyzerJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseFindingsJson("").ok());
  EXPECT_FALSE(ParseFindingsJson("{\"file\": \"x\"}").ok());
  EXPECT_FALSE(ParseFindingsJson("[{\"line\": 1}]").ok());
  EXPECT_FALSE(ParseFindingsJson("[{\"file\": \"x\"").ok());
}

TEST(AnalyzerJsonTest, ToolOutputRoundTripsThroughJson) {
  // End-to-end: run the real analyzer on a fixture project, render to
  // JSON, parse it back, and compare with the in-memory findings.
  Project project;
  project.AddFile(Make("src/migration/squall.h", "struct Mig {};\n"));
  project.AddFile(Make("src/planner/bad.h",
                       "#include \"migration/squall.h\"\n"
                       "Mig use_it();\n"));
  Analyzer analyzer;
  const std::vector<Finding> findings = analyzer.Run(project);
  ASSERT_FALSE(findings.empty());
  StatusOr<std::vector<Finding>> parsed =
      ParseFindingsJson(FindingsToJson(findings));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), findings);
}

TEST(AnalyzerTest, LoadFailsOnMissingRoot) {
  StatusOr<Project> project = Project::Load({"/nonexistent-pstore-root"});
  EXPECT_FALSE(project.ok());
  EXPECT_EQ(project.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace analysis
}  // namespace pstore
