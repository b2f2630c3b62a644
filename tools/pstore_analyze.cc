// pstore_analyze: semantic static analysis for the P-Store tree.
//
// Usage: pstore_analyze [--check=<name>[,<name>...]]... [--list-checks]
//                       [--threads=N] [--format=text|json] [PATH ...]
//
// Runs the layering, Status-discipline, include-hygiene,
// nondet-iteration, global-mutable-state, pointer-order, guarded-by,
// lock-order, dead-symbol, hot-path-perf, and test-only rule families
// (src/analysis/) over the given files or directories (default: src
// tools bench tests examples, resolved from the current directory).
// Exits 0 when clean, 1 with findings, 2 on usage errors.
//
// --check takes a comma-separated list and may repeat; --list-checks
// prints the catalog. (--rule / --list-rules are accepted as the older
// spellings of the same flags.) --threads=N tokenizes, builds the
// cross-TU symbol graph, and runs the rule families on a thread pool
// (0 = hardware concurrency); output is byte-identical to a serial
// run. --format=json emits a canonical JSON array for CI diffing.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/check.h"
#include "analysis/project.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pstore_analyze [--check=<name>[,<name>...]]... "
               "[--list-checks] [--threads=N] [--format=text|json] "
               "[PATH ...]\n");
  return 2;
}

// Splits one --check value on commas; --check=lock-order,dead-symbol
// and repeated --check flags are equivalent.
std::vector<std::string> SplitCommaList(const std::vector<std::string>& raw) {
  std::vector<std::string> names;
  for (const std::string& value : raw) {
    size_t begin = 0;
    while (begin <= value.size()) {
      size_t comma = value.find(',', begin);
      if (comma == std::string::npos) comma = value.size();
      if (comma > begin) names.push_back(value.substr(begin, comma - begin));
      begin = comma + 1;
    }
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  pstore::FlagParser flags;
  const pstore::Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "pstore_analyze: %s\n", parsed.ToString().c_str());
    return Usage();
  }
  std::vector<std::string> roots = flags.positional();
  std::vector<std::string> rules = SplitCommaList(flags.GetStrings("check"));
  for (const std::string& rule : SplitCommaList(flags.GetStrings("rule"))) {
    rules.push_back(rule);
  }
  const bool list_checks = flags.GetBool("list-checks", false);
  const bool list_rules = flags.GetBool("list-rules", false) || list_checks;
  const pstore::StatusOr<int64_t> threads = flags.GetInt("threads", 1);
  const std::string format = flags.GetString("format", "text");
  const pstore::Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) {
    std::fprintf(stderr, "pstore_analyze: %s\n", all_read.message().c_str());
    return Usage();
  }
  if (!threads.ok()) {
    std::fprintf(stderr, "pstore_analyze: %s\n",
                 threads.status().ToString().c_str());
    return 2;
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "pstore_analyze: unknown --format '%s'\n",
                 format.c_str());
    return 2;
  }

  pstore::analysis::Analyzer analyzer;
  if (list_rules) {
    for (const std::string& name : analyzer.RuleNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  const pstore::Status selected = analyzer.SelectRules(rules);
  if (!selected.ok()) {
    std::fprintf(stderr, "pstore_analyze: %s\n", selected.ToString().c_str());
    return 2;
  }
  if (roots.empty()) {
    roots = {"src", "tools", "bench", "tests", "examples"};
  }

  pstore::StatusOr<pstore::analysis::Project> project =
      pstore::analysis::Project::Load(roots);
  if (!project.ok()) {
    std::fprintf(stderr, "pstore_analyze: %s\n",
                 project.status().ToString().c_str());
    return 2;
  }

  // --threads=1 (the default) stays strictly serial; anything else
  // resolves through the shared pool helper (0 = hardware).
  pstore::ThreadPool pool(pstore::ResolveThreadCount(*threads));
  const std::vector<pstore::analysis::Finding> findings =
      analyzer.Run(project.value(), &pool);
  if (format == "json") {
    const std::string json = pstore::analysis::FindingsToJson(findings);
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else {
    for (const pstore::analysis::Finding& finding : findings) {
      std::printf("%s\n", pstore::analysis::FormatFinding(finding).c_str());
    }
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "pstore_analyze: %zu finding(s) in %zu files\n",
                 findings.size(), project.value().files().size());
    return 1;
  }
  return 0;
}
