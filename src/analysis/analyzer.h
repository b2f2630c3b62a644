#ifndef PSTORE_ANALYSIS_ANALYZER_H_
#define PSTORE_ANALYSIS_ANALYZER_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/check.h"
#include "analysis/project.h"
#include "common/status.h"

namespace pstore {

class ThreadPool;

namespace analysis {

// Runs the registered rule families over a Project and applies the
// `// pstore-analyze: allow(<rule>)` suppressions. Constructed with the
// default rule set: layering, status, include, nondet-iteration,
// global-mutable-state, pointer-order, guarded-by, lock-order,
// dead-symbol, hot-path-perf, test-only. lock-order, dead-symbol and
// hot-path-perf consume the cross-TU SymbolGraph, which Run builds once
// iff such a rule is selected.
class Analyzer {
 public:
  Analyzer();

  std::vector<std::string> RuleNames() const;

  // Restricts the run to the named rules. Fails on unknown names.
  Status SelectRules(const std::vector<std::string>& names);

  // Runs the (selected) checks; the result is suppression-filtered and
  // sorted by file, line, rule. With a pool (> 1 thread), tokenization
  // and the checks fan out across it; the final sort makes the output
  // identical to a serial run regardless of completion order.
  std::vector<Finding> Run(const Project& project,
                           ThreadPool* pool = nullptr) const;

 private:
  std::vector<std::unique_ptr<Check>> checks_;
  std::vector<std::string> selected_;  // empty = all
};

// Renders "file:line: [rule] message" for tool output.
std::string FormatFinding(const Finding& finding);

// Renders findings as a JSON array of {file, line, rule, message}
// objects, sorted order preserved, two-space indent, trailing newline.
// The encoding is canonical: equal finding lists produce byte-equal
// text, so CI can diff or hash the output.
std::string FindingsToJson(const std::vector<Finding>& findings);

// Parses text produced by FindingsToJson (round-trip check for tests
// and downstream tooling). Not a general JSON parser.
StatusOr<std::vector<Finding>> ParseFindingsJson(const std::string& text);

}  // namespace analysis
}  // namespace pstore

#endif  // PSTORE_ANALYSIS_ANALYZER_H_
