#ifndef PSTORE_ANALYSIS_TEST_ONLY_CHECK_H_
#define PSTORE_ANALYSIS_TEST_ONLY_CHECK_H_

#include <string>
#include <vector>

#include "analysis/check.h"

namespace pstore {
namespace analysis {

// Reports every src/ header that no program reaches through #include,
// rule id "test-only". Programs are the files under tools/, bench/,
// benchmark/ and examples/; tests are not, so a module that only its own
// test includes is reported even though dead-symbol counts the test's
// calls as uses. The walk starts at every program file and follows
// quoted includes that resolve to a project header; a reached header
// also reaches its same-stem .cc and, through it, what that .cc
// includes. A finding sits on the header's first line of code, where an
// `allow(test-only)` comment with its reason can keep an oracle that
// exists only to cross-check another module. Silent when the project
// holds no program file, so a run over src/ alone reports nothing.
class TestOnlyCheck : public Check {
 public:
  std::string name() const override { return "test-only"; }
  void Run(const AnalysisContext& context,
           std::vector<Finding>* findings) const override;
};

}  // namespace analysis
}  // namespace pstore

#endif  // PSTORE_ANALYSIS_TEST_ONLY_CHECK_H_
