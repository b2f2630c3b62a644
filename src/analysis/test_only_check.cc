#include "analysis/test_only_check.h"

#include <map>
#include <set>
#include <utility>

#include "analysis/check.h"
#include "analysis/project.h"
#include "analysis/source_file.h"
#include "analysis/token_cache.h"
#include "analysis/tokenizer.h"

namespace pstore {
namespace analysis {
namespace {

// True for a file under tools/, bench/, benchmark/ or examples/. The
// innermost directory that names a top-level tree decides, so a checkout
// that itself sits below a directory named tools/ still classifies its
// src/ and tests/ files as what they are.
bool IsProgramFile(const std::string& path) {
  std::string normalized = path;
  for (char& c : normalized) {
    if (c == '\\') c = '/';
  }
  size_t end = normalized.rfind('/');
  while (end != std::string::npos) {
    const size_t slash = end == 0 ? std::string::npos
                                  : normalized.rfind('/', end - 1);
    const size_t begin = slash == std::string::npos ? 0 : slash + 1;
    const std::string dir = normalized.substr(begin, end - begin);
    if (dir == "src" || dir == "tests") return false;
    if (dir == "tools" || dir == "bench" || dir == "benchmark" ||
        dir == "examples") {
      return true;
    }
    end = slash;
  }
  return false;
}

}  // namespace

void TestOnlyCheck::Run(const AnalysisContext& context,
                        std::vector<Finding>* findings) const {
  const Project& project = context.project;
  std::map<std::string, const SourceFile*> by_path;
  std::vector<const SourceFile*> queue;
  std::set<std::string> reached;
  for (const SourceFile& file : project.files()) {
    by_path[file.path()] = &file;
    if (IsProgramFile(file.path())) {
      queue.push_back(&file);
      reached.insert(file.path());
    }
  }
  if (queue.empty()) return;

  // Breadth-first from the programs over quoted includes that resolve to
  // project headers. A header's definitions live in its same-stem .cc,
  // so reaching the header reaches that file and its includes too.
  const auto reach = [&](const SourceFile* file) {
    if (reached.insert(file->path()).second) queue.push_back(file);
  };
  for (size_t next = 0; next < queue.size(); ++next) {
    for (const IncludeDirective& inc : queue[next]->includes()) {
      if (inc.angled) continue;
      const SourceFile* header = project.FindHeader(inc.target);
      if (header == nullptr) continue;
      reach(header);
      const std::string& path = header->path();
      const auto source =
          by_path.find(path.substr(0, path.size() - 2) + ".cc");
      if (source != by_path.end()) reach(source->second);
    }
  }

  for (const SourceFile& file : project.files()) {
    if (!file.is_header() || file.include_key().empty()) continue;
    if (reached.count(file.path()) != 0) continue;
    const std::vector<Token>& tokens = context.tokens.tokens(file);
    Finding finding;
    finding.file = file.path();
    finding.line = tokens.empty() ? 1 : tokens.front().line;
    finding.rule = name();
    finding.message =
        "no tool, bench, benchmark or example includes '" +
        file.include_key() +
        "', directly or through src/; only tests reach it. Delete it, or "
        "keep it with // pstore-analyze: allow(test-only) and the reason";
    findings->push_back(std::move(finding));
  }
}

}  // namespace analysis
}  // namespace pstore
