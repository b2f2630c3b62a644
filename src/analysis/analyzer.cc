#include "analysis/analyzer.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "analysis/check.h"
#include "analysis/dead_symbol_check.h"
#include "analysis/global_state_check.h"
#include "analysis/guarded_by_check.h"
#include "analysis/hot_path_perf_check.h"
#include "analysis/include_hygiene_check.h"
#include "analysis/layering_check.h"
#include "analysis/lock_order_check.h"
#include "analysis/nondet_iteration_check.h"
#include "analysis/pointer_order_check.h"
#include "analysis/project.h"
#include "analysis/source_file.h"
#include "analysis/status_check.h"
#include "analysis/symbol_graph.h"
#include "analysis/test_only_check.h"
#include "analysis/token_cache.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace pstore {
namespace analysis {

Analyzer::Analyzer() {
  checks_.push_back(std::make_unique<LayeringCheck>());
  checks_.push_back(std::make_unique<StatusCheck>());
  checks_.push_back(std::make_unique<IncludeHygieneCheck>());
  checks_.push_back(std::make_unique<NondetIterationCheck>());
  checks_.push_back(std::make_unique<GlobalStateCheck>());
  checks_.push_back(std::make_unique<PointerOrderCheck>());
  checks_.push_back(std::make_unique<GuardedByCheck>());
  checks_.push_back(std::make_unique<LockOrderCheck>());
  checks_.push_back(std::make_unique<DeadSymbolCheck>());
  checks_.push_back(std::make_unique<HotPathPerfCheck>());
  checks_.push_back(std::make_unique<TestOnlyCheck>());
}

std::vector<std::string> Analyzer::RuleNames() const {
  std::vector<std::string> names;
  names.reserve(checks_.size());
  for (const auto& check : checks_) names.push_back(check->name());
  return names;
}

Status Analyzer::SelectRules(const std::vector<std::string>& names) {
  const std::vector<std::string> known = RuleNames();
  for (const std::string& name : names) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown rule '" + name + "'");
    }
  }
  selected_ = names;
  return Status::OK();
}

std::vector<Finding> Analyzer::Run(const Project& project,
                                   ThreadPool* pool) const {
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : project.files()) {
    by_path[file.path()] = &file;
  }

  // Tokenize every file once, up front (parallel when a pool is
  // given); the checks share the cache read-only.
  const TokenCache cache(project, pool);

  std::vector<const Check*> to_run;
  bool need_symbols = false;
  for (const auto& check : checks_) {
    if (!selected_.empty() &&
        std::find(selected_.begin(), selected_.end(), check->name()) ==
            selected_.end()) {
      continue;
    }
    to_run.push_back(check.get());
    need_symbols = need_symbols || check->needs_symbols();
  }

  // The cross-TU symbol graph is built once, and only when a selected
  // whole-program rule will consume it, so token-local subsets stay
  // cheap. Its construction itself fans out over the pool.
  std::unique_ptr<SymbolGraph> symbols;
  if (need_symbols) {
    symbols = std::make_unique<SymbolGraph>(project, cache, pool);
  }
  const AnalysisContext context{project, cache, symbols.get()};

  // One findings vector per check, written by index, so the parallel
  // path needs no locking. The final sort below fully determines the
  // output order, making serial and parallel runs byte-identical.
  std::vector<std::vector<Finding>> per_check(to_run.size());
  const auto run_one = [&](size_t i) {
    to_run[i]->Run(context, &per_check[i]);
  };
  if (pool != nullptr && pool->thread_count() > 1) {
    pool->ParallelFor(to_run.size(), run_one);
  } else {
    for (size_t i = 0; i < to_run.size(); ++i) run_one(i);
  }

  // Merge, then apply `// pstore-analyze: allow(<rule>)` suppressions.
  std::vector<Finding> kept;
  for (std::vector<Finding>& findings : per_check) {
    for (Finding& finding : findings) {
      auto it = by_path.find(finding.file);
      if (it != by_path.end() &&
          it->second->IsSuppressed(finding.rule, finding.line)) {
        continue;
      }
      kept.push_back(std::move(finding));
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return kept;
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

namespace {

// Canonical JSON string encoding: `"` and `\` escaped, control
// characters as \n / \t / \r or \u00XX. No other characters are
// escaped, so equal strings always produce byte-equal encodings.
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    const Finding& f = findings[i];
    out += "  {\"file\": \"" + JsonEscape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           JsonEscape(f.rule) + "\", \"message\": \"" + JsonEscape(f.message) +
           "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

namespace {

// Minimal cursor over FindingsToJson output. Any deviation from the
// canonical shape is an InvalidArgument, not a best-effort parse.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Status::InvalidArgument("expected '\"'");
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_];
        if (esc == 'n') {
          c = '\n';
        } else if (esc == 't') {
          c = '\t';
        } else if (esc == 'r') {
          c = '\r';
        } else if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          unsigned value = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_ + 1 + static_cast<size_t>(k)];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else {
              return Status::InvalidArgument("bad \\u escape");
            }
          }
          pos_ += 4;
          c = static_cast<char>(value);
        } else {
          c = esc;  // \" and backslash
        }
      }
      out->push_back(c);
      ++pos_;
    }
    if (!Consume('"')) return Status::InvalidArgument("unterminated string");
    return Status::OK();
  }

  Status ParseInt(int* out) {
    SkipSpace();
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Status::InvalidArgument("expected integer");
    }
    long value = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      value = value * 10 + (text_[pos_] - '0');
      ++pos_;
    }
    *out = static_cast<int>(negative ? -value : value);
    return Status::OK();
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<std::vector<Finding>> ParseFindingsJson(const std::string& text) {
  JsonCursor cursor(text);
  if (!cursor.Consume('[')) {
    return Status::InvalidArgument("findings JSON must start with '['");
  }
  std::vector<Finding> findings;
  if (!cursor.Peek(']')) {
    do {
      if (!cursor.Consume('{')) {
        return Status::InvalidArgument("expected '{' to open a finding");
      }
      Finding finding;
      static constexpr const char* kKeys[] = {"file", "line", "rule",
                                              "message"};
      for (const char* expected : kKeys) {
        std::string key;
        Status status = cursor.ParseString(&key);
        if (!status.ok()) return status;
        if (key != expected) {
          return Status::InvalidArgument("expected key '" +
                                         std::string(expected) + "', got '" +
                                         key + "'");
        }
        if (!cursor.Consume(':')) {
          return Status::InvalidArgument("expected ':' after key");
        }
        if (key == "line") {
          status = cursor.ParseInt(&finding.line);
        } else {
          std::string* field = key == "file" ? &finding.file
                               : key == "rule" ? &finding.rule
                                               : &finding.message;
          status = cursor.ParseString(field);
        }
        if (!status.ok()) return status;
        cursor.Consume(',');
      }
      if (!cursor.Consume('}')) {
        return Status::InvalidArgument("expected '}' to close a finding");
      }
      findings.push_back(std::move(finding));
    } while (cursor.Consume(','));
  }
  if (!cursor.Consume(']')) {
    return Status::InvalidArgument("findings JSON must end with ']'");
  }
  return findings;
}

}  // namespace analysis
}  // namespace pstore
