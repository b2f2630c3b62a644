#include "analysis/symbol_graph.h"

#include <algorithm>
#include <set>

#include "analysis/project.h"
#include "analysis/source_file.h"
#include "analysis/token_cache.h"
#include "analysis/token_util.h"
#include "analysis/tokenizer.h"
#include "common/thread_pool.h"

namespace pstore {
namespace analysis {
namespace {

// Keywords that can never name a function or a call target.
bool IsExpressionKeyword(const std::string& text) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",     "switch",        "catch",
      "return",   "sizeof",   "alignof",   "alignas",       "decltype",
      "noexcept", "typeid",   "new",       "delete",        "throw",
      "co_await", "co_return", "co_yield", "static_assert", "defined",
      "asm",      "explicit", "requires"};
  return kKeywords.count(text) != 0;
}

bool IsClassKeyword(const std::string& text) {
  return text == "class" || text == "struct";
}

// Index of the name after the class keyword at `i`, past any attributes
// (`class [[nodiscard]] Status`).
size_t ClassNameAt(const std::vector<Token>& tokens, size_t i) {
  size_t at = i + 1;
  while (IsPunctAt(tokens, at, "[") && IsPunctAt(tokens, at + 1, "[")) {
    at = SkipBalancedRun(tokens, at);
  }
  return at;
}

// One function definition or declaration as written in one file.
struct RawSite {
  std::string qualified_name;
  std::string name;
  std::string class_name;
  bool special = false;
  int line = 0;
  size_t body_begin = 0;
  size_t body_end = 0;
  size_t params_begin = 0;
  size_t params_end = 0;
  bool is_definition = false;
};

// One textual call site inside a function definition.
struct RawCall {
  std::string caller;             // qualified name of the enclosing def
  std::vector<std::string> path;  // as written: {"Analyzer", "Run"}
  int line = 0;
};

struct FileFacts {
  std::vector<RawSite> sites;
  std::vector<RawCall> calls;
};

// The written name path ending just before tokens[open] == "(".
struct NamePath {
  std::vector<std::string> path;  // {"Queue", "Push"} for Queue::Push(
  std::string name;               // last component (with ~ / operator glued)
  bool special = false;           // dtor / operator / conversion operator
  size_t start = 0;               // token index of the first path component
  int line = 0;                   // line of the name token
  bool ok = false;
};

// Walks backwards from the token before '(' to recover the declarator
// or callee path: ident, Class::ident, ns::Class::ident, ~ident,
// operator==, operator(), operator bool.
NamePath ParseNamePathBefore(const std::vector<Token>& tokens, size_t open) {
  NamePath result;
  if (open == 0) return result;
  size_t j = open - 1;

  if (tokens[j].kind == TokenKind::kPunct) {
    // operator==(...), operator[](...), operator()(...): collect the
    // punctuation back to the `operator` keyword (at most 2 tokens).
    std::string glued;
    size_t punct_count = 0;
    while (j < tokens.size() && tokens[j].kind == TokenKind::kPunct &&
           punct_count < 2) {
      glued = tokens[j].text + glued;
      ++punct_count;
      if (j == 0) return result;
      --j;
    }
    if (!IsIdentAt(tokens, j, "operator")) return result;
    result.name = "operator" + glued;
    result.special = true;
    result.start = j;
    result.line = tokens[j].line;
    result.path = {result.name};
  } else if (tokens[j].kind == TokenKind::kIdentifier) {
    const std::string& text = tokens[j].text;
    if (IsExpressionKeyword(text)) return result;
    result.line = tokens[j].line;
    result.start = j;
    if (j > 0 && IsPunctAt(tokens, j - 1, "~")) {
      result.name = "~" + text;
      result.special = true;
      result.start = j - 1;
      j = result.start;
    } else if (j > 0 && IsIdentAt(tokens, j - 1, "operator")) {
      // Conversion operator: `operator bool(`.
      result.name = "operator " + text;
      result.special = true;
      result.start = j - 1;
      j = result.start;
    } else {
      result.name = text;
    }
    result.path = {result.name};
  } else {
    return result;
  }

  // Prepend `Class::`-style qualifiers.
  while (result.start >= 2 && IsPunctAt(tokens, result.start - 1, "::") &&
         IsIdentAt(tokens, result.start - 2) &&
         !IsExpressionKeyword(tokens[result.start - 2].text)) {
    result.path.insert(result.path.begin(), tokens[result.start - 2].text);
    result.start -= 2;
  }
  result.ok = true;
  return result;
}

// What may precede a declarator for it to be a declaration or
// definition (rather than a call or an initializer expression): a
// return type / specifier identifier, scope punctuation, or nothing.
bool IsDeclaratorPrefix(const std::vector<Token>& tokens, size_t start) {
  if (start == 0) return true;
  const Token& prev = tokens[start - 1];
  if (prev.kind == TokenKind::kIdentifier) {
    return !IsExpressionKeyword(prev.text) || prev.text == "explicit";
  }
  if (prev.kind != TokenKind::kPunct) return false;
  static const std::set<std::string> kAllowed = {";", "}", "{", ">", "&",
                                                "*", ":", "]", "::"};
  return kAllowed.count(prev.text) != 0;
}

enum class AfterParams { kNotAFunction, kDeclaration, kDefinition };

// Classifies the tokens after a candidate's parameter list: `{` (or a
// ctor-init list leading to one) is a definition, `;` or `= default` /
// `= delete` / `= 0` a declaration, anything else not a function.
// Returns the index of the body `{`, the `;`, or the `=`.
AfterParams ClassifyAfterParams(const std::vector<Token>& tokens, size_t after,
                                size_t* stop) {
  const size_t n = tokens.size();
  size_t j = after;
  while (j < n) {
    const Token& t = tokens[j];
    if (t.kind == TokenKind::kIdentifier) {
      if (t.text == "noexcept" && IsPunctAt(tokens, j + 1, "(")) {
        j = SkipBalancedRun(tokens, j + 1);
        continue;
      }
      ++j;  // const, override, final, trailing return-type names
      continue;
    }
    if (t.kind != TokenKind::kPunct) return AfterParams::kNotAFunction;
    const std::string& p = t.text;
    if (p == "{") {
      *stop = j;
      return AfterParams::kDefinition;
    }
    if (p == ";") {
      *stop = j;
      return AfterParams::kDeclaration;
    }
    if (p == ":") {
      // Constructor initializer list: scan to the body brace.
      for (size_t k = j + 1; k < n; ++k) {
        if (IsPunctAt(tokens, k, "(") || IsPunctAt(tokens, k, "[") ||
            IsPunctAt(tokens, k, "{")) {
          if (IsPunctAt(tokens, k, "{") && !IsPunctAt(tokens, k + 1, "}") &&
              k > j + 1 && IsIdentAt(tokens, k - 1)) {
            // Brace-init of a member: `: member_{...}` — skip it.
          } else if (IsPunctAt(tokens, k, "{")) {
            *stop = k;
            return AfterParams::kDefinition;
          }
          k = SkipBalancedRun(tokens, k) - 1;
          continue;
        }
        if (IsPunctAt(tokens, k, ";") || IsPunctAt(tokens, k, "}")) {
          return AfterParams::kNotAFunction;
        }
      }
      return AfterParams::kNotAFunction;
    }
    if (p == "=") {
      *stop = j;  // = default; / = delete; / = 0;
      return AfterParams::kDeclaration;
    }
    if (p == "->" || p == "::" || p == "<" || p == ">" || p == "&" ||
        p == "*" || p == ",") {
      ++j;
      continue;
    }
    if (p == "(" || p == "[") {
      j = SkipBalancedRun(tokens, j);
      continue;
    }
    return AfterParams::kNotAFunction;
  }
  return AfterParams::kNotAFunction;
}

// Scope stack entry for the per-file scan.
struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind;
  std::string name;  // namespace / class component; function: qualified name
  int depth;         // brace depth just before this scope's '{'
};

// Extracts definitions, declarations, and call sites from one file.
// Purely a function of (file, tokens), so files can be scanned on any
// thread in any order.
void ScanFile(const SourceFile& file, const std::vector<Token>& tokens,
              FileFacts* facts) {
  (void)file;  // facts carry indices; the path is attached at merge time
  const size_t n = tokens.size();
  std::vector<Scope> stack;
  int depth = 0;

  const auto enclosing_function = [&]() -> const Scope* {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == Scope::kFunction) return &*it;
      if (it->kind != Scope::kBlock) return nullptr;
    }
    return nullptr;
  };
  const auto scope_prefix = [&]() {
    std::string prefix;
    for (const Scope& scope : stack) {
      if (scope.kind != Scope::kNamespace && scope.kind != Scope::kClass) {
        continue;
      }
      if (!prefix.empty()) prefix += "::";
      prefix += scope.name;
    }
    return prefix;
  };
  const auto innermost_class = [&]() -> std::string {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
      if (it->kind == Scope::kFunction) return "";
    }
    return "";
  };

  size_t i = 0;
  while (i < n) {
    const Token& tok = tokens[i];
    if (tok.kind == TokenKind::kPunct) {
      if (tok.text == "{") {
        stack.push_back({Scope::kBlock, "", depth});
        ++depth;
        ++i;
        continue;
      }
      if (tok.text == "}") {
        if (depth > 0) --depth;
        while (!stack.empty() && stack.back().depth == depth) stack.pop_back();
        ++i;
        continue;
      }
      if (tok.text == "(") {
        const Scope* function = enclosing_function();
        if (function != nullptr) {
          // Call site: ident path immediately before the paren; member
          // calls (`obj.Tick(`) contribute only the method name.
          NamePath callee = ParseNamePathBefore(tokens, i);
          if (callee.ok && !callee.special) {
            const bool member_call =
                callee.start > 0 && (IsPunctAt(tokens, callee.start - 1, ".") ||
                                     IsPunctAt(tokens, callee.start - 1, "->"));
            std::vector<std::string> path = callee.path;
            if (member_call) path = {callee.name};
            facts->calls.push_back(
                {function->name, std::move(path), tokens[i].line});
          }
          ++i;
          continue;
        }
        // Declarative scope: candidate function definition/declaration.
        NamePath declarator = ParseNamePathBefore(tokens, i);
        if (!declarator.ok || !IsDeclaratorPrefix(tokens, declarator.start)) {
          ++i;
          continue;
        }
        const size_t after = SkipBalancedRun(tokens, i);
        size_t stop = 0;
        const AfterParams kind = ClassifyAfterParams(tokens, after, &stop);
        if (kind == AfterParams::kNotAFunction) {
          ++i;
          continue;
        }
        RawSite site;
        site.name = declarator.name;
        site.special = declarator.special;
        site.line = declarator.line;
        site.params_begin = i;
        site.params_end = after;
        const std::string prefix = scope_prefix();
        std::string written;
        for (const std::string& component : declarator.path) {
          if (!written.empty()) written += "::";
          written += component;
        }
        site.qualified_name =
            prefix.empty() ? written : prefix + "::" + written;
        site.class_name = declarator.path.size() > 1
                              ? declarator.path[declarator.path.size() - 2]
                              : innermost_class();
        if (site.name == site.class_name) site.special = true;  // constructor
        if (kind == AfterParams::kDefinition) {
          site.is_definition = true;
          site.body_begin = stop;
          site.body_end = SkipBalancedRun(tokens, stop);
          facts->sites.push_back(site);
          stack.push_back({Scope::kFunction, site.qualified_name, depth});
          ++depth;
          i = stop + 1;
          continue;
        }
        facts->sites.push_back(site);
        i = stop;  // the ';' or '=' is re-scanned as a plain token
        continue;
      }
      ++i;
      continue;
    }
    if (tok.kind != TokenKind::kIdentifier) {
      ++i;
      continue;
    }
    if (enclosing_function() != nullptr) {
      ++i;  // identifiers in bodies are handled via the '(' anchor
      continue;
    }
    const std::string& word = tok.text;
    if (word == "template" && IsPunctAt(tokens, i + 1, "<")) {
      // Skip the parameter list so `class T` is not a class definition.
      int angle = 0;
      size_t j = i + 1;
      for (; j < n; ++j) {
        if (tokens[j].kind != TokenKind::kPunct) continue;
        if (tokens[j].text == "<") ++angle;
        if (tokens[j].text == ">" && --angle == 0) break;
        if (tokens[j].text == ";" || tokens[j].text == "{") break;
      }
      i = j + 1;
      continue;
    }
    if (word == "namespace") {
      std::string name;
      size_t j = i + 1;
      while (j < n) {
        if (IsIdentAt(tokens, j)) {
          if (!name.empty()) name += "::";
          name += tokens[j].text;
          ++j;
          continue;
        }
        if (IsPunctAt(tokens, j, "::")) {
          ++j;
          continue;
        }
        break;
      }
      if (IsPunctAt(tokens, j, "{")) {
        if (name.empty()) name = "(anon)";
        stack.push_back({Scope::kNamespace, name, depth});
        ++depth;
        i = j + 1;
        continue;
      }
      i = j + 1;  // namespace alias or ill-formed; skip
      continue;
    }
    if (word == "using" || word == "typedef") {
      while (i < n && !IsPunctAt(tokens, i, ";")) ++i;
      continue;
    }
    if (word == "enum") {
      size_t j = i + 1;
      while (j < n && !IsPunctAt(tokens, j, ";") && !IsPunctAt(tokens, j, "{")) {
        ++j;
      }
      if (IsPunctAt(tokens, j, "{")) j = SkipBalancedRun(tokens, j);
      i = j;
      continue;
    }
    const size_t name_at = ClassNameAt(tokens, i);
    if (IsClassKeyword(word) && IsIdentAt(tokens, name_at)) {
      const std::string& class_name = tokens[name_at].text;
      // Find the body brace; forward declarations, parameters, and
      // template arguments never reach one. Template arguments in a
      // base-clause (`: public Base<T>`) are skipped.
      size_t open = 0;
      for (size_t j = name_at + 1; j < n; ++j) {
        if (tokens[j].kind == TokenKind::kIdentifier) continue;
        if (tokens[j].kind != TokenKind::kPunct) break;
        const std::string& t = tokens[j].text;
        if (t == "<") {
          int angle = 0;
          for (; j < n; ++j) {
            if (tokens[j].kind != TokenKind::kPunct) continue;
            if (tokens[j].text == "<") ++angle;
            if (tokens[j].text == ">" && --angle == 0) break;
            if (tokens[j].text == ";" || tokens[j].text == "{") break;
          }
          continue;
        }
        if (t == "{") {
          open = j;
          break;
        }
        if (t == "::" || t == ":" || t == ",") continue;
        break;  // ';' forward decl, ')' parameter, '=' default arg, ...
      }
      if (open != 0) {
        stack.push_back({Scope::kClass, class_name, depth});
        ++depth;
        i = open + 1;
        continue;
      }
      i = name_at + 1;
      continue;
    }
    ++i;
  }
}

}  // namespace

SymbolGraph::SymbolGraph(const Project& project, const TokenCache& tokens,
                         ThreadPool* pool) {
  const std::vector<SourceFile>& files = project.files();
  const size_t file_count = files.size();

  // Phase 1: per-file extraction — each slot written by exactly one
  // index, so the facts are identical for any thread count.
  std::vector<FileFacts> facts(file_count);
  const auto scan_one = [&](size_t index) {
    ScanFile(files[index], tokens.tokens(files[index]), &facts[index]);
  };
  if (pool != nullptr && pool->thread_count() > 1) {
    pool->ParallelFor(file_count, scan_one);
  } else {
    for (size_t index = 0; index < file_count; ++index) scan_one(index);
  }

  // Phase 2: merge in file order into overload sets keyed (and finally
  // sorted) by qualified name.
  std::map<std::string, FunctionSymbol> merged;
  for (size_t index = 0; index < file_count; ++index) {
    for (const RawSite& site : facts[index].sites) {
      FunctionSymbol& fn = merged[site.qualified_name];
      if (fn.qualified_name.empty()) {
        fn.qualified_name = site.qualified_name;
        fn.name = site.name;
        fn.class_name = site.class_name;
      }
      if (fn.class_name.empty()) fn.class_name = site.class_name;
      fn.is_special = fn.is_special || site.special;
      SymbolSite where{index,
                       files[index].path(),
                       files[index].dir(),
                       site.line,
                       site.body_begin,
                       site.body_end,
                       site.params_begin,
                       site.params_end};
      if (site.is_definition) {
        fn.definitions.push_back(where);
      } else {
        fn.declarations.push_back(where);
      }
    }
  }
  functions_.reserve(merged.size());
  for (auto& [qualified_name, fn] : merged) {
    by_qualified_name_[qualified_name] = functions_.size();
    by_name_[fn.name].push_back(functions_.size());
    functions_.push_back(std::move(fn));
  }

  // Phase 3: resolve call paths to overload sets and build the edge
  // lists. Processing files in index order keeps this deterministic.
  for (size_t index = 0; index < file_count; ++index) {
    for (const RawCall& call : facts[index].calls) {
      const auto caller_it = by_qualified_name_.find(call.caller);
      if (caller_it == by_qualified_name_.end()) continue;
      for (const size_t callee : Resolve(call.path)) {
        calls_.push_back({caller_it->second, callee, index, call.line});
      }
    }
  }
  std::sort(calls_.begin(), calls_.end(),
            [](const CallSite& a, const CallSite& b) {
              if (a.caller != b.caller) return a.caller < b.caller;
              if (a.callee != b.callee) return a.callee < b.callee;
              if (a.file_index != b.file_index) {
                return a.file_index < b.file_index;
              }
              return a.line < b.line;
            });
  calls_.erase(std::unique(calls_.begin(), calls_.end(),
                           [](const CallSite& a, const CallSite& b) {
                             return a.caller == b.caller &&
                                    a.callee == b.callee &&
                                    a.file_index == b.file_index &&
                                    a.line == b.line;
                           }),
               calls_.end());
  callees_.assign(functions_.size(), {});
  callers_.assign(functions_.size(), {});
  for (const CallSite& call : calls_) {
    callees_[call.caller].push_back(call.callee);
    callers_[call.callee].push_back(call.caller);
  }
  for (std::vector<size_t>& adjacent : callees_) {
    adjacent.erase(std::unique(adjacent.begin(), adjacent.end()),
                   adjacent.end());
  }
  for (std::vector<size_t>& adjacent : callers_) {
    std::sort(adjacent.begin(), adjacent.end());
    adjacent.erase(std::unique(adjacent.begin(), adjacent.end()),
                   adjacent.end());
  }

  // Phase 4: bare-name mentions, excluding each symbol's own
  // declaration/definition name sites, plus identifiers inside
  // preprocessor directives (macro bodies call functions the tokenizer
  // never sees). Counted per file in parallel, merged in file order.
  std::vector<std::map<int, std::set<std::string>>> excluded(file_count);
  for (const FunctionSymbol& fn : functions_) {
    for (const SymbolSite& site : fn.definitions) {
      excluded[site.file_index][site.line].insert(fn.name);
    }
    for (const SymbolSite& site : fn.declarations) {
      excluded[site.file_index][site.line].insert(fn.name);
    }
  }
  std::vector<std::map<std::string, int>> mention_counts(file_count);
  const auto count_one = [&](size_t index) {
    std::map<std::string, int>& counts = mention_counts[index];
    const std::map<int, std::set<std::string>>& skip = excluded[index];
    for (const Token& token : tokens.tokens(files[index])) {
      if (token.kind != TokenKind::kIdentifier) continue;
      if (by_name_.count(token.text) == 0) continue;
      const auto skip_it = skip.find(token.line);
      if (skip_it != skip.end() && skip_it->second.count(token.text) != 0) {
        continue;
      }
      ++counts[token.text];
    }
    for (const std::string& ident : files[index].preprocessor_idents()) {
      if (by_name_.count(ident) != 0) ++counts[ident];
    }
  };
  if (pool != nullptr && pool->thread_count() > 1) {
    pool->ParallelFor(file_count, count_one);
  } else {
    for (size_t index = 0; index < file_count; ++index) count_one(index);
  }
  std::map<std::string, int> total_mentions;
  for (size_t index = 0; index < file_count; ++index) {
    for (const auto& [name, count] : mention_counts[index]) {
      total_mentions[name] += count;
    }
  }
  for (FunctionSymbol& fn : functions_) {
    const auto it = total_mentions.find(fn.name);
    fn.mentions = it == total_mentions.end() ? 0 : it->second;
  }
}

size_t SymbolGraph::FindFunction(const std::string& qualified_name) const {
  const auto it = by_qualified_name_.find(qualified_name);
  return it == by_qualified_name_.end() ? kNoSymbol : it->second;
}

std::vector<size_t> SymbolGraph::Resolve(
    const std::vector<std::string>& path) const {
  std::vector<size_t> matches;
  if (path.empty()) return matches;
  const auto it = by_name_.find(path.back());
  if (it == by_name_.end()) return matches;
  for (const size_t index : it->second) {
    // Component-wise suffix match of the written path against the
    // qualified name.
    const std::string& qualified = functions_[index].qualified_name;
    size_t end = qualified.size();
    bool match = true;
    for (size_t k = path.size(); k-- > 0;) {
      const std::string& component = path[k];
      if (end < component.size() ||
          qualified.compare(end - component.size(), component.size(),
                            component) != 0) {
        match = false;
        break;
      }
      end -= component.size();
      if (k == 0) break;
      if (end < 2 || qualified.compare(end - 2, 2, "::") != 0) {
        match = false;
        break;
      }
      end -= 2;
    }
    if (!match) continue;
    // The first matched component must itself start on a component
    // boundary ("Run" must not match "DryRun").
    if (end != 0 && !(end >= 2 && qualified.compare(end - 2, 2, "::") == 0)) {
      continue;
    }
    matches.push_back(index);
  }
  return matches;
}

const std::vector<size_t>& SymbolGraph::callees_of(size_t function) const {
  return callees_[function];
}

const std::vector<size_t>& SymbolGraph::callers_of(size_t function) const {
  return callers_[function];
}

std::vector<char> SymbolGraph::ReachableFrom(
    const std::vector<size_t>& roots) const {
  std::vector<char> reachable(functions_.size(), 0);
  std::vector<size_t> frontier;
  for (const size_t root : roots) {
    if (root < functions_.size() && reachable[root] == 0) {
      reachable[root] = 1;
      frontier.push_back(root);
    }
  }
  while (!frontier.empty()) {
    const size_t at = frontier.back();
    frontier.pop_back();
    for (const size_t next : callees_[at]) {
      if (reachable[next] == 0) {
        reachable[next] = 1;
        frontier.push_back(next);
      }
    }
  }
  return reachable;
}

}  // namespace analysis
}  // namespace pstore
