#include "common/flags.h"

#include <cstdlib>

#include "common/status.h"

namespace pstore {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a flag");
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      occurrences_.emplace_back(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // "--name value" when the next token is not itself a flag;
    // otherwise boolean true.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[i + 1];
      occurrences_.emplace_back(body, argv[i + 1]);
      ++i;
    } else {
      flags_[body] = "true";
      occurrences_.emplace_back(body, "true");
    }
  }
  return Status::OK();
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

std::vector<std::string> FlagParser::GetStrings(
    const std::string& name) const {
  read_.insert(name);
  std::vector<std::string> values;
  for (const auto& occurrence : occurrences_) {
    if (occurrence.first == name) values.push_back(occurrence.second);
  }
  return values;
}

StatusOr<int64_t> FlagParser::GetInt(const std::string& name,
                                     int64_t default_value) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name + " is not an integer: " +
                                   it->second);
  }
  return static_cast<int64_t>(value);
}

StatusOr<double> FlagParser::GetDouble(const std::string& name,
                                       double default_value) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name + " is not a number: " +
                                   it->second);
  }
  return value;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

Status FlagParser::CheckAllRead() const {
  for (const auto& flag : flags_) {
    if (read_.count(flag.first) == 0) {
      return Status::InvalidArgument("--" + flag.first + ": unknown flag");
    }
  }
  return Status::OK();
}

}  // namespace pstore
