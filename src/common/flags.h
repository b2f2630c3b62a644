#ifndef PSTORE_COMMON_FLAGS_H_
#define PSTORE_COMMON_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pstore {

// Minimal command-line flag parser for the repo's CLI tools. Accepts
// "--name=value", "--name value", and bare "--name" (boolean true);
// everything else is a positional argument. No registration needed:
// tools query parsed flags with typed getters and defaults, and the
// getters record every name they are asked for, so CheckAllRead can
// reject the flags a tool never reads (typos).
class FlagParser {
 public:
  // Parses argv (excluding argv[0]). Returns an error on malformed
  // input such as a value-expecting flag at the end ("--x" followed by
  // nothing is fine: it becomes boolean true).
  Status Parse(int argc, const char* const* argv);

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  // Every value given for a repeatable flag ("--rule=a --rule=b"), in
  // command-line order; empty when the flag is absent. The scalar
  // getters see only the last occurrence.
  std::vector<std::string> GetStrings(const std::string& name) const;
  // Return kInvalidArgument if the flag is present but not parseable.
  StatusOr<int64_t> GetInt(const std::string& name,
                           int64_t default_value) const;
  StatusOr<double> GetDouble(const std::string& name,
                             double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // All parsed flags, by name.
  const std::map<std::string, std::string>& flags() const { return flags_; }

  // InvalidArgument("--<name>: unknown flag") for the first parsed flag,
  // by name, that no getter has read; OK otherwise. A tool calls it
  // once it has read every flag it accepts.
  Status CheckAllRead() const;

 private:
  std::map<std::string, std::string> flags_;
  // Names the getters were asked for, present or not.
  mutable std::set<std::string> read_;
  // Every (name, value) occurrence in command-line order, for
  // repeatable flags.
  std::vector<std::pair<std::string, std::string>> occurrences_;
  std::vector<std::string> positional_;
};

}  // namespace pstore

#endif  // PSTORE_COMMON_FLAGS_H_
