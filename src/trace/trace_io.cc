#include "trace/trace_io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/status.h"
#include "common/time_series.h"

namespace pstore {

Status SaveTraceCsv(const TimeSeries& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << "# slot_seconds=" << trace.slot_seconds() << "\n";
  out << "slot,value\n";
  char buf[64];
  for (size_t i = 0; i < trace.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%zu,%.10g\n", i, trace[i]);
    out << buf;
  }
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

namespace {

// True when `field` is a slot number: digits only, read in full.
bool ParseSlot(const std::string& field, size_t* slot) {
  if (field.empty() ||
      field.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *slot = static_cast<size_t>(std::strtoull(field.c_str(), nullptr, 10));
  return true;
}

// True when strtod reads all of `field`.
bool ParseLoad(const std::string& field, double* value) {
  char* end = nullptr;
  *value = std::strtod(field.c_str(), &end);
  return end != field.c_str() && *end == '\0';
}

}  // namespace

StatusOr<TimeSeries> LoadTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Status::NotFound("cannot open: " + path);
  }
  double slot_seconds = 60.0;
  std::vector<double> values;
  bool header_seen = false;
  std::string line;
  size_t line_number = 0;
  const auto bad_line = [&](const std::string& what) {
    return Status::InvalidArgument(path + " line " +
                                   std::to_string(line_number) + ": " + what +
                                   ": " + line);
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      const auto pos = line.find("slot_seconds=");
      if (pos != std::string::npos) {
        slot_seconds = std::strtod(line.c_str() + pos + 13, nullptr);
        if (!std::isfinite(slot_seconds) || slot_seconds <= 0.0) {
          return bad_line("slot_seconds must be finite and positive");
        }
      }
      continue;
    }
    const auto comma = line.find(',');
    size_t slot = 0;
    if (!ParseSlot(line.substr(0, comma), &slot)) {
      // One header row may come before the first data row.
      if (values.empty() && !header_seen) {
        header_seen = true;
        continue;
      }
      return bad_line("expected slot,value");
    }
    double value = 0.0;
    if (comma == std::string::npos ||
        !ParseLoad(line.substr(comma + 1), &value)) {
      return bad_line("load is not a number");
    }
    if (!std::isfinite(value) || value < 0.0) {
      return bad_line("load must be finite and non-negative");
    }
    if (slot != values.size()) {
      return bad_line("expected slot " + std::to_string(values.size()));
    }
    values.push_back(value);
  }
  return TimeSeries(slot_seconds, std::move(values));
}

}  // namespace pstore
