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

StatusOr<TimeSeries> LoadTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Status::NotFound("cannot open: " + path);
  }
  double slot_seconds = 60.0;
  std::vector<double> values;
  std::string line;
  size_t line_number = 0;
  const auto bad_line = [&](const std::string& what) {
    return Status::InvalidArgument(path + " line " +
                                   std::to_string(line_number) + ": " + what +
                                   ": " + line);
  };
  while (std::getline(in, line)) {
    ++line_number;
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
    if (comma == std::string::npos) continue;
    const std::string value_field = line.substr(comma + 1);
    char* end = nullptr;
    const double value = std::strtod(value_field.c_str(), &end);
    if (end == value_field.c_str()) continue;  // header row
    if (!std::isfinite(value) || value < 0.0) {
      return bad_line("load must be finite and non-negative");
    }
    values.push_back(value);
  }
  return TimeSeries(slot_seconds, std::move(values));
}

}  // namespace pstore
