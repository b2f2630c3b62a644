#include "obs/metrics_registry.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace_event.h"

namespace pstore {
namespace obs {
namespace {

void AppendInt(int64_t value, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out->append(buf);
}

void AppendDouble(double value, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out->append(buf);
}

void AppendKey(const std::string& name, std::string* out) {
  out->push_back('"');
  AppendJsonEscaped(name, out);
  out->append("\":");
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    AppendKey(name, &out);
    AppendInt(counter.value(), &out);
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    AppendKey(name, &out);
    AppendDouble(gauge.value(), &out);
  }
  out.append("},\"timers\":{");
  first = true;
  for (const auto& [name, timer] : timers_) {
    if (!first) out.push_back(',');
    first = false;
    AppendKey(name, &out);
    out.append("{\"count\":");
    AppendInt(timer.count(), &out);
    out.append(",\"total_us\":");
    AppendInt(timer.total_us(), &out);
    out.append(",\"max_us\":");
    AppendInt(timer.max_us(), &out);
    out.push_back('}');
  }
  out.append("}}\n");
  return out;
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    return Status::InvalidArgument("cannot open metrics file '" + path + "'");
  }
  const std::string json = ToJson();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out.good()) {
    return Status::Internal("metrics write to '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace pstore
