#include "report.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

void MetricSet::Add(std::string name, double value, std::string unit,
                    std::string note) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

std::string MetricSet::Human() const {
  std::string out;
  char line[256];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-28s = %14.6g %-8s %s\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
    out += line;
  }
  return out;
}

std::string MetricSet::ResultJson(bool correct, size_t attempted,
                                  size_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/Inf; a non-finite measurement is reported as null.
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += i == 0 ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
