// Metric collection and the result line the benchmark ends with.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< human output only (e.g. "p99 of 1200")
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "");

  /// Aligned "name = value unit  (note)" lines.
  std::string Human() const;
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  /// with every value printed with all its digits.
  std::string ResultJson(bool correct, size_t attempted,
                         size_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
