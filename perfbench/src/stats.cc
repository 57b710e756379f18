#include "stats.h"

#include <cstdio>

#include "query/metrics.h"
#include "util/quantile.h"

namespace perfbench {

double TailPercentile(size_t count) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  for (double p : kLadder) {
    // (1 - p) is not exact in binary; the slack keeps a rung that leaves
    // exactly kTailMinBeyond samples (e.g. p99 of 1000) supported.
    const double beyond = static_cast<double>(count) * (1.0 - p);
    if (beyond + 1e-9 >= static_cast<double>(kTailMinBeyond)) return p;
  }
  return 0.5;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  naru::QuantileSketch sketch;
  for (double v : values) sketch.Add(v);
  s.p50 = sketch.Quantile(0.5);
  s.tail_percentile = TailPercentile(values.size());
  s.tail = sketch.Quantile(s.tail_percentile);
  s.max = sketch.Max();
  return s;
}

double SliceMedian(const std::vector<double>& values, size_t slices) {
  if (slices == 0 || values.size() < slices) return Summarize(values).p50;
  std::vector<double> medians;
  for (size_t k = 0; k < slices; ++k) {
    const size_t lo = values.size() * k / slices;
    const size_t hi = values.size() * (k + 1) / slices;
    medians.push_back(Summarize(std::vector<double>(values.begin() + lo,
                                                    values.begin() + hi))
                          .p50);
  }
  return Summarize(medians).p50;
}

std::string TailLabel(const Summary& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of %zu", s.tail_percentile * 100.0,
                s.count);
  return buf;
}

void Outcomes::AddResponse(const naru::WireEstimateResponse& response) {
  ++attempted;
  switch (response.status_code) {
    case naru::StatusCode::kOk:
      ++ok;
      break;
    case naru::StatusCode::kResourceExhausted:
    case naru::StatusCode::kDeadlineExceeded:
      ++shed;
      break;
    default:
      ++errors;
      break;
  }
}

void Outcomes::AddTransportFailure() {
  ++attempted;
  ++transport;
}

void Outcomes::Merge(const Outcomes& other) {
  attempted += other.attempted;
  ok += other.ok;
  shed += other.shed;
  errors += other.errors;
  transport += other.transport;
}

double Outcomes::FailedFrac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

double QErrorOfSelectivity(double estimated_selectivity, int64_t true_count,
                           size_t num_rows) {
  return naru::QError(estimated_selectivity * static_cast<double>(num_rows),
                      static_cast<double>(true_count));
}

}  // namespace perfbench
