// Reporting rules shared by every perfbench metric.
//
// Timings are reported as a median plus the highest percentile of a fixed
// ladder that still has at least kTailMinBeyond samples beyond it, with the
// sample count, so a tail is never read off a handful of points. Requests
// are counted against the number attempted: a transport failure, a non-OK
// status and a shed all count as failed. Q-errors are naru's own QError
// (src/query/metrics.h) applied to cardinalities derived from selectivities.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace perfbench {

/// Samples a tail percentile must leave beyond it.
inline constexpr size_t kTailMinBeyond = 10;

/// Highest percentile in {50, 90, 99, 99.9, 99.99} (as a fraction) with at
/// least kTailMinBeyond of `count` samples beyond it, i.e.
/// count * (1 - p) >= kTailMinBeyond. Falls back to the median when even
/// that is unsupported.
double TailPercentile(size_t count);

/// Median and rule-chosen tail of one set of samples.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 0.5;  ///< fraction, e.g. 0.99
  double tail = 0.0;
  double max = 0.0;
};

/// Summarizes `values` (linear-interpolated quantiles; empty -> zeros).
Summary Summarize(const std::vector<double>& values);

/// Median of the medians of `slices` consecutive, equal-count slices of
/// `values` (taken in time order). A contention burst on the host that
/// slows one or two slices of a phase moves this far less than it moves
/// the pooled median. Fewer values than slices: the pooled median.
double SliceMedian(const std::vector<double>& values, size_t slices);

/// "p99 of 1200" style label for human output.
std::string TailLabel(const Summary& s);

/// Outcome tally of one serving phase.
struct Outcomes {
  size_t attempted = 0;
  size_t ok = 0;
  size_t shed = 0;       ///< RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED results
  size_t errors = 0;     ///< any other non-OK status
  size_t transport = 0;  ///< no response: send/receive failure

  /// Records one response that arrived.
  void AddResponse(const naru::WireEstimateResponse& response);
  /// Records one attempt that produced no response.
  void AddTransportFailure();
  void Merge(const Outcomes& other);

  size_t failed() const { return shed + errors + transport; }
  /// failed / attempted; 0 when nothing was attempted.
  double FailedFrac() const;
};

/// naru::QError of a served selectivity against the executed count on a
/// table of `num_rows` rows (both cardinalities floored at 1 by QError).
double QErrorOfSelectivity(double estimated_selectivity, int64_t true_count,
                           size_t num_rows);

}  // namespace perfbench
