// The benchmark's workloads: inputs generated from the run's seed.
//
// sampled-distinct  §6.1.3 queries (GenerateWorkload defaults: 5-11
//                   filters, in-distribution literals), each sent exactly
//                   once: an open-loop Poisson phase at about half of
//                   capacity, then a closed-loop capacity phase. Every
//                   request is a cold sampled walk or an exact
//                   enumeration, so the model, kernels and plan do almost
//                   all the work; compute optimizations show here.
// hot-repeat        64 templates with 1-8 filters re-asked with Zipf skew,
//                   the way an optimizer re-asks estimates while it
//                   enumerates join orders. The templates are the first
//                   64 of 512 distinct queries that are each asked once
//                   before timing (q-error is read over all 512), so each
//                   timed request is answered from the memo or joins an
//                   in-flight twin; framing, the I/O loop, dispatcher
//                   queueing and the memo lookup are the whole cost.
//                   Network and serve optimizations show here;
//                   compute optimizations should read "no change".
//
// Phase sizes derive from --seconds at the nominal rates below, so both
// commits of a comparison run exactly the same requests; a faster commit
// finishes its closed-loop phase sooner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"
#include "loadgen.h"
#include "query/query.h"

namespace perfbench {

/// Closed-loop requests kept in flight: two engine micro-batches
/// (AsyncEngineConfig::max_batch_size = 64), so the next batch is queued
/// while the current one runs.
inline constexpr size_t kClosedWindow = 128;

struct Workload {
  std::string name;
  std::vector<naru::Query> queries;     ///< distinct inputs
  /// Untimed, closed loop. Its answers count toward q-error.
  std::vector<PlannedRequest> warmup;
  std::vector<PlannedRequest> open;     ///< timed, open loop
  std::vector<PlannedRequest> closed;   ///< timed, closed loop
  double open_qps = 0.0;                ///< offered rate of `open`
  /// True when the workload exists to exercise the memo (hot-repeat):
  /// timed requests must not sample. False (sampled-distinct): timed
  /// requests must not hit the memo.
  bool expects_memo = false;
};

/// Builds workload `name` for `seed`, sized for `seconds` of timed load.
/// Queries reference `table` (the tenant's data; literals are drawn from
/// its rows). False when `name` is unknown or the generator cannot supply
/// enough distinct queries.
bool MakeWorkload(const std::string& name, const naru::Table& table,
                  uint64_t seed, double seconds, Workload* out);

}  // namespace perfbench
