// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into
// each layer (client send/receive, the forwarding model's Dist calls, the
// direct plan/core/tensor/train measurements); nothing under src/ is
// instrumented. A span carries its name ("<layer>.<what>"), start and end,
// the id of the span that caused it (0 = root) and the request id it
// belongs to (0 = not tied to one request, e.g. a batch-level model
// evaluation on an engine thread). Spans stay in memory until WriteJsonl
// at the end of the run.
//
// Self time of a span is its duration minus the part of its interval that
// its children cover (children may overlap; their union is subtracted).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< string literal: "<layer>.<what>"
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id = 0;
  uint64_t parent = 0;      ///< 0 = root
  uint64_t request_id = 0;  ///< 0 = not tied to one request
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A fresh span id, for spans whose children are recorded before they
  /// end (ids are unique and never 0).
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span under `id` (from NewId). Thread-safe.
  void Record(uint64_t id, const char* name, Clock::time_point start,
              Clock::time_point end, uint64_t parent = 0,
              uint64_t request_id = 0);
  /// Records a finished span under a fresh id and returns the id.
  uint64_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent = 0,
                  uint64_t request_id = 0);

  std::vector<Span> Snapshot() const;

  /// Self time in milliseconds summed per layer (the span-name prefix
  /// before the first '.').
  std::map<std::string, double> SelfTimeMsByLayer() const;

  /// One JSON object per line: name, start_us/end_us (relative to the
  /// earliest span), id, parent, request.
  naru::Status WriteJsonl(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};  ///< relaxed: ids need only be unique
  mutable naru::Mutex mu_;
  std::vector<Span> spans_ NARU_GUARDED_BY(mu_);
};

/// Self time (ms) per span, parallel to `spans`.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Milliseconds of [lo, hi) during which at least one span named `name`
/// was open (the union of their intervals, clipped to the window).
double CoveredMs(const std::vector<Span>& spans, const char* name,
                 Clock::time_point lo, Clock::time_point hi);

}  // namespace perfbench
