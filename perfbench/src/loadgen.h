// Load generator: one connection, one sender thread, one reader.
//
// Open loop: request i is due at phase start + its scheduled offset (a
// Poisson schedule fixed by the workload seed) and is sent then, whether
// or not earlier requests have been answered; its round-trip time is
// measured from when it was DUE, so a stall in the generator or the
// server is charged to every request it delays, and the sender's lateness
// (sent - due) is reported separately. Closed loop: a fixed window of
// requests is kept in flight; each is timed from its send.
//
// Responses are matched by request id (the server answers in completion
// order).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "query/query.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// One request of a phase: which query, and (open loop) when it is due,
/// in milliseconds after the phase starts.
struct PlannedRequest {
  size_t query = 0;
  double due_ms = 0.0;
};

/// What happened to one request (compact: a phase can hold ~10^6).
struct RequestRecord {
  uint64_t id = 0;  ///< wire request id
  Clock::time_point due;
  Clock::time_point send_start;
  Clock::time_point sent;
  Clock::time_point done;
  bool answered = false;
  naru::StatusCode status = naru::StatusCode::kOk;
  naru::ResultProvenance provenance = naru::ResultProvenance::kUnknown;
  double estimate = 0.0;
  double queue_ms = 0.0;    ///< server-reported
  double compute_ms = 0.0;  ///< server-reported

  bool ok() const { return answered && status == naru::StatusCode::kOk; }
  double RttMs() const;
  double LagMs() const;
  /// RTT minus the server-reported queue and compute time: what the
  /// network, the frame codecs and the I/O loop cost this request.
  double OverheadMs() const;
  /// The response as it crossed the wire (every field the server sets
  /// for an OK estimate; used to re-encode it).
  naru::WireEstimateResponse Response() const;
};

struct PhaseResult {
  std::vector<RequestRecord> records;  ///< parallel to the planned requests
  Clock::time_point start;
  Clock::time_point end;  ///< last response (or failure)
  Outcomes outcomes;

  double WallSeconds() const;
  /// Answered requests per second of phase wall time.
  double AnsweredPerSecond() const;
};

class LoadClient {
 public:
  /// Connects to 127.0.0.1:`port`.
  naru::Status Connect(uint16_t port);

  /// Open loop over `plan` (due_ms nondecreasing).
  PhaseResult RunOpenLoop(const std::string& tenant,
                          const std::vector<naru::Query>& queries,
                          const std::vector<PlannedRequest>& plan);

  /// Closed loop over `plan` (due_ms ignored) with `window` in flight.
  PhaseResult RunClosedLoop(const std::string& tenant,
                            const std::vector<naru::Query>& queries,
                            const std::vector<PlannedRequest>& plan,
                            size_t window);

  void Close() { client_.Close(); }

 private:
  PhaseResult Run(const std::string& tenant,
                  const std::vector<naru::Query>& queries,
                  const std::vector<PlannedRequest>& plan, size_t window);

  naru::NetClient client_;
  uint64_t next_id_ = 1;
};

/// Records each answered request of `phase` as a "loadgen.request" span
/// [due, done] with a "net.send" child [send_start, sent]. The request's
/// self time is everything the client cannot split further without spans
/// inside the server: wire, I/O loop, queueing and compute.
void RecordRequestSpans(const PhaseResult& phase, SpanRecorder* spans);

}  // namespace perfbench
