#include "loadgen.h"

#include <atomic>
#include <semaphore>
#include <thread>

namespace perfbench {

namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::duration FromMs(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// How long the reader waits without any response before declaring the
/// remaining requests lost.
constexpr double kStallLimitMs = 60000.0;
/// Receive timeout of one blocking read; the reader re-checks the
/// sender's state between reads.
constexpr int kReadSliceMs = 500;

}  // namespace

double RequestRecord::RttMs() const { return Ms(done - due); }
double RequestRecord::LagMs() const { return Ms(sent - due); }
double RequestRecord::OverheadMs() const {
  return RttMs() - queue_ms - compute_ms;
}

naru::WireEstimateResponse RequestRecord::Response() const {
  naru::WireEstimateResponse r;
  r.request_id = id;
  r.status_code = status;
  r.estimate = estimate;
  r.provenance = provenance;
  r.queue_ms = queue_ms;
  r.compute_ms = compute_ms;
  return r;
}

double PhaseResult::WallSeconds() const {
  return std::chrono::duration<double>(end - start).count();
}

double PhaseResult::AnsweredPerSecond() const {
  const double wall = WallSeconds();
  return wall > 0.0 ? static_cast<double>(outcomes.attempted -
                                          outcomes.transport) /
                          wall
                    : 0.0;
}

naru::Status LoadClient::Connect(uint16_t port) {
  naru::Status st = client_.Connect("127.0.0.1", port);
  if (!st.ok()) return st;
  return client_.SetRecvTimeoutMs(kReadSliceMs);
}

PhaseResult LoadClient::RunOpenLoop(const std::string& tenant,
                                    const std::vector<naru::Query>& queries,
                                    const std::vector<PlannedRequest>& plan) {
  return Run(tenant, queries, plan, /*window=*/0);
}

PhaseResult LoadClient::RunClosedLoop(const std::string& tenant,
                                      const std::vector<naru::Query>& queries,
                                      const std::vector<PlannedRequest>& plan,
                                      size_t window) {
  return Run(tenant, queries, plan, window == 0 ? 1 : window);
}

PhaseResult LoadClient::Run(const std::string& tenant,
                            const std::vector<naru::Query>& queries,
                            const std::vector<PlannedRequest>& plan,
                            size_t window) {
  PhaseResult phase;
  const size_t n = plan.size();
  phase.records.resize(n);
  const uint64_t base_id = next_id_;
  next_id_ += n;

  // One wire request per distinct query; only the id changes per send.
  std::vector<naru::WireEstimateRequest> wire(queries.size());
  std::vector<bool> have(queries.size(), false);
  for (size_t i = 0; i < n; ++i) {
    phase.records[i].id = base_id + i;
    const size_t q = plan[i].query;
    if (have[q]) continue;
    have[q] = true;
    wire[q].tenant = tenant;
    wire[q].regions = queries[q].regions();
  }

  const bool open_loop = window == 0;
  // Closed loop: one slot per request allowed in flight.
  std::counting_semaphore<> slots(open_loop ? 0 : static_cast<std::ptrdiff_t>(
                                                      window));
  // Published by the sender with release after the records it covers are
  // written; the reader acquires before trusting the count.
  std::atomic<size_t> sent_count{0};
  std::atomic<bool> sender_done{false};

  phase.start = Clock::now();
  std::thread sender([&] {
    std::string frame;
    for (size_t i = 0; i < n; ++i) {
      RequestRecord& rec = phase.records[i];
      if (open_loop) {
        rec.due = phase.start + FromMs(plan[i].due_ms);
        std::this_thread::sleep_until(rec.due);
      } else {
        slots.acquire();
      }
      rec.send_start = Clock::now();
      if (!open_loop) rec.due = rec.send_start;
      naru::WireEstimateRequest& request = wire[plan[i].query];
      request.request_id = rec.id;
      frame.clear();
      naru::EncodeEstimateRequest(request, &frame);
      if (!client_.SendRaw(frame).ok()) break;
      rec.sent = Clock::now();
      sent_count.store(i + 1, std::memory_order_release);
    }
    sender_done.store(true, std::memory_order_release);
  });

  size_t received = 0;
  auto last_progress = Clock::now();
  while (received < n) {
    naru::Frame frame;
    const naru::Status st = client_.ReadFrame(&frame);
    const auto now = Clock::now();
    if (!st.ok()) {
      const bool done = sender_done.load(std::memory_order_acquire);
      if (done && received >= sent_count.load(std::memory_order_acquire)) {
        break;  // the sender gave up; nothing else is coming
      }
      if (Ms(now - last_progress) > kStallLimitMs) break;
      continue;  // read timeout slice; keep waiting
    }
    if (frame.type != naru::FrameType::kEstimateResponse) continue;
    const uint64_t id = frame.response.request_id;
    if (id < base_id || id >= base_id + n) continue;
    RequestRecord& rec = phase.records[id - base_id];
    if (rec.answered) continue;
    rec.done = now;
    rec.answered = true;
    rec.status = frame.response.status_code;
    rec.provenance = frame.response.provenance;
    rec.estimate = frame.response.estimate;
    rec.queue_ms = frame.response.queue_ms;
    rec.compute_ms = frame.response.compute_ms;
    ++received;
    last_progress = now;
    if (!open_loop) slots.release();
  }
  phase.end = Clock::now();
  if (received < n) {
    // The reader gave up: make every further send fail and free a sender
    // blocked on a slot, so the join below cannot hang.
    client_.FinishWrites();
    if (!open_loop) slots.release(static_cast<std::ptrdiff_t>(n));
  }
  sender.join();

  for (const RequestRecord& rec : phase.records) {
    if (rec.answered) {
      phase.outcomes.AddResponse(rec.Response());
    } else {
      phase.outcomes.AddTransportFailure();
    }
  }
  return phase;
}

void RecordRequestSpans(const PhaseResult& phase, SpanRecorder* spans) {
  for (const RequestRecord& rec : phase.records) {
    if (!rec.answered) continue;
    const uint64_t id = spans->NewId();
    spans->Record(id, "loadgen.request", rec.due, rec.done, 0, rec.id);
    spans->Record("net.send", rec.send_start, rec.sent, id, rec.id);
  }
}

}  // namespace perfbench
