// perfbench: the repository benchmark.
//
//   perfbench --workload <sampled-distinct|hot-repeat> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Trains the tenant model, serves it through the real stack (ModelRegistry
// -> NetServer over loopback TCP -> AsyncEngine -> InferenceEngine -> plan
// -> MADE -> SIMD kernels), drives it from one connection, checks every
// answer, and prints the metrics. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; everything
// human-readable goes to standard error. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 a separate traced run reports the
// per-layer set (see perfbench/README.md). Exits 1 on any correctness,
// conservation or workload-property violation, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/naru_estimator.h"
#include "layers.h"
#include "loadgen.h"
#include "report.h"
#include "stats.h"
#include "tenant.h"
#include "trace.h"
#include "traced_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetups = 3;
/// Time slices of the open-loop phase behind rtt_p50_ms.
constexpr size_t kSlices = 5;
constexpr const char* kTracedTenant = "dmv-traced";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Collected violations; any one fails the run.
struct Verdict {
  std::vector<std::string> violations;
  void Require(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  bool ok() const { return violations.empty(); }
};

/// Eval-counter snapshot of a TracedModel.
struct EvalSnapshot {
  uint64_t calls = 0, rows = 0, busy_ns = 0;
  static EvalSnapshot Of(const TracedModel* m) {
    if (m == nullptr) return {};
    const EvalCounters& c = m->counters();
    return {c.calls.load(std::memory_order_relaxed),
            c.rows.load(std::memory_order_relaxed),
            c.busy_ns.load(std::memory_order_relaxed)};
  }
  EvalSnapshot operator-(const EvalSnapshot& o) const {
    return {calls - o.calls, rows - o.rows, busy_ns - o.busy_ns};
  }
};

/// One tenant's served phases with counter snapshots around them.
struct Served {
  PhaseResult warmup, open, closed;
  naru::EngineStats engine_before, engine_after;
  naru::AsyncEngineStats async_before, async_after;
  EvalSnapshot eval_before, eval_after;  ///< traced tenant only
};

naru::Status Serve(ServingStack* stack, const std::string& tenant,
                   const Workload& w, const TracedModel* traced,
                   Served* out) {
  LoadClient client;
  naru::Status st = client.Connect(stack->server->port());
  if (!st.ok()) return st;
  if (!w.warmup.empty()) {
    out->warmup =
        client.RunClosedLoop(tenant, w.queries, w.warmup, kClosedWindow);
  }
  const std::shared_ptr<naru::Tenant> t = stack->registry->GetTenant(tenant);
  out->engine_before = t->engine->stats();
  out->async_before = t->engine->async_stats();
  out->eval_before = EvalSnapshot::Of(traced);
  out->open = client.RunOpenLoop(tenant, w.queries, w.open);
  out->closed = client.RunClosedLoop(tenant, w.queries, w.closed,
                                     kClosedWindow);
  out->eval_after = EvalSnapshot::Of(traced);
  out->engine_after = t->engine->stats();
  out->async_after = t->engine->async_stats();
  client.Close();
  return naru::Status::OK();
}

/// Sequential reference: NaruEstimator::Estimate of a weights-identical
/// model with the tenant's estimator config, per distinct query.
struct Reference {
  std::vector<double> estimate;
  std::vector<naru::ResultProvenance> provenance;
  std::vector<double> ms;
  std::vector<bool> have;
};

Reference ComputeReference(naru::MadeModel* model, size_t model_bytes,
                           const Workload& w, SpanRecorder* spans) {
  Reference ref;
  const size_t n = w.queries.size();
  ref.estimate.assign(n, 0.0);
  ref.provenance.assign(n, naru::ResultProvenance::kUnknown);
  ref.ms.assign(n, 0.0);
  ref.have.assign(n, false);
  naru::NaruEstimator est(model, TenantServingOptions().estimator,
                          model_bytes);
  for (const auto* plan : {&w.warmup, &w.open, &w.closed}) {
    for (const PlannedRequest& r : *plan) {
      if (ref.have[r.query]) continue;
      const auto start = Clock::now();
      const naru::EstimateResult res = est.Estimate(w.queries[r.query]);
      const auto end = Clock::now();
      ref.estimate[r.query] = res.estimate;
      ref.provenance[r.query] = res.provenance;
      ref.ms[r.query] =
          std::chrono::duration<double, std::milli>(end - start).count();
      ref.have[r.query] = true;
      if (spans != nullptr) {
        spans->Record(res.provenance == naru::ResultProvenance::kEnumerated
                          ? "core.enumerate"
                          : "core.walk",
                      start, end);
      }
    }
  }
  std::fprintf(stderr, "reference: %.3f s of sequential estimates\n",
               std::accumulate(ref.ms.begin(), ref.ms.end(), 0.0) / 1e3);
  return ref;
}

/// Answered OK responses whose estimate is not bit-identical to the
/// reference.
size_t Mismatches(const PhaseResult& phase,
                  const std::vector<PlannedRequest>& plan,
                  const Reference& ref) {
  size_t bad = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    const RequestRecord& rec = phase.records[i];
    if (!rec.ok()) continue;
    if (std::bit_cast<uint64_t>(rec.estimate) !=
        std::bit_cast<uint64_t>(ref.estimate[plan[i].query])) {
      ++bad;
    }
  }
  return bad;
}

/// How the timed requests (open + closed phases) were answered, as shares
/// of the requests the tenant's dispatcher accepted.
struct Shares {
  size_t submitted = 0;
  size_t memo_hits = 0, joined = 0, sampled = 0, enumerated = 0,
         shortcut = 0, shed = 0;
  double Frac(size_t n) const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(n) /
                                static_cast<double>(submitted);
  }
};

Shares TimedShares(const Served& s) {
  const naru::EngineStats& a = s.engine_after;
  const naru::EngineStats& b = s.engine_before;
  Shares sh;
  sh.submitted = s.async_after.submitted - s.async_before.submitted;
  sh.memo_hits = a.results_cache_hit - b.results_cache_hit;
  sh.joined =
      s.async_after.joined_duplicates - s.async_before.joined_duplicates;
  sh.sampled = (a.results_sampled + a.results_planned) -
               (b.results_sampled + b.results_planned);
  sh.enumerated = a.results_enumerated - b.results_enumerated;
  sh.shortcut = a.results_exact - b.results_exact;
  sh.shed = a.results_shed - b.results_shed;
  return sh;
}

void PrintShares(const char* label, const Shares& sh) {
  std::fprintf(stderr,
               "%s: %zu timed requests answered by memo %.4f, joining "
               "%.4f, sampling %.4f, enumeration %.4f, shortcut %.4f, "
               "shed %.4f\n",
               label, sh.submitted, sh.Frac(sh.memo_hits), sh.Frac(sh.joined),
               sh.Frac(sh.sampled), sh.Frac(sh.enumerated),
               sh.Frac(sh.shortcut), sh.Frac(sh.shed));
}

/// The workload-property guard: a workload must keep stressing the layer
/// it exists for.
void CheckWorkloadProperty(const Workload& w, const Shares& sh,
                           Verdict* v) {
  if (w.expects_memo) {
    v->Require(sh.sampled == 0,
               w.name + ": a timed request was sampled after warm-up");
  } else {
    v->Require(sh.memo_hits == 0,
               w.name + ": a timed request was answered from the memo");
  }
}

void CheckConservation(const naru::NetServerStats& ns, Verdict* v) {
  std::fprintf(stderr,
               "server: %zu frames, %zu submitted, %zu responses, %zu "
               "orphaned, %zu protocol errors\n",
               ns.frames_received, ns.requests_submitted, ns.responses_sent,
               ns.orphaned_responses, ns.protocol_errors);
  v->Require(ns.requests_submitted == ns.responses_sent,
             "server: submitted != responses");
  v->Require(ns.orphaned_responses == 0, "server: orphaned responses");
  v->Require(ns.protocol_errors == 0, "server: protocol errors");
}

void CheckAnswers(const char* label, const Workload& w, const Served& s,
                  const Reference& ref, Verdict* v) {
  const size_t bad = Mismatches(s.warmup, w.warmup, ref) +
                     Mismatches(s.open, w.open, ref) +
                     Mismatches(s.closed, w.closed, ref);
  std::fprintf(stderr, "%s: %zu estimates differ from the sequential "
               "reference\n", label, bad);
  v->Require(bad == 0, std::string(label) +
                           ": served estimate not bit-identical to "
                           "NaruEstimator::Estimate");
  Outcomes all = s.warmup.outcomes;
  all.Merge(s.open.outcomes);
  all.Merge(s.closed.outcomes);
  v->Require(all.failed() == 0,
             std::string(label) + ": failed requests (" +
                 std::to_string(all.failed()) + ")");
}

/// Q-error of each distinct query answered OK in any phase, the warm-up
/// included (a query's served estimate is the same every time it is
/// asked, so re-asked queries count once).
std::vector<double> QErrors(const Workload& w, const Served& s,
                            const std::vector<int64_t>& truth,
                            size_t rows) {
  std::vector<bool> seen(w.queries.size(), false);
  std::vector<double> q;
  for (const auto& [phase, plan] :
       {std::pair{&s.warmup, &w.warmup}, std::pair{&s.open, &w.open},
        std::pair{&s.closed, &w.closed}}) {
    for (size_t i = 0; i < plan->size(); ++i) {
      const RequestRecord& rec = phase->records[i];
      const size_t query = (*plan)[i].query;
      if (!rec.ok() || seen[query]) continue;
      seen[query] = true;
      q.push_back(QErrorOfSelectivity(rec.estimate, truth[query], rows));
    }
  }
  return q;
}

/// `fn(record)` for every answered record of `phase`, in due order.
template <typename Fn>
std::vector<double> Collect(const PhaseResult& phase, Fn fn) {
  std::vector<double> out;
  for (const RequestRecord& rec : phase.records) {
    if (rec.answered) out.push_back(fn(rec));
  }
  return out;
}

double RttMs(const RequestRecord& r) { return r.RttMs(); }
double QueueMs(const RequestRecord& r) { return r.queue_ms; }
double ComputeMs(const RequestRecord& r) { return r.compute_ms; }

int Finish(const MetricSet& metrics, const Verdict& verdict,
           const Outcomes& timed) {
  std::fprintf(stderr, "%s", metrics.Human().c_str());
  for (const std::string& why : verdict.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", why.c_str());
  }
  std::printf("%s\n", metrics
                          .ResultJson(verdict.ok(), timed.attempted,
                                      timed.failed())
                          .c_str());
  std::fflush(stdout);
  return verdict.ok() ? 0 : 1;
}

int RunEndToEnd(const Workload& w) {
  Verdict verdict;
  std::vector<double> setup_s, final_nll;
  std::unique_ptr<Setup> setup;
  for (size_t k = 0; k < kSetups; ++k) {
    setup.reset();  // the previous stack shuts down before the next starts
    setup = std::make_unique<Setup>();
    const naru::Status st = RunSetup(w.queries, setup.get());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(setup->seconds);
    final_nll.push_back(setup->train.epoch_nll_bits.back());
    std::fprintf(stderr, "set-up %zu: %.3f s (training %.3f s)\n", k + 1,
                 setup->seconds, setup->train.TotalSeconds());
  }
  for (double nll : final_nll) {
    verdict.Require(std::bit_cast<uint64_t>(nll) ==
                        std::bit_cast<uint64_t>(final_nll.front()),
                    "training is not deterministic across set-ups");
  }

  Served served;
  const naru::Status st =
      Serve(setup->stack.get(), kTenantName, w, nullptr, &served);
  if (!st.ok()) {
    std::fprintf(stderr, "serving failed: %s\n", st.ToString().c_str());
    return 1;
  }
  setup->stack->Shutdown();
  // Before the reference pass: the peak of set-up and serving only.
  const double peak_rss_mib = PeakRssMib();
  CheckConservation(setup->stack->server->stats(), &verdict);

  const Reference ref =
      ComputeReference(setup->spare.get(), setup->model_bytes, w, nullptr);
  CheckAnswers("served", w, served, ref, &verdict);
  const Shares shares = TimedShares(served);
  PrintShares(w.name.c_str(), shares);
  CheckWorkloadProperty(w, shares, &verdict);

  Outcomes timed = served.open.outcomes;
  timed.Merge(served.closed.outcomes);
  // Records are in due order, so consecutive records are time slices.
  const std::vector<double> rtts = Collect(served.open, RttMs);
  const Summary rtt = Summarize(rtts);
  const Summary qerr = Summarize(
      QErrors(w, served, setup->truth, setup->table.num_rows()));

  // Latency is reported by the traced run (see README): too sensitive to
  // host contention to gate here.
  std::fprintf(stderr,
               "open loop at %d req/s: rtt slice median %.4f ms, pooled p50 "
               "%.4f ms, %s %.4f ms\n",
               static_cast<int>(w.open_qps), SliceMedian(rtts, kSlices),
               rtt.p50, TailLabel(rtt).c_str(), rtt.tail);
  MetricSet m;
  m.Add("setup_s", Summarize(setup_s).p50, "s",
        "median of " + std::to_string(kSetups) + " set-ups");
  m.Add("capacity_qps", served.closed.AnsweredPerSecond(), "req/s",
        "closed loop, window " + std::to_string(kClosedWindow));
  m.Add("ok_frac", 1.0 - timed.FailedFrac(), "ratio",
        "failed_frac = " + std::to_string(timed.FailedFrac()));
  m.Add("qerr_p50", qerr.p50, "x",
        "of " + std::to_string(qerr.count) + " distinct queries; " +
            TailLabel(qerr) + " = " + std::to_string(qerr.tail));
  m.Add("train_nll_bits", final_nll.back(), "bits", "final epoch");
  m.Add("peak_rss_mib", peak_rss_mib, "MiB",
        "ru_maxrss after set-ups and serving");
  m.Add("model_kib", static_cast<double>(setup->model_bytes) / 1024.0,
        "KiB", "MadeModel::SizeBytes");
  return Finish(m, verdict, timed);
}

int RunTraced(const Args& args, const Workload& w) {
  Verdict verdict;
  SpanRecorder spans;
  Setup setup;
  naru::Status st = RunSetup(w.queries, &setup);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // The traced tenant: a forwarding wrapper over a weights-identical copy,
  // served beside the untraced tenant by the same server.
  auto wrapper = std::make_unique<TracedModel>(
      CloneModel(setup.table, setup.spare.get()), &spans);
  TracedModel* traced = wrapper.get();
  st = RegisterTenant(setup.stack->registry.get(), kTracedTenant,
                      setup.table, std::move(wrapper), setup.model_bytes);
  if (!st.ok()) {
    std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
    return 1;
  }

  Served plain, tr;
  st = Serve(setup.stack.get(), kTenantName, w, nullptr, &plain);
  if (st.ok()) st = Serve(setup.stack.get(), kTracedTenant, w, traced, &tr);
  if (!st.ok()) {
    std::fprintf(stderr, "serving failed: %s\n", st.ToString().c_str());
    return 1;
  }
  setup.stack->Shutdown();
  const naru::NetServerStats ns = setup.stack->server->stats();
  CheckConservation(ns, &verdict);

  const Reference ref =
      ComputeReference(setup.spare.get(), setup.model_bytes, w, &spans);
  CheckAnswers("untraced", w, plain, ref, &verdict);
  CheckAnswers("traced", w, tr, ref, &verdict);

  // The wrapper must not change the route.
  naru::MadeModel* bare = setup.spare.get();
  verdict.Require(traced->SupportsStackedEvaluation() ==
                          bare->SupportsStackedEvaluation() &&
                      traced->StackedWidthHint() == bare->StackedWidthHint() &&
                      traced->SupportsConcurrentSampling() ==
                          bare->SupportsConcurrentSampling() &&
                      traced->inference_kernel() == bare->inference_kernel(),
                  "traced model does not forward routing hints/kernel");
  std::vector<const naru::Query*> sampled;
  {
    std::vector<bool> seen(w.queries.size(), false);
    for (const auto* plan : {&w.warmup, &w.open, &w.closed}) {
      for (const PlannedRequest& r : *plan) {
        if (seen[r.query]) continue;
        seen[r.query] = true;
        if (ref.provenance[r.query] == naru::ResultProvenance::kSampled) {
          sampled.push_back(&w.queries[r.query]);
        }
      }
    }
  }
  verdict.Require(CompilePlans(traced, sampled, nullptr, nullptr) ==
                      CompilePlans(bare, sampled, nullptr, nullptr),
                  "traced model changes the compiled plans");

  const Shares plain_shares = TimedShares(plain);
  const Shares shares = TimedShares(tr);
  PrintShares("untraced", plain_shares);
  PrintShares("traced", shares);
  CheckWorkloadProperty(w, plain_shares, &verdict);
  CheckWorkloadProperty(w, shares, &verdict);

  // Open loop only: closed-loop requests mostly wait for the window.
  RecordRequestSpans(tr.open, &spans);

  MetricSet m;
  // End-to-end figures too unsteady across seeds to gate (see README),
  // from the untraced tenant.
  const std::vector<double> rtts = Collect(plain.open, RttMs);
  const Summary rtt = Summarize(rtts);
  m.Add("rtt_p50_ms", SliceMedian(rtts, kSlices), "ms",
        "untraced, open loop at " +
            std::to_string(static_cast<int>(w.open_qps)) +
            " req/s, median of " + std::to_string(kSlices) +
            " time-slice medians");
  m.Add("rtt_tail_ms", rtt.tail, "ms",
        "untraced, open loop, " + TailLabel(rtt));
  const Summary qerr = Summarize(
      QErrors(w, plain, setup.truth, setup.table.num_rows()));
  m.Add("qerr_tail", qerr.tail, "x", "untraced, " + TailLabel(qerr));
  m.Add("qerr_max", qerr.max, "x",
        "of " + std::to_string(qerr.count) + " distinct queries");
  // net
  AddNetCodecMetrics(w.queries, {{&tr.open, &w.open}, {&tr.closed, &w.closed}},
                     kTracedTenant, &m, &spans);
  const Summary overhead =
      Summarize(Collect(tr.open, [](const RequestRecord& r) {
        return r.OverheadMs();
      }));
  m.Add("net.overhead_p50_ms", overhead.p50, "ms",
        "RTT - queue_ms - compute_ms, open loop");
  m.Add("net.overhead_tail_ms", overhead.tail, "ms", TailLabel(overhead));
  m.Add("net.frames", static_cast<double>(ns.frames_received), "count",
        "NetServer::stats, whole run");
  m.Add("net.protocol_errors", static_cast<double>(ns.protocol_errors),
        "count", "NetServer::stats");

  // serve: dispatcher
  const Summary queue = Summarize(Collect(tr.open, QueueMs));
  const naru::AsyncEngineStats& a1 = tr.async_after;
  const naru::AsyncEngineStats& a0 = tr.async_before;
  const size_t batches = a1.batches - a0.batches;
  m.Add("serve.queue_p50_ms", queue.p50, "ms", "wire queue_ms, open loop");
  m.Add("serve.queue_tail_ms", queue.tail, "ms", TailLabel(queue));
  m.Add("serve.batch_size_mean",
        batches == 0 ? 0.0
                     : static_cast<double>(a1.submitted - a0.submitted -
                                           (a1.joined_duplicates -
                                            a0.joined_duplicates)) /
                           static_cast<double>(batches),
        "requests", "dispatched per micro-batch, timed phases");
  m.Add("serve.size_flushes",
        static_cast<double>(a1.size_flushes - a0.size_flushes), "count",
        "timed phases");
  m.Add("serve.deadline_flushes",
        static_cast<double>(a1.deadline_flushes - a0.deadline_flushes),
        "count", "max_wait_ms flushes, timed phases");
  m.Add("serve.joined_frac", shares.Frac(shares.joined), "ratio",
        "joined an in-flight twin");
  m.Add("serve.shed",
        static_cast<double>(a1.shed_admission - a0.shed_admission), "count",
        "admission sheds");
  // serve: engine
  const Summary compute = Summarize(Collect(tr.open, ComputeMs));
  m.Add("serve.compute_p50_ms", compute.p50, "ms",
        "wire compute_ms, open loop");
  m.Add("serve.compute_tail_ms", compute.tail, "ms", TailLabel(compute));
  m.Add("serve.memo_hit_frac", shares.Frac(shares.memo_hits), "ratio", "");
  m.Add("serve.sampled_frac", shares.Frac(shares.sampled), "ratio", "");
  m.Add("serve.enumerated_frac", shares.Frac(shares.enumerated), "ratio",
        "");
  m.Add("serve.shortcut_frac", shares.Frac(shares.shortcut), "ratio", "");

  // plan
  AddPlanMetrics(bare, sampled, &m, &spans);

  // core: the wrapper's counters over the timed phases
  const EvalSnapshot timed_eval = tr.eval_after - tr.eval_before;
  const double timed_requests =
      static_cast<double>(tr.open.records.size() + tr.closed.records.size());
  const double rows_per_query = timed_eval.rows / timed_requests;
  m.Add("core.dist_calls_per_query", timed_eval.calls / timed_requests,
        "calls", "model evaluations (Dist + LogProbRows), timed phases");
  m.Add("core.dist_rows_per_call",
        timed_eval.calls == 0
            ? 0.0
            : static_cast<double>(timed_eval.rows) / timed_eval.calls,
        "rows", "");
  m.Add("core.dist_ms_per_query", timed_eval.busy_ns / 1e6 / timed_requests,
        "ms", "summed over engine threads");
  m.Add("core.dist_busy_frac",
        CoveredMs(spans.Snapshot(), "core.dist", tr.closed.start,
                  tr.closed.end) /
            (tr.closed.WallSeconds() * 1e3),
        "ratio", "wall share with a model evaluation running, closed loop");
  std::vector<double> walk_ms, enum_ms;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    if (!ref.have[q]) continue;
    if (ref.provenance[q] == naru::ResultProvenance::kSampled) {
      walk_ms.push_back(ref.ms[q]);
    } else if (ref.provenance[q] == naru::ResultProvenance::kEnumerated) {
      enum_ms.push_back(ref.ms[q]);
    }
  }
  m.Add("core.walk_ms", Summarize(walk_ms).p50, "ms",
        "NaruEstimator::Estimate median, " + std::to_string(walk_ms.size()) +
            " sampled queries");
  m.Add("core.enumerate_ms", Summarize(enum_ms).p50, "ms",
        "median, " + std::to_string(enum_ms.size()) + " enumerated queries");

  // tensor
  AddTensorMetrics(bare, rows_per_query, &m, &spans);

  // train / nn
  m.Add("train_rows_per_s",
        static_cast<double>(setup.table.num_rows() * kEpochs) /
            setup.train.TotalSeconds(),
        "rows/s", "over the set-up's Trainer::RunEpoch calls");
  AddTrainMetrics(setup.table, Summarize(setup.train.epoch_s).p50, &m, &spans);

  // load generator and tracing cost
  const Summary lag = Summarize(
      Collect(tr.open, [](const RequestRecord& r) { return r.LagMs(); }));
  m.Add("loadgen.lag_tail_ms", lag.tail, "ms",
        "send - due, open loop, " + TailLabel(lag));
  const double untraced_cap = plain.closed.AnsweredPerSecond();
  m.Add("trace.overhead_frac",
        untraced_cap > 0.0
            ? 1.0 - tr.closed.AnsweredPerSecond() / untraced_cap
            : 0.0,
        "ratio", "1 - traced / untraced capacity_qps");

  // self time per layer, from the recorded spans
  const std::map<std::string, double> self = spans.SelfTimeMsByLayer();
  for (const char* layer :
       {"loadgen", "net", "core", "plan", "tensor", "train"}) {
    const auto it = self.find(layer);
    m.Add(std::string("self.") + layer + "_ms",
          it == self.end() ? 0.0 : it->second, "ms",
          "total self time of the layer's spans");
  }
  if (!args.spans_path.empty()) {
    const naru::Status ws = spans.WriteJsonl(args.spans_path);
    verdict.Require(ws.ok(), "cannot write spans: " + ws.ToString());
    std::fprintf(stderr, "spans written to %s\n", args.spans_path.c_str());
  }

  Outcomes timed = tr.open.outcomes;
  timed.Merge(tr.closed.outcomes);
  return Finish(m, verdict, timed);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  // Inputs: generated from the seed against the tenant's table before any
  // set-up; the program under test only ever receives these queries.
  const naru::Table input_table = MakeTenantTable();
  Workload w;
  if (!MakeWorkload(args.workload, input_table, args.seed, args.seconds,
                    &w)) {
    std::fprintf(stderr, "unknown workload '%s' (or too few distinct "
                 "queries)\n", args.workload.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "perfbench %s seed=%llu seconds=%g trace=%d: %zu queries, "
               "%zu warm-up + %zu open-loop + %zu closed-loop requests\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0, w.queries.size(),
               w.warmup.size(), w.open.size(), w.closed.size());
  return args.trace ? RunTraced(args, w) : RunEndToEnd(w);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
