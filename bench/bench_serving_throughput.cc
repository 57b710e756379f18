// Serving throughput: queries/sec of the batched, thread-parallel
// InferenceEngine versus the sequential one-query-at-a-time path.
//
// Workload model: a serving TRACE, not a one-shot evaluation set. A query
// optimizer enumerating join orders (or a dashboard refreshing panels)
// re-issues many identical cardinality requests, so the trace draws
// `serve-requests` requests uniformly from a pool of `serve-unique`
// distinct query templates. The sequential baseline (threads=1 / batch=1,
// the pre-engine serving path) recomputes every request from scratch;
// engine configurations amortize across the batch with shard-parallel
// sampling, shared workspaces, and exact-result caches.
//
// Every configuration must produce bit-identical estimates for the whole
// trace (asserted at the end), so the grid measures execution efficiency
// only — no accuracy is traded anywhere.
//
// The template pool is prefix-correlated two ways: half shares a
// leading-wildcard run of `--serve-prefix-wildcards` columns, and a
// quarter shares CONSTRAINED leading prefixes (identical equality
// literals on `--serve-shared-prefix` columns, drawn from a few template
// tuples) — the two structures hierarchical plan trees (src/plan) fuse.
// Every engine grid point serves the trace through plan trees and is
// compared, in the same run, against the sequential baseline.
//
// A second phase compares inference KERNELS (tensor/kernel.h) at the
// largest grid point: scalar vs simd, each with a fresh estimator +
// engine, reporting qps, q-error quantiles against executed ground truth,
// and a bit-determinism check across thread counts within each kernel.
// Emits BENCH_serving_throughput.json (shared schema, row_schema v2: grid
// rows carry "plan": "tree").
//
// Knobs (env or flags, see bench_common.h):
//   --kernel K          kernel for the GRID phase: scalar|simd (default
//                       scalar; the kernel phase always runs both)
//   --threads N         restrict the engine thread grid to {N}  (default 2/4/8)
//   --batch N           restrict the batch grid to {N}          (default 1/8/64)
//   --serve-requests N  trace length                            (default 512)
//   --serve-unique N    distinct query templates in the pool    (default 256)
//   --serve-samples N   progressive sample paths per query      (default 512)
//   --serve-prefix-wildcards N  leading wildcard columns forced on half
//                       the pool (default 2; 0 disables shaping)
//   --serve-shared-prefix N  constrained-prefix columns shared by a quarter
//                       of the pool (default 2; 0 disables shaping)
//   --group-width W     plan fork fan-out cap: auto (width-aware, the
//                       default) or a fixed positive integer
//   --smoke             CI preset: tiny model/trace, single grid point;
//                       exits nonzero if any engine run's estimates
//                       diverge from the sequential path, or if a kernel
//                       is non-deterministic across thread counts
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "serve/inference_engine.h"
#include "util/random.h"
#include "util/string_util.h"

namespace naru {
namespace bench {
namespace {

int Run() {
  const BenchEnv env = GetBenchEnv();
  const bool smoke = GetEnvBool("NARU_SMOKE", false);
  const size_t rows =
      smoke ? 6000 : std::min<size_t>(env.dmv_rows, 20000);
  // Clamped to sane ranges so a negative flag value cannot wrap to 2^64.
  const size_t num_requests = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_REQUESTS", smoke ? 128 : 512), 1, 1 << 22));
  const size_t num_unique = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_UNIQUE", smoke ? 64 : 256), 1, 1 << 22));
  const size_t num_samples = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_SAMPLES", smoke ? 256 : 512), 1, 1 << 20));
  const size_t prefix_wildcards = static_cast<size_t>(
      std::clamp<int64_t>(GetEnvInt("NARU_SERVE_PREFIX_WILDCARDS", 2), 0, 64));
  const size_t shared_prefix = static_cast<size_t>(
      std::clamp<int64_t>(GetEnvInt("NARU_SERVE_SHARED_PREFIX", 3), 0, 64));
  // --group-width auto|N: the plan fork fan-out cap (0 = width-aware auto).
  const std::string width_str = GetEnvString("NARU_GROUP_WIDTH", "auto");
  const size_t group_width =
      width_str == "auto" || width_str == "0"
          ? 0
          : static_cast<size_t>(std::clamp<int64_t>(
                GetEnvInt("NARU_GROUP_WIDTH", 0), 1, 4096));
  PrintBanner(
      "Serving throughput: planned engine vs sequential",
      StrFormat("rows=%zu requests=%zu unique=%zu samples=%zu "
                "prefix-wildcards=%zu shared-prefix=%zu group-width=%s "
                "kernel=%s (%s)%s",
                rows, num_requests, num_unique, num_samples, prefix_wildcards,
                shared_prefix, width_str.c_str(), KernelKindName(env.kernel),
                SimdDispatchString().c_str(), smoke ? " (smoke)" : ""));

  Table table = MakeDmvLike(rows, env.seed);
  auto model = TrainModel(table, DmvModelConfig(env.seed + 5),
                          std::min<size_t>(env.epochs, smoke ? 2 : 3),
                          "Naru(serving)");

  // Template pool (no ground truth needed for throughput): mixed filter
  // widths, including single-filter queries — when the filter lands on the
  // first model column those take the exact leading-only shortcut and
  // never sample. (The marginal-mass cache itself only gets hits across
  // differently-configured estimators sharing a model; with one estimator
  // the full-query memo always answers first, so the marginal column
  // below prints 0.) Half the pool shares a leading-wildcard run of
  // `prefix_wildcards` columns — the batch shape the plan layer shares.
  WorkloadConfig wcfg;
  wcfg.num_queries = num_unique;
  wcfg.min_filters = 1;
  wcfg.max_filters = 8;
  wcfg.leading_wildcards = prefix_wildcards;
  wcfg.leading_wildcard_fraction = prefix_wildcards > 0 ? 0.5 : 0.0;
  wcfg.shared_prefix_columns = shared_prefix;
  // Constrained prefixes have leading-wildcard run 0, so only the trie's
  // constrained-prefix sharing fuses them. Two template tuples keep each
  // batch's literal groups wide enough to fork-share.
  wcfg.shared_prefix_fraction = shared_prefix > 0 ? 0.6 : 0.0;
  wcfg.shared_prefix_templates = 2;
  wcfg.seed = env.seed + 17;
  const std::vector<Query> pool = GenerateWorkload(table, wcfg);
  if (prefix_wildcards > 0) {
    size_t shaped = 0;
    for (const Query& q : pool) {
      shaped += q.LeadingWildcardRun() >= prefix_wildcards ? 1 : 0;
    }
    std::printf("# pool: %zu of %zu templates share a >=%zu-column "
                "leading-wildcard run\n",
                shaped, pool.size(), prefix_wildcards);
  }
  if (shared_prefix > 0) {
    // Constrained-prefix shaping is visible as repeated leading literals:
    // count templates whose first `shared_prefix` columns are all equality
    // constrained (wildcard-free leading run of length 0 + point regions).
    size_t constrained = 0;
    for (const Query& q : pool) {
      bool all = true;
      for (size_t c = 0; c < shared_prefix && all; ++c) {
        all = q.wildcard_mask()[c] == 0;
      }
      constrained += all && q.LeadingWildcardRun() == 0 ? 1 : 0;
    }
    std::printf("# pool: %zu of %zu templates constrain their first %zu "
                "columns (shared-literal prefixes)\n",
                constrained, pool.size(), shared_prefix);
  }

  // The trace: uniform draws from the pool. Deterministic in the seed.
  // Template indices are kept so the kernel phase can attach per-request
  // ground truth without executing the trace itself.
  Rng trace_rng(env.seed + 23);
  std::vector<Query> trace;
  std::vector<size_t> trace_tpl;
  trace.reserve(num_requests);
  trace_tpl.reserve(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    trace_tpl.push_back(trace_rng.UniformInt(pool.size()));
    trace.push_back(pool[trace_tpl.back()]);
  }

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = num_samples;
  ncfg.enumeration_threshold = 0;  // pure sampling path: clean scaling story
  ncfg.kernel = env.kernel;        // grid phase runs on the --kernel choice
  NaruEstimator est(model.get(), ncfg, model->SizeBytes());

  std::vector<size_t> thread_grid = smoke ? std::vector<size_t>{2}
                                          : std::vector<size_t>{2, 4, 8};
  std::vector<size_t> batch_grid = smoke ? std::vector<size_t>{64}
                                         : std::vector<size_t>{1, 8, 64};
  if (env.threads > 0) thread_grid = {env.threads};
  if (env.batch > 0) batch_grid = {env.batch};

  std::printf("\n%8s %6s %6s %10s %10s %9s %9s %6s %6s %5s\n", "threads",
              "batch", "plan", "qps", "speedup", "memo", "sampled", "trees",
              "share", "depth");

  // Baseline: the sequential pre-engine path — one thread, one query at a
  // time, no cross-query sharing of any kind.
  std::vector<double> reference(trace.size());
  double baseline_qps;
  {
    ScopedSerialRegion serial;
    Stopwatch sw;
    for (size_t i = 0; i < trace.size(); ++i) {
      reference[i] = est.EstimateSelectivity(trace[i]);
    }
    const double secs = sw.ElapsedSeconds();
    baseline_qps = secs > 0 ? static_cast<double>(trace.size()) / secs : 0.0;
  }
  std::printf(
      "%8d %6d %6s %10.1f %9.2fx %9s %9zu %6s %6s %5s   (sequential)\n", 1, 1,
      "-", baseline_qps, 1.0, "-", trace.size(), "-", "-", "-");

  BenchJsonWriter json("serving_throughput");
  json.SetConfig("rows", rows);
  json.SetConfig("requests", num_requests);
  json.SetConfig("unique", num_unique);
  json.SetConfig("samples", num_samples);
  json.SetConfig("grid_kernel", KernelKindName(env.kernel));
  json.SetConfig("smoke", smoke);
  json.SetConfig("row_schema", "v2");
  json.SetConfig("group_width", width_str);

  // Runs the whole trace through a fresh engine; returns qps, fills
  // per-request estimates. Every result must come back OK — nothing here
  // carries a deadline.
  auto run_trace = [&](NaruEstimator* e, size_t threads, size_t batch,
                       std::vector<double>* results,
                       EngineStats* stats_out) -> double {
    InferenceEngineConfig ecfg;
    ecfg.num_threads = threads;
    ecfg.group_width = group_width;
    InferenceEngine engine(ecfg);  // fresh engine: caches start cold
    results->assign(trace.size(), 0.0);
    std::vector<EstimateRequest> chunk;
    std::vector<EstimateResult> chunk_out;
    bool all_ok = true;
    Stopwatch sw;
    for (size_t lo = 0; lo < trace.size(); lo += batch) {
      const size_t hi = std::min(trace.size(), lo + batch);
      chunk.clear();
      for (size_t i = lo; i < hi; ++i) chunk.emplace_back(trace[i]);
      engine.EstimateBatch(e, chunk, &chunk_out);
      for (size_t i = lo; i < hi; ++i) {
        if (!chunk_out[i - lo].ok()) all_ok = false;
        (*results)[i] = chunk_out[i - lo].estimate;
      }
    }
    const double secs = sw.ElapsedSeconds();
    if (stats_out != nullptr) *stats_out = engine.stats();
    return all_ok && secs > 0 ? static_cast<double>(trace.size()) / secs
                              : 0.0;
  };

  double headline_tree = 0;  // largest threads x largest batch
  bool all_identical = true;

  for (size_t threads : thread_grid) {
    for (size_t batch : batch_grid) {
      // Typed serving surface: default-option requests are required to be
      // bit-identical to the sequential path. Best-of-3: each rep runs a
      // fresh (cold) engine, so the max measures the engine, not the
      // scheduler's worst interruption.
      std::vector<double> results;
      EngineStats stats;
      double qps = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        qps = std::max(qps, run_trace(&est, threads, batch, &results, &stats));
        if (results != reference) all_identical = false;
      }
      if (threads == thread_grid.back() && batch == batch_grid.back()) {
        headline_tree = qps;
      }

      std::printf("%8zu %6zu %6s %10.1f %9.2fx %9zu %9zu %6zu %6.3f %5zu\n",
                  threads, batch, "tree", qps,
                  baseline_qps > 0 ? qps / baseline_qps : 0.0,
                  stats.memo_hits, stats.sampled, stats.plan_trees,
                  stats.prefix_share_ratio(), stats.plan_max_depth);
      json.AddRow({{"phase", "grid"},
                   {"threads", threads},
                   {"batch", batch},
                   {"plan", "tree"},
                   {"qps", qps},
                   {"speedup_vs_sequential",
                    baseline_qps > 0 ? qps / baseline_qps : 0.0}});
    }
  }

  std::printf("\nestimates bit-identical across all configurations: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  if (baseline_qps > 0 && headline_tree > 0) {
    std::printf("headline: tree vs sequential at threads=%zu/batch=%zu = "
                "%.2fx\n",
                thread_grid.back(), batch_grid.back(),
                headline_tree / baseline_qps);
    json.SetConfig("headline_tree_vs_sequential",
                   headline_tree / baseline_qps);
  }

  // --- Kernel comparison at the largest grid point ---------------------
  //
  // One estimator per kernel, used strictly one at a time (the kernel is
  // model-wide state; see NaruEstimatorConfig::kernel). Ground truth is
  // executed once per template, so accuracy is a real q-error, not a
  // fp32-vs-fp32 diff. Within each kernel the estimates must be
  // bit-identical across thread counts; across kernels only the q-error
  // distribution is compared.
  const size_t kthreads = thread_grid.back();
  const size_t kbatch = batch_grid.back();
  std::printf("\nkernel comparison (threads=%zu batch=%zu, planned):\n",
              kthreads, kbatch);
  std::printf("%-10s %10s %9s %9s %9s %9s %6s\n", "kernel", "qps", "speedup",
              "qerr-med", "qerr-p95", "qerr-max", "det");
  const std::vector<int64_t> pool_cards = ExecuteCounts(table, pool);

  bool kernels_ok = true;
  double scalar_qps = 0;
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    NaruEstimatorConfig kcfg = ncfg;
    kcfg.kernel = kernel;
    NaruEstimator kest(model.get(), kcfg, model->SizeBytes());

    std::vector<double> results, results_alt;
    const double qps =
        run_trace(&kest, kthreads, kbatch, &results, nullptr);
    // Determinism contract: a different thread count must not change a
    // single bit of any estimate under the same kernel.
    const size_t alt_threads = kthreads > 2 ? 2 : kthreads + 1;
    run_trace(&kest, alt_threads, kbatch, &results_alt, nullptr);
    const bool deterministic = results == results_alt;
    if (!deterministic) kernels_ok = false;

    QuantileSketch qerr;
    for (size_t i = 0; i < trace.size(); ++i) {
      qerr.Add(QError(results[i] * static_cast<double>(rows),
                      static_cast<double>(pool_cards[trace_tpl[i]])));
    }
    const ErrorQuantiles eq = ComputeErrorQuantiles(qerr);
    if (kernel == KernelKind::kScalar) scalar_qps = qps;
    const double speedup = scalar_qps > 0 ? qps / scalar_qps : 0.0;
    std::printf("%-10s %10.1f %8.2fx %9.3f %9.3f %9.3f %6s\n",
                KernelKindName(kernel), qps, speedup, eq.median, eq.p95,
                eq.max, deterministic ? "yes" : "NO");
    json.AddRow({{"phase", "kernel"},
                 {"kernel", KernelKindName(kernel)},
                 {"threads", kthreads},
                 {"batch", kbatch},
                 {"qps", qps},
                 {"speedup_vs_scalar_kernel", speedup},
                 {"qerr_median", eq.median},
                 {"qerr_p95", eq.p95},
                 {"qerr_max", eq.max},
                 {"deterministic_across_threads", deterministic}});
  }
  json.Write();
  if (!kernels_ok) {
    std::printf("FAIL: kernel estimates not bit-identical across threads\n");
  }
  return all_identical && kernels_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace naru

int main(int argc, char** argv) {
  naru::bench::InitBench(argc, argv);
  return naru::bench::Run();
}
