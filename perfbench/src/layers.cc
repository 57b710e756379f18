#include "layers.h"

#include <algorithm>

#include "bench_common.h"
#include "core/sampler.h"
#include "core/trainer.h"
#include "nn/adam.h"
#include "plan/plan_executor.h"
#include "serve/async_engine.h"
#include "tenant.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Repeats `fn` until at least `min_ms` have elapsed (and at least once);
/// returns milliseconds per call. Each repetition is one span.
template <typename Fn>
double MsPerCall(const char* span, double min_ms, SpanRecorder* spans,
                 Fn&& fn) {
  size_t calls = 0;
  const auto start = Clock::now();
  auto now = start;
  do {
    const auto call_start = Clock::now();
    fn();
    now = Clock::now();
    spans->Record(span, call_start, now);
    ++calls;
  } while (Ms(now - start) < min_ms);
  return Ms(now - start) / static_cast<double>(calls);
}

void FillDeterministic(naru::Matrix* m, uint64_t seed) {
  naru::Rng rng(seed);
  for (size_t r = 0; r < m->rows(); ++r) {
    float* row = m->Row(r);
    for (size_t c = 0; c < m->cols(); ++c) {
      row[c] = static_cast<float>(rng.UniformDouble() - 0.5);
    }
  }
}

/// Rows of the synthetic activation matrices the GEMM rates are measured
/// on: four sampler shards (shard_size 128) stacked, a typical plan-tree
/// frontier.
constexpr size_t kKernelRows = 512;

constexpr double kMinTimedMs = 100.0;

}  // namespace

void AddNetCodecMetrics(const std::vector<naru::Query>& queries,
                        const std::vector<PhaseView>& phases,
                        const std::string& tenant, MetricSet* out,
                        SpanRecorder* spans) {
  // The phases' own frames: each answered request rebuilt from its query,
  // and its response as received.
  std::vector<naru::WireEstimateRequest> requests;
  std::vector<naru::WireEstimateResponse> responses;
  for (const PhaseView& view : phases) {
    for (size_t i = 0; i < view.phase->records.size(); ++i) {
      const RequestRecord& rec = view.phase->records[i];
      if (!rec.answered) continue;
      naru::WireEstimateRequest request;
      request.request_id = rec.id;
      request.tenant = tenant;
      request.regions = queries[(*view.plan)[i].query].regions();
      requests.push_back(std::move(request));
      responses.push_back(rec.Response());
    }
  }
  const size_t n = std::min<size_t>(requests.size(), 4096);
  if (n == 0) {
    out->Add("net.req_bytes", 0.0, "B", "no answered requests");
    out->Add("net.resp_bytes", 0.0, "B", "no answered requests");
    out->Add("net.encode_us", 0.0, "us", "no answered requests");
    out->Add("net.decode_us", 0.0, "us", "no answered requests");
    return;
  }

  std::vector<std::string> req_frames(n), resp_frames(n);
  size_t req_bytes = 0, resp_bytes = 0;
  const double encode_ms =
      MsPerCall("net.encode", kMinTimedMs, spans, [&] {
        for (size_t i = 0; i < n; ++i) {
          req_frames[i].clear();
          resp_frames[i].clear();
          naru::EncodeEstimateRequest(requests[i], &req_frames[i]);
          naru::EncodeEstimateResponse(responses[i], &resp_frames[i]);
        }
      });
  for (size_t i = 0; i < n; ++i) {
    req_bytes += req_frames[i].size();
    resp_bytes += resp_frames[i].size();
  }
  size_t decode_errors = 0;
  const double decode_ms =
      MsPerCall("net.decode", kMinTimedMs, spans, [&] {
        naru::Frame frame;
        for (size_t i = 0; i < n; ++i) {
          const std::string_view req(req_frames[i]);
          const std::string_view resp(resp_frames[i]);
          if (!naru::DecodeFrame(req.substr(naru::kFrameHeaderBytes), &frame)
                   .ok() ||
              !naru::DecodeFrame(resp.substr(naru::kFrameHeaderBytes), &frame)
                   .ok()) {
            ++decode_errors;
          }
        }
      });
  out->Add("net.req_bytes", static_cast<double>(req_bytes) / n, "B",
           "per request frame, exact");
  out->Add("net.resp_bytes", static_cast<double>(resp_bytes) / n, "B",
           "per response frame, exact");
  out->Add("net.encode_us", encode_ms * 1e3 / n, "us",
           "EncodeEstimateRequest + EncodeEstimateResponse per pair");
  out->Add("net.decode_us", decode_ms * 1e3 / n, "us",
           decode_errors == 0 ? "DecodeFrame request + response per pair"
                              : "DECODE ERRORS");
}

PlanCounts CompilePlans(const naru::ConditionalModel* model,
                        const std::vector<const naru::Query*>& sampled,
                        std::vector<naru::SamplingPlan>* plans,
                        SpanRecorder* spans) {
  const naru::TenantOptions opts = TenantServingOptions();
  const size_t batch = opts.engine.max_batch_size;
  const size_t num_shards = naru::SamplerNumShards(
      opts.estimator.num_samples, opts.estimator.shard_size);
  PlanCounts counts;
  for (size_t lo = 0; lo < sampled.size(); lo += batch) {
    const std::vector<const naru::Query*> part(
        sampled.begin() + lo,
        sampled.begin() + std::min(sampled.size(), lo + batch));
    // The engine's width rule (InferenceEngine::EstimatePlanned).
    naru::SamplingPlanOptions popts;
    popts.max_group_width = naru::AutoGroupWidth(
        model->StackedWidthHint(), model->inference_kernel(),
        opts.estimator.shard_size);
    const size_t min_groups = (kEngineThreads + num_shards - 1) / num_shards;
    popts.max_group_width = std::min(
        popts.max_group_width,
        std::max<size_t>(1, (part.size() + min_groups - 1) / min_groups));
    const auto start = Clock::now();
    naru::SamplingPlan plan = naru::CompileSamplingPlan(model, part, popts);
    if (spans != nullptr) spans->Record("plan.compile", start, Clock::now());
    ++counts.batches;
    counts.trees += plan.trees.size();
    counts.walk_cols += plan.WalkColumns();
    counts.shared_cols += plan.SharedColumns();
    if (plans != nullptr) plans->push_back(std::move(plan));
  }
  return counts;
}

void AddPlanMetrics(naru::MadeModel* model,
                    const std::vector<const naru::Query*>& sampled,
                    MetricSet* out, SpanRecorder* spans) {
  std::vector<naru::SamplingPlan> plans;
  const auto compile_start = Clock::now();
  const PlanCounts counts = CompilePlans(model, sampled, &plans, spans);
  const double compile_ms = Ms(Clock::now() - compile_start);

  double exec_ms_per_query = 0.0;
  if (!plans.empty()) {
    const naru::TenantOptions opts = TenantServingOptions();
    naru::ThreadPool pool(kEngineThreads);
    naru::PlanExecutionOptions eopts;
    eopts.num_samples = opts.estimator.num_samples;
    eopts.shard_size = opts.estimator.shard_size;
    eopts.seed = opts.estimator.sampler_seed;
    eopts.thread_pool = &pool;
    std::vector<double> estimates;
    const auto start = Clock::now();
    naru::ExecuteSamplingPlan(model, plans.front(), eopts, &estimates);
    const auto end = Clock::now();
    spans->Record("plan.execute", start, end);
    exec_ms_per_query = Ms(end - start) / plans.front().queries.size();
  }
  const double walk = static_cast<double>(counts.walk_cols);
  out->Add("plan.compile_us_per_batch",
           counts.batches == 0 ? 0.0 : compile_ms * 1e3 / counts.batches,
           "us", "CompileSamplingPlan, engine-sized batches");
  out->Add("plan.exec_ms_per_query", exec_ms_per_query, "ms",
           "ExecuteSamplingPlan, first batch, engine threads");
  out->Add("plan.share_ratio", walk == 0 ? 0.0 : counts.shared_cols / walk,
           "ratio", "shared / walked columns, exact");
  out->Add("plan.trees", static_cast<double>(counts.trees), "count", "exact");
  out->Add("plan.walk_cols", walk, "count", "exact");
  out->Add("plan.shared_cols", static_cast<double>(counts.shared_cols),
           "count", "exact");
}

void AddTensorMetrics(naru::MadeModel* model, double rows_per_query,
                      MetricSet* out, SpanRecorder* spans) {
  const naru::KernelKind kernel = naru::KernelKind::kSimd;
  const naru::InputEncoder& enc = model->encoder();
  const std::vector<size_t>& hidden = model->config().hidden_sizes;

  // Trunk: the hidden GEMM chain at the model's layer shapes.
  std::vector<naru::Matrix> acts;
  std::vector<naru::Matrix> weights;
  acts.emplace_back(kKernelRows, enc.total_width());
  FillDeterministic(&acts.back(), 1);
  double trunk_flops_per_row = 0.0;
  size_t in = enc.total_width();
  for (size_t l = 0; l < hidden.size(); ++l) {
    weights.emplace_back(in, hidden[l]);
    FillDeterministic(&weights.back(), 10 + l);
    acts.emplace_back(kKernelRows, hidden[l]);
    trunk_flops_per_row += 2.0 * in * hidden[l];
    in = hidden[l];
  }
  const double trunk_ms = MsPerCall("tensor.gemm_nn", kMinTimedMs, spans, [&] {
    for (size_t l = 0; l < weights.size(); ++l) {
      naru::GemmNN(acts[l], weights[l], &acts[l + 1], false, kernel);
    }
  });

  // Heads: the embedding-reuse logits GEMM of the widest reused column
  // (logits = H * E^T), and the softmax over that column's domain.
  const size_t width = hidden.empty() ? enc.total_width() : hidden.back();
  size_t widest = 0, embed = 0;
  double head_flops_per_row = 0.0;
  for (size_t c = 0; c < enc.num_columns(); ++c) {
    const bool reuse = model->config().embedding_reuse &&
                       enc.encoding(c) == naru::ColEncoding::kEmbedding;
    const size_t out_width = reuse ? enc.width(c) : enc.domain(c);
    head_flops_per_row += 2.0 * width * out_width;
    if (reuse) {
      head_flops_per_row += 2.0 * enc.width(c) * enc.domain(c);
      if (enc.domain(c) > widest) {
        widest = enc.domain(c);
        embed = enc.width(c);
      }
    }
  }
  head_flops_per_row /= static_cast<double>(enc.num_columns());
  double head_gflops = 0.0;
  double softmax_ns = 0.0;
  if (widest > 0) {
    naru::Matrix h(kKernelRows, embed), table(widest, embed),
        logits(kKernelRows, widest);
    FillDeterministic(&h, 2);
    FillDeterministic(&table, 3);
    const double head_ms = MsPerCall("tensor.gemm_nt", kMinTimedMs, spans,
                                     [&] {
      naru::GemmNT(h, table, &logits, false, kernel);
    });
    head_gflops = 2.0 * kKernelRows * embed * widest / (head_ms * 1e6);
    naru::Matrix probs(kKernelRows, widest);
    const double softmax_ms = MsPerCall("tensor.softmax", kMinTimedMs, spans,
                                        [&] {
      naru::SoftmaxRows(logits, &probs);
    });
    softmax_ns = softmax_ms * 1e6 / kKernelRows;
  }

  out->Add("tensor.trunk_gemm_gflops",
           trunk_flops_per_row * kKernelRows / (trunk_ms * 1e6), "GFLOP/s",
           "GemmNN simd, hidden chain at 512 rows");
  out->Add("tensor.head_gemm_gflops", head_gflops, "GFLOP/s",
           "GemmNT simd, widest embedding-reuse head at 512 rows");
  out->Add("tensor.softmax_ns_per_row", softmax_ns, "ns",
           "SoftmaxRows over the widest domain");
  out->Add("tensor.flops_per_query",
           rows_per_query * (trunk_flops_per_row + head_flops_per_row),
           "FLOP", "computed: evaluated rows x (trunk + mean head) FLOPs");
}

void AddTrainMetrics(const naru::Table& table, double epoch_s,
                     MetricSet* out, SpanRecorder* spans) {
  auto model = std::make_unique<naru::MadeModel>(
      naru::bench::TableDomains(table),
      naru::bench::DmvModelConfig(kModelSeed));
  naru::AdamOptions aopts;
  aopts.lr = 2e-3;
  aopts.clip_global_norm = naru::TrainerConfig{}.clip_global_norm;
  naru::Adam adam(model->Parameters(), aopts);

  const size_t batch_rows = 512;
  const size_t cols = table.num_columns();
  double fwd_bwd_ms = 0.0, adam_ms = 0.0;
  size_t steps = 0;
  naru::IntMatrix batch;
  const auto epoch_start = Clock::now();
  const uint64_t epoch_id = spans->NewId();
  for (size_t lo = 0; lo < table.num_rows(); lo += batch_rows) {
    const size_t chunk = std::min(batch_rows, table.num_rows() - lo);
    batch.Resize(chunk, cols);
    for (size_t i = 0; i < chunk; ++i) table.GetRowCodes(lo + i, batch.Row(i));
    const auto t0 = Clock::now();
    model->ForwardBackward(batch);
    const auto t1 = Clock::now();
    adam.Step();
    const auto t2 = Clock::now();
    spans->Record("train.fwd_bwd", t0, t1, epoch_id);
    spans->Record("train.adam", t1, t2, epoch_id);
    fwd_bwd_ms += Ms(t1 - t0);
    adam_ms += Ms(t2 - t1);
    ++steps;
  }
  spans->Record(epoch_id, "train.epoch", epoch_start, Clock::now());
  out->Add("train.epoch_s", epoch_s, "s", "Trainer::RunEpoch, set-up median");
  out->Add("train.fwd_bwd_ms_per_batch", fwd_bwd_ms / steps, "ms",
           "MadeModel::ForwardBackward, 512 rows");
  out->Add("train.adam_ms_per_step", adam_ms / steps, "ms", "Adam::Step");
}

}  // namespace perfbench
