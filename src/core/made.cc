#include "core/made.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "nn/loss.h"
#include "nn/serialize.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace naru {

Matrix MadeModel::BuildMask(const std::vector<int>& in_deg,
                            const std::vector<int>& out_deg, bool strict) {
  Matrix mask(in_deg.size(), out_deg.size());
  for (size_t i = 0; i < in_deg.size(); ++i) {
    float* row = mask.Row(i);
    for (size_t j = 0; j < out_deg.size(); ++j) {
      row[j] = MaskAllows(in_deg[i], out_deg[j], strict) ? 1.0f : 0.0f;
    }
  }
  return mask;
}

MadeModel::MadeModel(std::vector<size_t> domains, Config config)
    : domains_(std::move(domains)),
      config_(std::move(config)),
      rng_(config_.seed),
      encoder_(domains_, config_.encoder, &rng_) {
  const size_t n = domains_.size();
  NARU_CHECK(n >= 1);

  // Input degrees: every input dimension carries its column index.
  input_degrees_.reserve(encoder_.total_width());
  for (size_t c = 0; c < n; ++c) {
    for (size_t k = 0; k < encoder_.width(c); ++k) {
      input_degrees_.push_back(static_cast<int>(c));
    }
  }

  // Hidden degrees cycle over {0 .. n-2}: degree d = "sees columns <= d".
  const int max_deg = n >= 2 ? static_cast<int>(n) - 1 : 1;
  std::vector<int> prev_deg = input_degrees_;
  for (size_t l = 0; l < config_.hidden_sizes.size(); ++l) {
    const size_t width = config_.hidden_sizes[l];
    std::vector<int> deg(width);
    for (size_t k = 0; k < width; ++k) {
      deg[k] = static_cast<int>(k % static_cast<size_t>(max_deg));
    }
    // input->hidden needs "hidden_deg >= input_col"; hidden->hidden needs
    // "out_deg >= in_deg". Both are the non-strict comparison, but for the
    // input layer the degree means "is column c", which is compatible.
    Matrix mask = BuildMask(prev_deg, deg, /*strict=*/false);
    hidden_.emplace_back(StrFormat("made.h%zu", l), prev_deg.size(), width,
                         std::move(mask), &rng_);
    layer_degrees_.push_back(deg);
    prev_deg = std::move(deg);
  }

  // Output heads: block i may only read units with degree < i, hence the
  // strict mask. Column 0's head sees nothing (bias-only marginal start);
  // that is intended: P(X_0) is learned through the bias + softmax.
  heads_.resize(n);
  for (size_t c = 0; c < n; ++c) {
    const bool reuse = config_.embedding_reuse &&
                       encoder_.encoding(c) == ColEncoding::kEmbedding;
    const size_t out_width =
        reuse ? config_.encoder.embed_dim : domains_[c];
    std::vector<int> out_deg(out_width, static_cast<int>(c));
    Matrix mask = BuildMask(prev_deg, out_deg, /*strict=*/true);
    heads_[c].reuse = reuse;
    heads_[c].fc = std::make_unique<MaskedLinear>(
        StrFormat("made.out%zu", c), prev_deg.size(), out_width,
        std::move(mask), &rng_);
  }
  eval_.acts.resize(hidden_.size());

  // With a mostly-one-hot input row the first layer's zero-skip fast path
  // pays (one nonzero per one-hot column); embedding-dominated inputs are
  // dense and run branch-free.
  input_hint_ = encoder_.OneHotWidthFraction() > 0.5 ? InputHint::kOneHot
                                                     : InputHint::kDense;
}

bool MadeModel::HasSkip(size_t layer) const {
  return config_.residual && layer > 0 &&
         hidden_[layer].in_dim() == hidden_[layer].out_dim();
}

void MadeModel::ForwardTrunk(const IntMatrix& codes, size_t upto,
                             EvalContext* ctx, KernelKind kernel) const {
  if (ctx->acts.size() != hidden_.size()) ctx->acts.resize(hidden_.size());
  encoder_.EncodeBatchPrefix(codes, upto, &ctx->x);
  const Matrix* cur = &ctx->x;
  for (size_t l = 0; l < hidden_.size(); ++l) {
    // Only the encoded input is one-hot sparse; hidden activations are
    // dense post-ReLU.
    const InputHint hint = l == 0 ? input_hint_ : InputHint::kDense;
    hidden_[l].Forward(*cur, &ctx->acts[l], kernel, hint);
    if (HasSkip(l)) Axpy(*cur, 1.0f, &ctx->acts[l]);
    ReluForward(ctx->acts[l], &ctx->acts[l]);
    cur = &ctx->acts[l];
  }
}

void MadeModel::HeadForward(size_t col, EvalContext* ctx, Matrix* block,
                            KernelKind kernel,
                            const DegreePanel* packed) const {
  const Head& head = heads_[col];
  // Linear (no-hidden) MADE heads read the one-hot input directly.
  const InputHint hint = hidden_.empty() ? input_hint_ : InputHint::kDense;
  // Embedding-reuse heads emit h dims into head_tmp first.
  Matrix* out = head.reuse ? &ctx->head_tmp : block;
  if (packed != nullptr) {
    GemmNN(final_hidden(*ctx), packed->weight, out, /*accumulate=*/false,
           kernel, hint, &packed->reads);
    AddBiasRows(packed->bias, out);
  } else {
    head.fc->Forward(final_hidden(*ctx), out, kernel, hint);
  }
  if (!head.reuse) return;
  const Embedding* emb = encoder_.embedding(col);
  NARU_CHECK(emb != nullptr);
  GemmNT(ctx->head_tmp, emb->table().value, block, /*accumulate=*/false,
         kernel);  // (B x D)
}

void MadeModel::HeadBackward(size_t col, const Matrix& dblock,
                             Matrix* dfinal) {
  Head& head = heads_[col];
  if (!head.reuse) {
    head.fc->Backward(final_hidden(eval_), dblock, dfinal,
                      /*accumulate_dx=*/true);
    return;
  }
  Embedding* emb = encoder_.embedding(col);
  // logits = tmp · E^T  =>  dtmp = dblock · E;  dE += dblock^T · tmp.
  GemmNN(dblock, emb->table().value, &dtmp_);
  GemmTN(dblock, eval_.head_tmp, &emb->table().grad, /*accumulate=*/true);
  head.fc->Backward(final_hidden(eval_), dtmp_, dfinal,
                    /*accumulate_dx=*/true);
}

void MadeModel::ConditionalDist(const IntMatrix& samples, size_t col,
                                Matrix* probs) {
  ConditionalDistWith(&eval_, samples, col, probs);
}

void MadeModel::ConditionalDistWith(EvalContext* ctx, const IntMatrix& samples,
                                    size_t col, Matrix* probs) const {
  NARU_CHECK(col < num_columns());
  ForwardTrunk(samples, col, ctx, inference_kernel_);
  HeadForward(col, ctx, &ctx->block, inference_kernel_);
  SoftmaxRows(ctx->block, probs, inference_kernel_);
}

void MadeModel::InvalidatePanels() {
  MutexLock lock(&panels_mu_);
  panels_ = nullptr;
}

MadeModel::DegreePanel MadeModel::PackPanel(const MaskedLinear& layer,
                                            std::vector<size_t> reads,
                                            std::vector<size_t> units) {
  const Matrix& w = layer.weight().value;
  const Matrix& b = layer.bias().value;
  DegreePanel p;
  p.weight = Matrix(reads.size(), units.size());
  p.bias = Matrix(1, units.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < units.size(); ++j) {
      p.weight.At(i, j) = w.At(reads[i], units[j]);
    }
  }
  for (size_t j = 0; j < units.size(); ++j) p.bias.At(0, j) = b.At(0, units[j]);
  p.reads = std::move(reads);
  p.units = std::move(units);
  return p;
}

std::shared_ptr<const MadeModel::SessionPanels> MadeModel::CurrentPanels() {
  MutexLock lock(&panels_mu_);
  if (panels_ != nullptr) return panels_;
  // The input rows a unit of degree `deg` may read, ascending, chosen by
  // the same degree rule as its mask (never by testing weight values).
  auto readable = [](const std::vector<int>& in_deg, int deg, bool strict) {
    std::vector<size_t> rows;
    for (size_t i = 0; i < in_deg.size(); ++i) {
      if (MaskAllows(in_deg[i], deg, strict)) rows.push_back(i);
    }
    return rows;
  };
  const size_t n = num_columns();
  const size_t degrees = n >= 2 ? n - 1 : 1;
  auto panels = std::make_shared<SessionPanels>();
  panels->trunk.resize(hidden_.size());
  for (size_t l = 0; l < hidden_.size(); ++l) {
    const std::vector<int>& in_deg =
        l == 0 ? input_degrees_ : layer_degrees_[l - 1];
    for (size_t d = 0; d < degrees; ++d) {
      const int deg = static_cast<int>(d);
      std::vector<size_t> units;
      for (size_t k = 0; k < layer_degrees_[l].size(); ++k) {
        if (layer_degrees_[l][k] == deg) units.push_back(k);
      }
      panels->trunk[l].push_back(PackPanel(
          hidden_[l], readable(in_deg, deg, /*strict=*/false),
          std::move(units)));
    }
  }
  const std::vector<int>& final_deg =
      hidden_.empty() ? input_degrees_ : layer_degrees_.back();
  for (size_t c = 0; c < n; ++c) {
    std::vector<size_t> outputs(heads_[c].fc->out_dim());
    for (size_t j = 0; j < outputs.size(); ++j) outputs[j] = j;
    panels->heads.push_back(
        PackPanel(*heads_[c].fc,
                  readable(final_deg, static_cast<int>(c), /*strict=*/true),
                  std::move(outputs)));
  }
  panels_ = std::move(panels);
  return panels_;
}

// Incremental sampling cursor (see made.h). ctx_.acts caches, for every
// row of key_, the hidden units of degree < ready_ computed from that row's
// codes for columns < ready_; all other units are 0. Distinct sessions
// share only the read-only weights and panels, so they run concurrently.
class MadeSession : public SamplingSession {
 public:
  MadeSession(const MadeModel* model,
              std::shared_ptr<const MadeModel::SessionPanels> panels)
      : model_(model), panels_(std::move(panels)) {
    ctx_.acts.resize(model_->hidden_.size());
    spare_.resize(model_->hidden_.size());
  }

  void Dist(const IntMatrix& samples, size_t col, Matrix* probs) override {
    const MadeModel& m = *model_;
    NARU_CHECK(col < m.num_columns() && samples.cols() == m.num_columns());
    if (m.hidden_.empty()) {
      // Linear MADE: the heads read the encoded prefix itself.
      m.encoder_.EncodeBatchPrefix(samples, col, &ctx_.x);
    } else {
      // Reuse needs every row's prefix up to ready_ in the cache; stepping
      // back a column (a new walk) or any unmatched row restarts at 0.
      if (col < ready_ || (ready_ > 0 && !GatherCachedRows(samples))) {
        ready_ = 0;
      }
      if (ready_ == 0) ZeroUnits(samples.rows());
      if (ready_ < col) {
        m.encoder_.EncodeBatchPrefix(samples, col, &ctx_.x);
        for (size_t l = 0; l < m.hidden_.size(); ++l) {
          for (size_t d = ready_; d < col; ++d) ComputeUnits(l, d);
        }
      }
      ready_ = col;
      key_ = samples;
    }
    m.HeadForward(col, &ctx_, probs, m.inference_kernel_,
                  &panels_->heads[col]);
    SoftmaxRows(*probs, probs, m.inference_kernel_);
  }

 private:
  static constexpr size_t kNoRow = ~size_t{0};

  size_t width(size_t layer) const {
    return model_->hidden_[layer].out_dim();
  }

  void ZeroUnits(size_t rows) {
    for (size_t l = 0; l < ctx_.acts.size(); ++l) {
      ctx_.acts[l].Resize(rows, width(l));
      ctx_.acts[l].Zero();
    }
  }

  bool SamePrefix(const int32_t* codes, size_t cached) const {
    return cached < key_.rows() &&
           std::memcmp(codes, key_.Row(cached), ready_ * sizeof(int32_t)) ==
               0;
  }

  static uint64_t HashPrefix(const int32_t* codes, size_t len) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < len; ++i) {
      h = (h ^ static_cast<uint32_t>(codes[i])) * 0x100000001b3ULL;
    }
    return h ^ (h >> 32);
  }

  // Open-addressing index over the distinct prefixes of key_: slot holds
  // cached row + 1, 0 = empty. Built on the first lookup of a step.
  void BuildIndex() {
    size_t cap = 16;
    while (cap < 2 * key_.rows()) cap <<= 1;
    index_.assign(cap, 0);
    for (size_t c = 0; c < key_.rows(); ++c) {
      for (size_t s = HashPrefix(key_.Row(c), ready_) & (cap - 1);;
           s = (s + 1) & (cap - 1)) {
        if (index_[s] == 0) {
          index_[s] = c + 1;
          break;
        }
        if (SamePrefix(key_.Row(c), index_[s] - 1)) break;  // duplicate
      }
    }
  }

  size_t Lookup(const int32_t* codes) {
    if (index_.empty()) BuildIndex();
    const size_t mask = index_.size() - 1;
    for (size_t s = HashPrefix(codes, ready_) & mask;; s = (s + 1) & mask) {
      if (index_[s] == 0) return kNoRow;
      if (SamePrefix(codes, index_[s] - 1)) return index_[s] - 1;
    }
  }

  // Reorders the cache to the rows of `samples`, matching each row to a
  // cached row with the same prefix: the same position, else the previous
  // row's match + 1 (a retired or forked block), else an index lookup.
  // False when some row has no cached twin.
  bool GatherCachedRows(const IntMatrix& samples) {
    const size_t rows = samples.rows();
    match_.resize(rows);
    index_.clear();
    bool identity = rows <= key_.rows();
    size_t next = 0;
    for (size_t r = 0; r < rows; ++r) {
      const int32_t* codes = samples.Row(r);
      size_t c = r;
      if (!SamePrefix(codes, c)) {
        c = next;
        if (!SamePrefix(codes, c)) c = Lookup(codes);
        if (c == kNoRow) return false;
      }
      match_[r] = c;
      next = c + 1;
      identity = identity && c == r;
    }
    for (size_t l = 0; l < ctx_.acts.size(); ++l) {
      if (identity) {
        ctx_.acts[l].Resize(rows, width(l));  // keeps the leading rows
        continue;
      }
      Matrix& out = spare_[l];
      const Matrix& in = ctx_.acts[l];
      out.Resize(rows, width(l));
      for (size_t r = 0; r < rows; ++r) {
        std::memcpy(out.Row(r), in.Row(match_[r]),
                    in.stride() * sizeof(float));
      }
      std::swap(ctx_.acts[l], spare_[l]);
    }
    return true;
  }

  // Computes layer `layer`'s degree-`degree` units for every row: the same
  // GEMM, bias, residual and ReLU arithmetic ForwardTrunk does for them,
  // restricted to the panel's columns and the input rows they may read,
  // with bias, skip and ReLU fused into the scatter into place.
  void ComputeUnits(size_t layer, size_t degree) {
    const MadeModel& m = *model_;
    const MadeModel::DegreePanel& panel = panels_->trunk[layer][degree];
    if (panel.units.empty()) return;
    const Matrix& in = layer == 0 ? ctx_.x : ctx_.acts[layer - 1];
    const InputHint hint = layer == 0 ? m.input_hint_ : InputHint::kDense;
    GemmNN(in, panel.weight, &units_, /*accumulate=*/false,
           m.inference_kernel_, hint, &panel.reads);
    const bool skip = m.HasSkip(layer);
    const size_t count = panel.units.size();
    const size_t* pos = panel.units.data();
    const float* bias = panel.bias.Row(0);
    Matrix& out = ctx_.acts[layer];
    for (size_t r = 0; r < in.rows(); ++r) {
      const float* z = units_.Row(r);
      const float* skip_row = in.Row(r);
      float* h = out.Row(r);
      for (size_t j = 0; j < count; ++j) {
        float v = z[j] + bias[j];
        if (skip) v += 1.0f * skip_row[pos[j]];
        h[pos[j]] = v > 0.0f ? v : 0.0f;
      }
    }
  }

  const MadeModel* model_;
  std::shared_ptr<const MadeModel::SessionPanels> panels_;
  MadeModel::EvalContext ctx_;
  IntMatrix key_;      // codes the cached rows were computed from
  size_t ready_ = 0;   // units of degree < ready_ are final
  std::vector<Matrix> spare_;  // gather target, swapped with ctx_.acts
  Matrix units_;               // one panel's pre-activation output
  std::vector<size_t> match_;
  std::vector<size_t> index_;
};

std::unique_ptr<SamplingSession> MadeModel::StartSession(size_t batch) {
  (void)batch;  // sessions size themselves on first Dist
  return std::make_unique<MadeSession>(this, CurrentPanels());
}

void MadeModel::LogProbRows(const IntMatrix& tuples,
                            std::vector<double>* out_nats) {
  const size_t batch = tuples.rows();
  out_nats->assign(batch, 0.0);
  ForwardTrunk(tuples, num_columns(), &eval_, inference_kernel_);
  for (size_t c = 0; c < num_columns(); ++c) {
    HeadForward(c, &eval_, &eval_.block, inference_kernel_);
    const size_t d = domains_[c];
    for (size_t r = 0; r < batch; ++r) {
      const float* row = eval_.block.Row(r);
      const double log_z = LogSumExpSlice(row, 0, d, inference_kernel_);
      const int32_t target = tuples.At(r, c);
      (*out_nats)[r] += static_cast<double>(row[target]) - log_z;
    }
  }
}

double MadeModel::ForwardBackward(const IntMatrix& codes) {
  const size_t batch = codes.rows();
  NARU_CHECK(batch > 0);
  // The optimizer step that follows changes the weights.
  InvalidatePanels();
  // Training is pinned to the scalar reference kernel: gradients must match
  // the arithmetic the tests and the determinism contract were built on.
  ForwardTrunk(codes, num_columns(), &eval_, KernelKind::kScalar);

  const float grad_scale = 1.0f / static_cast<float>(batch);
  Matrix dfinal(final_hidden(eval_).rows(), final_hidden(eval_).cols());
  targets_.resize(batch);

  double total_nll = 0;
  for (size_t c = 0; c < num_columns(); ++c) {
    HeadForward(c, &eval_, &eval_.block, KernelKind::kScalar);
    for (size_t r = 0; r < batch; ++r) targets_[r] = codes.At(r, c);
    dblock_.Resize(eval_.block.rows(), eval_.block.cols());
    dblock_.Zero();
    total_nll += SoftmaxCrossEntropySlice(eval_.block, 0, domains_[c],
                                          targets_.data(), grad_scale,
                                          &dblock_);
    HeadBackward(c, dblock_, &dfinal);
  }

  // Backprop through the hidden stack.
  Matrix grad = std::move(dfinal);
  Matrix grad_prev;
  for (size_t l = hidden_.size(); l-- > 0;) {
    // acts[l] is post-ReLU; its positivity gates the ReLU backward.
    ReluBackward(eval_.acts[l], grad, &grad);
    const Matrix& input = (l == 0) ? eval_.x : eval_.acts[l - 1];
    hidden_[l].Backward(input, grad, &grad_prev);
    // ResMADE identity path: z = W h + b + h, so dh gains the gated
    // upstream gradient in addition to the masked-linear term.
    if (HasSkip(l)) Axpy(grad, 1.0f, &grad_prev);
    grad = std::move(grad_prev);
    grad_prev = Matrix();
  }
  // A linear MADE's heads read x directly, so `grad` is then dfinal.
  encoder_.Backward(codes, grad);
  return total_nll;
}

std::vector<Parameter*> MadeModel::Parameters() {
  InvalidatePanels();
  std::vector<Parameter*> params;
  encoder_.CollectParameters(&params);
  for (auto& h : hidden_) h.CollectParameters(&params);
  for (auto& head : heads_) head.fc->CollectParameters(&params);
  return params;
}

size_t MadeModel::SizeBytes() { return ParameterBytes(Parameters()); }

Status MadeModel::Save(const std::string& path) {
  return SaveParameters(path, Parameters());
}

Status MadeModel::Load(const std::string& path) {
  NARU_RETURN_NOT_OK(LoadParameters(path, Parameters()));
  for (auto& h : hidden_) h.ProjectWeights();
  for (auto& head : heads_) head.fc->ProjectWeights();
  return Status::OK();
}

}  // namespace naru
