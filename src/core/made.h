// MADE: masked autoregressive network over relational tuples (§3.2, §4.3 B).
//
// The model maps an encoded tuple to one output block per column, where
// block i is (after softmax) the conditional distribution
// P̂(X_i | x_1..x_{i-1}). Autoregressiveness is enforced with MADE weight
// masks (Germain et al. 2015): every input dimension carries the index of
// the column it encodes, hidden units carry degrees in {0..n-2} meaning
// "may depend on columns <= degree", and output block i may only read
// hidden units with degree < i. Column order is the table order (§3.1).
//
// Output heads are per-column MaskedLinears. Large-domain columns can use
// the paper's "embedding reuse" (§4.2): the head emits h dims and logits
// are formed against the input embedding table, logits = H · E_i^T, saving
// a |A_i| x F output layer.
//
// Sampling sessions are incremental. A hidden unit of degree d depends only
// on columns <= d, so its value is final once column d is sampled: at step
// `col` a session computes just the degree col-1 units of each layer (one
// GEMM over a packed per-degree weight panel) and reuses every row's cached
// lower-degree units. The cache is keyed by each row's sampled prefix codes
// and every reuse is verified against them, so Dist stays a pure function
// of (samples, col) and is bit-identical to the full recompute
// (ConditionalDistWith): each GEMM kernel reduces an output element on one
// ascending-k chain, and not-yet-computed units (held at 0) meet only
// masked, exactly-zero weights.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/conditional_model.h"
#include "core/encoding.h"
#include "core/trainable_model.h"
#include "nn/masked_linear.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace naru {

class MadeModel : public ConditionalModel, public TrainableModel {
 public:
  struct Config {
    /// Hidden layer widths; empty = linear (bias/logistic) MADE.
    std::vector<size_t> hidden_sizes = {128, 128, 128, 128};
    EncoderConfig encoder;
    /// Use embedding reuse for columns that are embedding-encoded.
    bool embedding_reuse = true;
    /// ResMADE: pre-activation residual skips between equal-width hidden
    /// layers, h_{l+1} = ReLU(W h_l + b + h_l). Degree vectors of
    /// equal-width layers coincide, so the identity path is mask-safe and
    /// the autoregressive property is preserved. Deeper MADE stacks train
    /// noticeably faster with this on.
    bool residual = false;
    uint64_t seed = 1;
  };

  /// `domains[i]` is |A_i| for column i in model (= table) order.
  MadeModel(std::vector<size_t> domains, Config config);

  /// Scratch buffers for one inference forward pass. The model's weights
  /// are read-only at inference, so callers holding distinct contexts may
  /// evaluate concurrently; every sampling session owns one (which is what
  /// makes SupportsConcurrentSampling() true). Training keeps using the
  /// model's own member context.
  struct EvalContext {
    Matrix x;
    std::vector<Matrix> acts;
    Matrix head_tmp;  // reuse heads' h-dim output
    Matrix block;     // head logits (sessions write into probs instead)
  };

  // --- ConditionalModel ---
  size_t num_columns() const override { return domains_.size(); }
  size_t DomainSize(size_t col) const override { return domains_[col]; }
  void ConditionalDist(const IntMatrix& samples, size_t col,
                       Matrix* probs) override;
  /// Re-entrant ConditionalDist evaluating through caller-owned scratch:
  /// a full trunk recompute from the prefix, and the reference the
  /// incremental sessions are tested against. `samples` rows may stack the
  /// walk states of several queries; per-row results are bit-identical to
  /// evaluating each query's rows separately because every kernel on the
  /// path (encode, gemm, bias, relu, softmax) is row-independent.
  void ConditionalDistWith(EvalContext* ctx, const IntMatrix& samples,
                           size_t col, Matrix* probs) const;
  void LogProbRows(const IntMatrix& tuples,
                   std::vector<double>* out_nats) override;
  /// Incremental sessions (see the file comment). Each owns its scratch
  /// and shares the read-only weight panels, so they can run concurrently.
  std::unique_ptr<SamplingSession> StartSession(size_t batch) override;
  bool SupportsConcurrentSampling() const override { return true; }
  /// Switches the inference forward paths (ConditionalDist*, LogProbRows,
  /// sessions) to `kernel`; training stays scalar.
  void SetInferenceKernel(KernelKind kernel) override {
    inference_kernel_ = kernel;
  }
  KernelKind inference_kernel() const override { return inference_kernel_; }
  /// The widest hidden layer dominates the stacked GEMM chain (linear
  /// MADE: no hidden GEMMs, leave the hint unknown).
  size_t StackedWidthHint() const override {
    size_t width = 0;
    for (size_t h : config_.hidden_sizes) width = std::max(width, h);
    return width;
  }

  // --- Training ---
  /// Fused forward/backward over a batch of full tuples; accumulates
  /// parameter gradients (mean-scaled) and returns the summed NLL in nats.
  double ForwardBackward(const IntMatrix& codes);

  /// All trainable parameters (optimizer registration, serialization).
  /// Handing them out marks the sessions' weight panels stale: callers may
  /// write through the pointers.
  std::vector<Parameter*> Parameters();

  /// float32 model size (the paper's reported estimator size).
  size_t SizeBytes();

  Status Save(const std::string& path);
  Status Load(const std::string& path);

  const Config& config() const { return config_; }
  const InputEncoder& encoder() const { return encoder_; }

 private:
  friend class MadeSession;

  /// One hidden layer's units of one degree, packed for the session step:
  /// the layer's masked weight columns (in_dim x units) and bias entries of
  /// exactly those units, and where the units sit in the layer.
  struct DegreePanel {
    Matrix weight;
    Matrix bias;
    std::vector<size_t> units;
  };
  /// [layer][degree] panels; derived from the weights, never serialized.
  using TrunkPanels = std::vector<std::vector<DegreePanel>>;

  /// The panels for the current weights, rebuilt first if stale. Sessions
  /// keep the returned snapshot, so a rebuild never touches one in use.
  std::shared_ptr<const TrunkPanels> CurrentPanels();
  /// Marks the panels stale (weights may change: training, Parameters()).
  void InvalidatePanels();

  /// Encodes columns < upto and runs the hidden stack into `ctx`; the
  /// result lives in final_hidden(*ctx). With upto == num_columns() this is
  /// a full forward. Const: only caller scratch is written. `kernel` picks
  /// the GEMM family (training passes kScalar, inference the configured
  /// inference_kernel_).
  void ForwardTrunk(const IntMatrix& codes, size_t upto, EvalContext* ctx,
                    KernelKind kernel) const;

  const Matrix& final_hidden(const EvalContext& ctx) const {
    return ctx.acts.empty() ? ctx.x : ctx.acts.back();
  }

  /// Computes the raw logits block for `col` from the last ForwardTrunk
  /// through `ctx`. The block is written into `block` (batch x
  /// domains_[col]), which may alias &ctx->block.
  void HeadForward(size_t col, EvalContext* ctx, Matrix* block,
                   KernelKind kernel) const;

  /// Backpropagates a logits-block gradient through head `col`,
  /// accumulating into dfinal (batch x F). Reads the member context's
  /// forward activations (training is single-threaded by design).
  void HeadBackward(size_t col, const Matrix& dblock, Matrix* dfinal);

  /// Builds the MADE mask between two degree vectors.
  static Matrix BuildMask(const std::vector<int>& in_deg,
                          const std::vector<int>& out_deg, bool strict);

  /// True when hidden layer `layer` carries a ResMADE residual skip.
  bool HasSkip(size_t layer) const;

  std::vector<size_t> domains_;
  Config config_;
  Rng rng_;
  InputEncoder encoder_;
  std::vector<int> input_degrees_;             // per input dim
  std::vector<std::vector<int>> layer_degrees_;  // per hidden layer
  std::vector<MaskedLinear> hidden_;

  struct Head {
    std::unique_ptr<MaskedLinear> fc;
    bool reuse = false;  // logits = fc_out · E^T
  };
  std::vector<Head> heads_;

  // Inference kernel (scalar by default; see SetInferenceKernel) and the
  // sparse-input hint for the first hidden layer, fixed at construction
  // from the encoder's one-hot width fraction.
  KernelKind inference_kernel_ = KernelKind::kScalar;
  InputHint input_hint_ = InputHint::kDense;

  // Session weight panels; null = rebuild on the next StartSession.
  Mutex panels_mu_;
  std::shared_ptr<const TrunkPanels> panels_ NARU_GUARDED_BY(panels_mu_);

  // Member workspace for the single-threaded paths (training, the
  // stateless ConditionalDist, LogProbRows). Concurrent inference goes
  // through session-owned EvalContexts instead.
  EvalContext eval_;
  Matrix dblock_;
  Matrix dtmp_;
  std::vector<int32_t> targets_;
};

}  // namespace naru
