// A model trained over a permutation of the table's column order (§3.1:
// the model "can be architected to use any ordering(s) of the attributes").
//
// The wrapper owns an inner autoregressive model that was constructed over
// the *permuted* domain list and exposes it under the ConditionalModel /
// TrainableModel contracts:
//   - training tuples and LogProbRows inputs arrive in TABLE order and are
//     permuted before reaching the inner model, so the Trainer and the
//     exact enumerator work unchanged;
//   - ConditionalDist / sampling sessions speak MODEL positions (the
//     progressive sampler walks positions 0..n-1 and maps query regions
//     through TableColumnOf).
//
// Different orders factor the same joint differently; each is exact in
// expectation, but their progressive-sampling variances differ per query.
// Averaging estimates across a few orders (MultiOrderEnsemble) keeps
// unbiasedness and shrinks the tail — the ensembling idea NeuroCard later
// built on.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/conditional_model.h"
#include "core/trainable_model.h"
#include "util/random.h"

namespace naru {

class OrderedModel : public ConditionalModel, public TrainableModel {
 public:
  /// `order[i]` = table column served at model position i; `inner` must
  /// have been built over domains {table_domains[order[0]], ...}. M must
  /// derive from both ConditionalModel and TrainableModel.
  template <typename M>
  OrderedModel(std::unique_ptr<M> inner, std::vector<size_t> order)
      : cond_(inner.get()),
        train_(inner.get()),
        owned_(std::move(inner)),
        order_(std::move(order)) {
    NARU_CHECK(cond_->num_columns() == order_.size());
    // Verify `order_` is a permutation of [0, n).
    std::vector<uint8_t> seen(order_.size(), 0);
    for (size_t c : order_) {
      NARU_CHECK(c < order_.size() && !seen[c]);
      seen[c] = 1;
    }
  }

  /// The inner model's domain list for a given table + order (construction
  /// helper: build the inner model over this, then wrap).
  static std::vector<size_t> PermuteDomains(
      const std::vector<size_t>& table_domains,
      const std::vector<size_t>& order) {
    std::vector<size_t> out(order.size());
    for (size_t i = 0; i < order.size(); ++i) out[i] = table_domains[order[i]];
    return out;
  }

  /// A uniformly random permutation of [0, n).
  static std::vector<size_t> RandomOrder(size_t n, Rng* rng) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    rng->Shuffle(&order);
    return order;
  }

  const std::vector<size_t>& order() const { return order_; }

  // --- ConditionalModel (model-position indexed) ---
  size_t num_columns() const override { return order_.size(); }
  size_t DomainSize(size_t col) const override {
    return cond_->DomainSize(col);
  }
  size_t TableColumnOf(size_t model_col) const override {
    return order_[model_col];
  }
  void ConditionalDist(const IntMatrix& samples, size_t col,
                       Matrix* probs) override {
    cond_->ConditionalDist(samples, col, probs);
  }
  std::unique_ptr<SamplingSession> StartSession(size_t batch) override {
    return cond_->StartSession(batch);
  }
  bool SupportsConcurrentSampling() const override {
    return cond_->SupportsConcurrentSampling();
  }
  size_t StackedWidthHint() const override {
    return cond_->StackedWidthHint();
  }

  void SetInferenceKernel(KernelKind kernel) override {
    cond_->SetInferenceKernel(kernel);
  }
  KernelKind inference_kernel() const override {
    return cond_->inference_kernel();
  }

  /// Accepts TABLE-order tuples (permutes, then delegates).
  void LogProbRows(const IntMatrix& tuples,
                   std::vector<double>* out_nats) override {
    PermuteRows(tuples);
    cond_->LogProbRows(buf_, out_nats);
  }

  // --- TrainableModel (table-order batches) ---
  double ForwardBackward(const IntMatrix& codes) override {
    PermuteRows(codes);
    return train_->ForwardBackward(buf_);
  }
  std::vector<Parameter*> Parameters() override {
    return train_->Parameters();
  }
  size_t SizeBytes() override { return train_->SizeBytes(); }

 private:
  void PermuteRows(const IntMatrix& table_order) {
    NARU_CHECK(table_order.cols() == order_.size());
    buf_.Resize(table_order.rows(), table_order.cols());
    for (size_t r = 0; r < table_order.rows(); ++r) {
      const int32_t* src = table_order.Row(r);
      int32_t* dst = buf_.Row(r);
      for (size_t i = 0; i < order_.size(); ++i) dst[i] = src[order_[i]];
    }
  }

  ConditionalModel* cond_;
  TrainableModel* train_;
  std::shared_ptr<void> owned_;
  std::vector<size_t> order_;
  IntMatrix buf_;
};

}  // namespace naru
