// Column factorization: sub-column splitting for very large domains
// (the scaling direction the paper points at in §6.7.2, later developed by
// NeuroCard).
//
// A column with domain D above a threshold is split into two model
// positions — a HIGH part (code >> shift) and a LOW part
// (code & (2^shift - 1)) — with shift ≈ log2(D)/2, so each sub-domain is
// ~sqrt(D). The inner autoregressive model is built over the sub-domains:
// its one-hot/embedding tables shrink from O(D) to O(sqrt(D)) and nothing
// about training changes (tuples are split before they reach the model).
//
// Querying needs one genuine generalization: the allowed LOW set depends
// on the sampled HIGH part, i.e. the query region over the factorized
// positions is NOT a cross product. Progressive sampling handles this
// unchanged — Algorithm 1 only needs "zero out disallowed slots given the
// prefix, renormalize" at each step, which is exactly the
// ConditionalModel::MaskProbsToRegion contract (the unbiasedness proof
// never uses rectangularity). This class implements that mask:
//   high position:  {v >> shift : v ∈ R}
//   low  position:  {v & (2^shift-1) : v ∈ R, v >> shift == sampled high}
// both intersected with validity (re-joined codes must be < D).
//
// Caveat (inherent to factorization, shared with NeuroCard): the inner
// model can place mass on invalid (high, low) combinations — codes >= D.
// All query paths mask them out, so estimates measure valid-region mass
// only, but an UNTRAINED factorized model's valid mass sums below 1;
// training drives the invalid mass toward 0.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/conditional_model.h"
#include "core/trainable_model.h"

namespace naru {

/// The table-column -> model-position mapping of a factorized model.
class FactorizedLayout {
 public:
  struct Position {
    size_t table_col = 0;
    size_t domain = 0;   ///< sub-domain size at this position
    size_t shift = 0;    ///< low-part bit width of the parent column
    bool is_high = false;
    bool is_low = false;  ///< !is_high && !is_low => unsplit column
  };

  /// Splits every column with domain > `threshold`; threshold must be
  /// >= 2. Unsplit columns keep one position; split columns contribute a
  /// high position immediately followed by its low position.
  static FactorizedLayout Build(const std::vector<size_t>& table_domains,
                                size_t threshold);

  size_t num_positions() const { return positions_.size(); }
  size_t num_table_columns() const { return table_domains_.size(); }
  const Position& position(size_t pos) const { return positions_[pos]; }
  size_t table_domain(size_t col) const { return table_domains_[col]; }
  bool column_is_split(size_t col) const { return split_[col]; }

  /// Domain per model position (inner model construction input).
  std::vector<size_t> position_domains() const;

  void EncodeRow(const int32_t* table_codes, int32_t* model_codes) const;
  void DecodeRow(const int32_t* model_codes, int32_t* table_codes) const;

 private:
  std::vector<size_t> table_domains_;
  std::vector<Position> positions_;
  std::vector<uint8_t> split_;  // per table column
};

/// Wraps an inner autoregressive model trained over a FactorizedLayout.
/// Training and LogProbRows speak TABLE rows; ConditionalDist and sampling
/// sessions speak model positions (as everywhere else).
class FactorizedModel : public ConditionalModel, public TrainableModel {
 public:
  /// M must derive from ConditionalModel and TrainableModel and must have
  /// been built over layout.position_domains().
  template <typename M>
  FactorizedModel(std::unique_ptr<M> inner, FactorizedLayout layout)
      : cond_(inner.get()),
        train_(inner.get()),
        owned_(std::move(inner)),
        layout_(std::move(layout)) {
    NARU_CHECK(cond_->num_columns() == layout_.num_positions());
  }

  const FactorizedLayout& layout() const { return layout_; }

  // --- ConditionalModel ---
  size_t num_columns() const override { return layout_.num_positions(); }
  size_t num_table_columns() const override {
    return layout_.num_table_columns();
  }
  size_t DomainSize(size_t pos) const override {
    return layout_.position(pos).domain;
  }
  size_t TableColumnOf(size_t pos) const override {
    return layout_.position(pos).table_col;
  }
  void ConditionalDist(const IntMatrix& samples, size_t pos,
                       Matrix* probs) override {
    cond_->ConditionalDist(samples, pos, probs);
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
  void LogProbRows(const IntMatrix& tuples,
                   std::vector<double>* out_nats) override;

  bool PositionIsWildcard(const Query& query, size_t pos) const override;
  double MaskProbsToRegion(const Query& query, const int32_t* prefix,
                           size_t pos, float* probs_row) const override;
  int32_t FallbackCode(const Query& query, size_t pos) const override;
  void EncodeTableRow(const int32_t* table_codes,
                      int32_t* model_codes) const override {
    layout_.EncodeRow(table_codes, model_codes);
  }
  void DecodeToTableRow(const int32_t* model_codes,
                        int32_t* table_codes) const override {
    layout_.DecodeRow(model_codes, table_codes);
  }

  // --- TrainableModel (table-order batches) ---
  size_t num_input_columns() const override {
    return layout_.num_table_columns();
  }
  double ForwardBackward(const IntMatrix& codes) override;
  std::vector<Parameter*> Parameters() override {
    return train_->Parameters();
  }
  size_t SizeBytes() override { return train_->SizeBytes(); }

 private:
  using Position = FactorizedLayout::Position;

  /// Masks a HIGH-position row to {v >> shift : v in region}; returns mass.
  double MaskHigh(const ValueSet& region, const Position& p,
                  float* probs_row) const;
  /// Masks a LOW-position row given the sampled high part; returns mass.
  double MaskLow(const ValueSet& region, const Position& p, int32_t high,
                 float* probs_row) const;

  ConditionalModel* cond_;
  TrainableModel* train_;
  std::shared_ptr<void> owned_;
  FactorizedLayout layout_;
  IntMatrix buf_;
};

}  // namespace naru
