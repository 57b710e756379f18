// Emulated perfect-accuracy "oracle" conditional model (§6.7).
//
// For small tables (Conviva-B: 10K x 100) the exact conditionals
// P(X_i | x_<i) can be computed by scanning the data, which isolates
// progressive-sampling error from model error. A smoothing knob mixes each
// conditional with the uniform distribution,
//     P'(v | prefix) = (1-λ) P_data(v | prefix) + λ / |A_i|,
// injecting a controllable artificial entropy gap (Figure 7);
// FindLambdaForGapBits inverts the (monotone) gap(λ) map by bisection.
//
// Sampling sessions group paths that share an identical sampled prefix, so
// matching-row lists are filtered once per distinct prefix instead of once
// per path; groups are disjoint row subsets, keeping each column's total
// filtering cost O(rows). Groups are keyed by the prefix codes and every
// hit is checked against them, so sessions are pure (see
// ConditionalModel) and the Oracle is served through sampling plans like
// every other model.
#pragma once

#include <memory>
#include <vector>

#include "core/conditional_model.h"
#include "data/table.h"

namespace naru {

class OracleModel : public ConditionalModel {
 public:
  /// The table must outlive the model. `smoothing_lambda` in [0, 1].
  explicit OracleModel(const Table* table, double smoothing_lambda = 0.0);

  size_t num_columns() const override { return table_->num_columns(); }
  size_t DomainSize(size_t col) const override {
    return table_->column(col).DomainSize();
  }

  /// Scan-based conditional (no incremental state; used by tests and by
  /// the default LogProbRows).
  void ConditionalDist(const IntMatrix& samples, size_t col,
                       Matrix* probs) override;

  std::unique_ptr<SamplingSession> StartSession(size_t batch) override;

  /// Sessions keep private prefix-group caches and only read the table.
  bool SupportsConcurrentSampling() const override { return true; }

  double smoothing_lambda() const { return lambda_; }
  void set_smoothing_lambda(double lambda) { lambda_ = lambda; }

  /// Cross entropy H(P, P') in bits of the smoothed oracle against its own
  /// table (== H(P) at λ=0; grows with λ).
  double CrossEntropyBits() const;

  /// λ such that H(P, P'_λ) - H(P) ≈ target_gap_bits (bisection to `tol`
  /// bits). Returns 0 for target 0 and 1 when the target exceeds the
  /// maximum achievable gap.
  double FindLambdaForGapBits(double target_gap_bits,
                              double tol = 0.05) const;

  const Table& table() const { return *table_; }

 private:
  const Table* table_;
  double lambda_;
};

}  // namespace naru
