// Forwarding ConditionalModel for the traced run.
//
// Registered as the traced tenant's model, it forwards every virtual to
// the wrapped model — routing hints (SupportsStackedEvaluation,
// StackedWidthHint, SupportsConcurrentSampling) and the inference kernel
// included, so the serving stack takes exactly the route it takes on the
// bare model — and times the calls that evaluate the network: sampling
// sessions' Dist, the stateless ConditionalDist, and LogProbRows (exact
// enumeration). Each timed call is counted (calls, rows, busy time) and,
// when a SpanRecorder is attached, recorded as a "core.dist" span.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/conditional_model.h"
#include "trace.h"

namespace perfbench {

/// Model-evaluation counters. Relaxed atomics: engine threads bump them
/// concurrently and they are read only after the serving phase drained.
struct EvalCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> rows{0};
  std::atomic<uint64_t> busy_ns{0};

  void Add(uint64_t call_rows, Clock::duration busy) {
    calls.fetch_add(1, std::memory_order_relaxed);
    rows.fetch_add(call_rows, std::memory_order_relaxed);
    busy_ns.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
                .count()),
        std::memory_order_relaxed);
  }
};

class TracedModel : public naru::ConditionalModel {
 public:
  /// `spans` may be nullptr (count only).
  TracedModel(std::unique_ptr<naru::ConditionalModel> inner,
              SpanRecorder* spans);

  naru::ConditionalModel* inner() const { return inner_.get(); }
  const EvalCounters& counters() const { return counters_; }

  size_t num_columns() const override { return inner_->num_columns(); }
  size_t DomainSize(size_t col) const override {
    return inner_->DomainSize(col);
  }
  size_t TableColumnOf(size_t model_col) const override {
    return inner_->TableColumnOf(model_col);
  }
  size_t num_table_columns() const override {
    return inner_->num_table_columns();
  }
  bool PositionIsWildcard(const naru::Query& query,
                          size_t pos) const override {
    return inner_->PositionIsWildcard(query, pos);
  }
  double MaskProbsToRegion(const naru::Query& query, const int32_t* prefix,
                           size_t pos, float* probs_row) const override {
    return inner_->MaskProbsToRegion(query, prefix, pos, probs_row);
  }
  int32_t FallbackCode(const naru::Query& query, size_t pos) const override {
    return inner_->FallbackCode(query, pos);
  }
  void EncodeTableRow(const int32_t* table_codes,
                      int32_t* model_codes) const override {
    inner_->EncodeTableRow(table_codes, model_codes);
  }
  void DecodeToTableRow(const int32_t* model_codes,
                        int32_t* table_codes) const override {
    inner_->DecodeToTableRow(model_codes, table_codes);
  }
  void ConditionalDist(const naru::IntMatrix& samples, size_t col,
                       naru::Matrix* probs) override;
  void LogProbRows(const naru::IntMatrix& tuples,
                   std::vector<double>* out_nats) override;
  std::unique_ptr<naru::SamplingSession> StartSession(size_t batch) override;
  bool SupportsConcurrentSampling() const override {
    return inner_->SupportsConcurrentSampling();
  }
  void SetInferenceKernel(naru::KernelKind kernel) override {
    inner_->SetInferenceKernel(kernel);
  }
  naru::KernelKind inference_kernel() const override {
    return inner_->inference_kernel();
  }
  bool SupportsStackedEvaluation() const override {
    return inner_->SupportsStackedEvaluation();
  }
  size_t StackedWidthHint() const override {
    return inner_->StackedWidthHint();
  }

  /// Counts (and traces) one evaluation of `rows` rows that ran over
  /// [start, end). Used by the wrapped sessions.
  void Note(size_t rows, Clock::time_point start, Clock::time_point end);

 private:
  std::unique_ptr<naru::ConditionalModel> inner_;
  SpanRecorder* spans_;
  EvalCounters counters_;
};

}  // namespace perfbench
