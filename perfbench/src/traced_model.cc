#include "traced_model.h"

#include <utility>

namespace perfbench {

namespace {

class TracedSession : public naru::SamplingSession {
 public:
  TracedSession(std::unique_ptr<naru::SamplingSession> inner,
                TracedModel* model)
      : inner_(std::move(inner)), model_(model) {}

  void Dist(const naru::IntMatrix& samples, size_t col,
            naru::Matrix* probs) override {
    const auto start = Clock::now();
    inner_->Dist(samples, col, probs);
    model_->Note(samples.rows(), start, Clock::now());
  }

 private:
  std::unique_ptr<naru::SamplingSession> inner_;
  TracedModel* model_;
};

}  // namespace

TracedModel::TracedModel(std::unique_ptr<naru::ConditionalModel> inner,
                         SpanRecorder* spans)
    : inner_(std::move(inner)), spans_(spans) {}

void TracedModel::Note(size_t rows, Clock::time_point start,
                       Clock::time_point end) {
  counters_.Add(rows, end - start);
  if (spans_ != nullptr) spans_->Record("core.dist", start, end);
}

void TracedModel::ConditionalDist(const naru::IntMatrix& samples, size_t col,
                                  naru::Matrix* probs) {
  const auto start = Clock::now();
  inner_->ConditionalDist(samples, col, probs);
  Note(samples.rows(), start, Clock::now());
}

void TracedModel::LogProbRows(const naru::IntMatrix& tuples,
                              std::vector<double>* out_nats) {
  const auto start = Clock::now();
  inner_->LogProbRows(tuples, out_nats);
  Note(tuples.rows(), start, Clock::now());
}

std::unique_ptr<naru::SamplingSession> TracedModel::StartSession(
    size_t batch) {
  return std::make_unique<TracedSession>(inner_->StartSession(batch), this);
}

}  // namespace perfbench
