#include "core/generator.h"

#include <algorithm>

#include "core/sampler.h"
#include "util/macros.h"

namespace naru {

namespace {

constexpr size_t kChunk = 512;

// Every table column unconstrained. A column's domain is the product of
// its positions' domains: the code space an unconditional walk draws from.
Query AllWildcardQuery(const ConditionalModel* model) {
  NARU_CHECK(model != nullptr);
  std::vector<size_t> domains(model->num_table_columns(), 1);
  for (size_t pos = 0; pos < model->num_columns(); ++pos) {
    domains[model->TableColumnOf(pos)] *= model->DomainSize(pos);
  }
  std::vector<ValueSet> regions;
  regions.reserve(domains.size());
  for (size_t d : domains) regions.push_back(ValueSet::All(d));
  return Query(std::move(regions));
}

}  // namespace

TupleGenerator::TupleGenerator(ConditionalModel* model, uint64_t seed)
    : model_(model), all_wildcard_(AllWildcardQuery(model)), rng_(seed) {}

void TupleGenerator::WalkChunk(const Query* query, size_t chunk,
                               IntMatrix* tuples,
                               std::vector<double>* weights) {
  const size_t n = model_->num_columns();
  samples_.Resize(chunk, n);
  samples_.Fill(0);
  weights->assign(chunk, 1.0);
  std::vector<uint8_t> alive(chunk, 1);
  // An unconditional walk draws every position from its full conditional,
  // so no path dies and the all-wildcard query is never consulted.
  const Query& region = query != nullptr ? *query : all_wildcard_;

  auto session = model_->StartSession(chunk);
  for (size_t pos = 0; pos < n; ++pos) {
    const bool wildcard =
        query == nullptr || model_->PositionIsWildcard(*query, pos);
    session->Dist(samples_, pos, &probs_);
    SamplerColumnStep(model_, region, pos, wildcard,
                      SamplerRowBlock{&samples_, &probs_, weights->data(),
                                      alive.data(), /*row_offset=*/0, chunk},
                      &rng_);
  }

  // Emit in table order (sub-column layouts re-join here).
  tuples->Resize(chunk, model_->num_table_columns());
  for (size_t r = 0; r < chunk; ++r) {
    model_->DecodeToTableRow(samples_.Row(r), tuples->Row(r));
  }
}

void TupleGenerator::DrawUnconditional(size_t count, IntMatrix* tuples) {
  const size_t n = model_->num_table_columns();
  tuples->Resize(count, n);
  IntMatrix chunk_tuples;
  std::vector<double> chunk_weights;
  size_t done = 0;
  while (done < count) {
    const size_t chunk = std::min(kChunk, count - done);
    WalkChunk(nullptr, chunk, &chunk_tuples, &chunk_weights);
    for (size_t r = 0; r < chunk; ++r) {
      std::copy(chunk_tuples.Row(r), chunk_tuples.Row(r) + n,
                tuples->Row(done + r));
    }
    done += chunk;
  }
}

void TupleGenerator::DrawWeighted(const Query& query, size_t count,
                                  IntMatrix* tuples,
                                  std::vector<double>* weights) {
  NARU_CHECK(query.num_columns() == model_->num_table_columns());
  const size_t n = model_->num_table_columns();
  tuples->Resize(count, n);
  weights->assign(count, 0.0);
  if (query.HasEmptyRegion()) return;

  IntMatrix chunk_tuples;
  std::vector<double> chunk_weights;
  size_t done = 0;
  while (done < count) {
    const size_t chunk = std::min(kChunk, count - done);
    WalkChunk(&query, chunk, &chunk_tuples, &chunk_weights);
    for (size_t r = 0; r < chunk; ++r) {
      std::copy(chunk_tuples.Row(r), chunk_tuples.Row(r) + n,
                tuples->Row(done + r));
      (*weights)[done + r] = chunk_weights[r];
    }
    done += chunk;
  }
}

bool RowSatisfies(const Query& query, const int32_t* row) {
  for (size_t c = 0; c < query.num_columns(); ++c) {
    const ValueSet& region = query.region(c);
    if (!region.IsAll() && !region.Contains(row[c])) return false;
  }
  return true;
}

double RejectionSelectivity(ConditionalModel* model, const Query& query,
                            size_t num_samples, uint64_t seed) {
  NARU_CHECK(num_samples > 0);
  if (query.HasEmptyRegion()) return 0.0;
  TupleGenerator gen(model, seed);
  IntMatrix tuples;
  size_t hits = 0;
  size_t done = 0;
  while (done < num_samples) {
    const size_t chunk = std::min(kChunk, num_samples - done);
    gen.DrawUnconditional(chunk, &tuples);
    for (size_t r = 0; r < chunk; ++r) {
      if (RowSatisfies(query, tuples.Row(r))) ++hits;
    }
    done += chunk;
  }
  return static_cast<double>(hits) / static_cast<double>(num_samples);
}

IndependenceMhChain::IndependenceMhChain(ConditionalModel* model,
                                         const Query& query, uint64_t seed)
    : gen_(model, seed), query_(&query), rng_(seed ^ 0x5bf0a8b1u) {
  NARU_CHECK(!query.HasEmptyRegion());
  state_.resize(model->num_table_columns(), 0);
  // Initialize from the first positive-weight proposal.
  for (int attempt = 0; attempt < 64 && state_weight_ <= 0; ++attempt) {
    gen_.WalkChunk(query_, kChunk, &prop_tuples_, &prop_weights_);
    for (size_t r = 0; r < kChunk; ++r) {
      if (prop_weights_[r] > 0) {
        std::copy(prop_tuples_.Row(r),
                  prop_tuples_.Row(r) + prop_tuples_.cols(), state_.begin());
        state_weight_ = prop_weights_[r];
        break;
      }
    }
  }
  NARU_CHECK(state_weight_ > 0);  // region has mass under the model
  buffer_pos_ = prop_tuples_.rows();  // discard the rest of the init chunk
}

void IndependenceMhChain::Propose() {
  if (buffer_pos_ >= prop_tuples_.rows()) {
    gen_.WalkChunk(query_, kChunk, &prop_tuples_, &prop_weights_);
    buffer_pos_ = 0;
  }
  const size_t r = buffer_pos_++;
  ++proposals_;
  const double w = prop_weights_[r];
  if (w <= 0) return;  // reject
  // Hastings ratio for the independence proposal q(x) = P̂(x)/w(x) and
  // target ∝ P̂(x)·1[x∈R]: α = min(1, w' / w).
  if (w >= state_weight_ || rng_.UniformDouble() < w / state_weight_) {
    std::copy(prop_tuples_.Row(r), prop_tuples_.Row(r) + prop_tuples_.cols(),
              state_.begin());
    state_weight_ = w;
    ++accepts_;
  }
}

void IndependenceMhChain::Advance(size_t steps) {
  for (size_t i = 0; i < steps; ++i) Propose();
}

void IndependenceMhChain::Sample(size_t count, size_t thin,
                                 IntMatrix* tuples) {
  const size_t n = state_.size();
  tuples->Resize(count, n);
  for (size_t i = 0; i < count; ++i) {
    Advance(std::max<size_t>(thin, 1));
    std::copy(state_.begin(), state_.end(), tuples->Row(i));
  }
}

double ConditionalExpectation(
    ConditionalModel* model, const Query& query,
    const std::function<double(const int32_t*)>& g, size_t num_samples,
    uint64_t seed) {
  TupleGenerator gen(model, seed);
  IntMatrix tuples;
  std::vector<double> weights;
  gen.DrawWeighted(query, num_samples, &tuples, &weights);
  double num = 0, den = 0;
  for (size_t r = 0; r < num_samples; ++r) {
    if (weights[r] <= 0) continue;
    num += weights[r] * g(tuples.Row(r));
    den += weights[r];
  }
  return den > 0 ? num / den : 0.0;
}

}  // namespace naru
