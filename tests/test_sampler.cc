// Tests for progressive sampling (Algorithm 1) and exact enumeration:
// unbiasedness on oracle joints, consistency with enumeration on learned
// models, wildcard handling, the uniform-region strawman, and the
// mask-mass invariant the column step's draw relies on.
#include <gtest/gtest.h>

#include <cmath>

#include "core/enumerator.h"
#include "core/factorized.h"
#include "core/made.h"
#include "core/oracle_model.h"
#include "core/sampler.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "query/executor.h"
#include "query/workload.h"

namespace naru {
namespace {

// Property test: on an exact oracle model, progressive sampling with many
// paths must converge to the true selectivity for random queries
// (Theorem 1 unbiasedness + concentration).
class SamplerUnbiasednessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplerUnbiasednessTest, OracleEstimatesMatchTruth) {
  const uint64_t seed = GetParam();
  Table t = MakeRandomTable(800, {5, 7, 9, 4, 6}, seed, /*skew=*/1.1);
  OracleModel oracle(&t);

  WorkloadConfig wcfg;
  wcfg.num_queries = 15;
  wcfg.min_filters = 1;
  wcfg.max_filters = 5;
  wcfg.range_domain_threshold = 5;
  wcfg.seed = seed * 31 + 1;
  const auto queries = GenerateWorkload(t, wcfg);

  ProgressiveSamplerConfig scfg;
  scfg.num_samples = 4000;
  scfg.seed = seed + 5;
  ProgressiveSampler sampler(&oracle, scfg);

  for (const auto& q : queries) {
    const double truth = ExecuteSelectivity(t, q);
    const double est = sampler.EstimateSelectivity(q);
    // Monte Carlo tolerance: absolute for tiny, relative for larger.
    EXPECT_NEAR(est, truth, std::max(0.35 * truth, 0.015))
        << q.ToString(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerUnbiasednessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Sampler, ExactOnEqualityPointQueries) {
  // With every column filtered to a point, progressive sampling needs no
  // randomness: the estimate equals the oracle's exact point probability.
  Table t = MakeRandomTable(400, {3, 4, 5}, 10);
  OracleModel oracle(&t);
  // Build an equality query on an existing tuple.
  std::vector<Predicate> preds;
  for (size_t c = 0; c < 3; ++c) {
    preds.push_back(Predicate{c, CompareOp::kEq, t.column(c).code(0), 0, {}});
  }
  Query q(t, preds);
  ProgressiveSamplerConfig scfg;
  scfg.num_samples = 16;  // deterministic regardless of path count
  ProgressiveSampler sampler(&oracle, scfg);
  const double truth = ExecuteSelectivity(t, q);
  // float32 conditionals leave ~1e-7 relative noise.
  EXPECT_NEAR(sampler.EstimateSelectivity(q), truth, 1e-6);
}

TEST(Sampler, WildcardOnlyQueryIsOne) {
  Table t = MakeRandomTable(100, {4, 4}, 11);
  OracleModel oracle(&t);
  Query q(t, {});
  ProgressiveSampler sampler(&oracle, ProgressiveSamplerConfig{});
  EXPECT_DOUBLE_EQ(sampler.EstimateSelectivity(q), 1.0);
}

TEST(Sampler, EmptyRegionIsZero) {
  Table t = MakeRandomTable(100, {4, 4}, 12);
  OracleModel oracle(&t);
  Predicate lt0{/*column=*/0, CompareOp::kLt, /*literal=*/0, 0, {}};
  Query q(t, {lt0});
  ASSERT_TRUE(q.HasEmptyRegion());
  ProgressiveSampler sampler(&oracle, ProgressiveSamplerConfig{});
  EXPECT_DOUBLE_EQ(sampler.EstimateSelectivity(q), 0.0);
}

TEST(Sampler, TrailingWildcardsNeedNoModelCalls) {
  // A query filtering only column 0 must end after one column; verify via
  // a model that counts conditional calls.
  class CountingModel : public ConditionalModel {
   public:
    size_t num_columns() const override { return 4; }
    size_t DomainSize(size_t) const override { return 3; }
    void ConditionalDist(const IntMatrix& samples, size_t col,
                         Matrix* probs) override {
      ++calls;
      probs->Resize(samples.rows(), 3);
      probs->Fill(1.0f / 3.0f);
      (void)col;
    }
    int calls = 0;
  };
  CountingModel model;
  Table t = TableBuilder("t")
                .AddIntColumn("a", {0, 1, 2})
                .AddIntColumn("b", {0, 1, 2})
                .AddIntColumn("c", {0, 1, 2})
                .AddIntColumn("d", {0, 1, 2})
                .Build();
  Predicate p{/*column=*/0, CompareOp::kEq, /*literal=*/1, 0, {}};
  Query q(t, {p});
  ProgressiveSamplerConfig scfg;
  scfg.num_samples = 64;
  scfg.shard_size = 64;
  ProgressiveSampler sampler(&model, scfg);
  const double est = sampler.EstimateSelectivity(q);
  EXPECT_NEAR(est, 1.0 / 3.0, 1e-6);
  EXPECT_EQ(model.calls, 1);  // only column 0 was visited
}

TEST(Sampler, UniformRegionModeIsUnbiasedButNoisy) {
  Table t = MakeRandomTable(500, {6, 6}, 13, /*skew=*/0.5);
  OracleModel oracle(&t);
  Predicate p0{/*column=*/0, CompareOp::kLe, /*literal=*/3, 0, {}};
  Predicate p1{/*column=*/1, CompareOp::kGe, /*literal=*/2, 0, {}};
  Query q(t, {p0, p1});
  const double truth = ExecuteSelectivity(t, q);

  ProgressiveSamplerConfig ucfg;
  ucfg.num_samples = 20000;
  ucfg.uniform_region = true;
  ucfg.seed = 3;
  ProgressiveSampler uniform(&oracle, ucfg);
  EXPECT_NEAR(uniform.EstimateSelectivity(q), truth,
              std::max(0.3 * truth, 0.02));
}

TEST(Sampler, StdErrorConfidenceIntervalCoversExactMass) {
  // Repeated estimates with independent seeds: the ±2·stderr interval must
  // cover the exactly-enumerated model mass in the vast majority of runs
  // (nominal ~95%; we assert a lenient 80% over 40 runs).
  const std::vector<size_t> domains = {5, 6, 4};
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.encoder.onehot_threshold = 16;
  cfg.seed = 7;
  MadeModel model(domains, cfg);
  Query q({ValueSet::Interval(5, 1, 3), ValueSet::All(6),
           ValueSet::Interval(4, 0, 1)});
  const double exact = EnumerateSelectivity(&model, q);
  ASSERT_GT(exact, 0.0);

  size_t covered = 0;
  const size_t runs = 40;
  for (size_t i = 0; i < runs; ++i) {
    ProgressiveSamplerConfig scfg;
    scfg.num_samples = 300;
    scfg.seed = 1000 + i;
    ProgressiveSampler sampler(&model, scfg);
    double se = -1;
    const double est = sampler.EstimateWithStdError(q, &se);
    ASSERT_GE(se, 0.0);
    covered += (std::abs(est - exact) <= 2.0 * se + 1e-12);
  }
  EXPECT_GE(covered, runs * 8 / 10) << covered << "/" << runs;
}

TEST(Sampler, StdErrorIsZeroForExactCases) {
  const std::vector<size_t> domains = {5, 6};
  MadeModel::Config cfg;
  cfg.hidden_sizes = {16};
  cfg.seed = 3;
  MadeModel model(domains, cfg);
  ProgressiveSamplerConfig scfg;
  scfg.num_samples = 64;
  ProgressiveSampler sampler(&model, scfg);

  double se = -1;
  // All-wildcard: exactly 1, no sampling.
  Query all({ValueSet::All(5), ValueSet::All(6)});
  EXPECT_EQ(sampler.EstimateWithStdError(all, &se), 1.0);
  EXPECT_EQ(se, 0.0);
  // Empty region: exactly 0.
  Query none({ValueSet::Empty(5), ValueSet::All(6)});
  EXPECT_EQ(sampler.EstimateWithStdError(none, &se), 0.0);
  EXPECT_EQ(se, 0.0);
  // Single leading filter: every path weight identical -> stderr 0.
  Query lead({ValueSet::Interval(5, 0, 2), ValueSet::All(6)});
  sampler.EstimateWithStdError(lead, &se);
  EXPECT_NEAR(se, 0.0, 1e-9);
}

TEST(Sampler, StdErrorShrinksWithSampleCount) {
  const std::vector<size_t> domains = {6, 5, 4};
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.seed = 11;
  MadeModel model(domains, cfg);
  Query q({ValueSet::Interval(6, 2, 5), ValueSet::Interval(5, 0, 2),
           ValueSet::All(4)});
  auto stderr_at = [&](size_t s, uint64_t seed) {
    ProgressiveSamplerConfig scfg;
    scfg.num_samples = s;
    scfg.seed = seed;
    ProgressiveSampler sampler(&model, scfg);
    double se = 0;
    sampler.EstimateWithStdError(q, &se);
    return se;
  };
  // ~1/sqrt(S): 16x more samples ~ 4x smaller stderr (generous factor 2).
  const double se_small = stderr_at(200, 5);
  const double se_big = stderr_at(3200, 5);
  ASSERT_GT(se_small, 0.0);
  EXPECT_LT(se_big, se_small / 2.0);
}

TEST(Sampler, ColumnStepPrimitiveReproducesFullWalk) {
  // The sampler's per-column row kernel is exposed as SamplerColumnStep so
  // the plan executor (src/plan) can share it. Re-assembling a whole
  // estimate from the primitive — shard seeds, column steps, shard-order
  // reduction — must reproduce EstimateSelectivity bit-for-bit; this
  // pins the primitive's contract independently of either caller.
  Table t = MakeRandomTable(500, {5, 6, 4, 5}, 19, /*skew=*/1.0);
  MadeModel::Config mcfg;
  mcfg.hidden_sizes = {24, 24};
  mcfg.encoder.onehot_threshold = 16;
  mcfg.seed = 4;
  MadeModel model({5, 6, 4, 5}, mcfg);
  TrainerConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 128;
  Trainer(&model, tcfg).Train(t);

  Predicate p1{/*column=*/1, CompareOp::kLe, /*literal=*/3, 0, {}};
  Predicate p2{/*column=*/2, CompareOp::kGe, /*literal=*/1, 0, {}};
  Query q(t, {p1, p2});

  ProgressiveSamplerConfig scfg;
  scfg.num_samples = 200;
  scfg.shard_size = 64;
  scfg.seed = 23;
  ProgressiveSampler sampler(&model, scfg);
  const double want = sampler.EstimateSelectivity(q);

  const int last_col = q.LastFilteredColumn();
  const size_t n = model.num_columns();
  double weight_sum = 0;
  for (size_t k = 0; k < SamplerNumShards(scfg.num_samples, scfg.shard_size);
       ++k) {
    const size_t lo = k * scfg.shard_size;
    const size_t rows = std::min(scfg.shard_size, scfg.num_samples - lo);
    Rng rng(SamplerShardSeed(scfg.seed, k));
    IntMatrix samples(rows, n);
    Matrix probs;
    std::vector<double> weights(rows, 1.0);
    std::vector<uint8_t> alive(rows, 1);
    auto session = model.StartSession(rows);
    for (size_t col = 0; col <= static_cast<size_t>(last_col); ++col) {
      session->Dist(samples, col, &probs);
      SamplerColumnStep(&model, q, col, model.PositionIsWildcard(q, col),
                        SamplerRowBlock{&samples, &probs, weights.data(),
                                        alive.data(), 0, rows},
                        &rng);
    }
    for (double w : weights) weight_sum += w;
  }
  EXPECT_EQ(weight_sum / static_cast<double>(scfg.num_samples), want);
}

// --- The mass a mask returns is the draw's total ------------------------
// SamplerColumnStep hands the mass MaskProbsToRegion returned to
// Rng::Categorical(w, n, total) instead of re-summing the row. That draw
// is the re-summing draw only if every mask returns exactly the double sum
// of the masked row in index order (the zeroed entries add +0).

// Positive weights spread over several orders of magnitude, so a double
// sum in any other order or over a different subset would differ.
std::vector<float> MassRow(size_t n, Rng* rng) {
  std::vector<float> row(n);
  for (float& v : row) {
    v = static_cast<float>(1e-3 * std::exp(3.0 * rng->Gaussian()));
  }
  return row;
}

double IndexOrderSum(const std::vector<float>& row) {
  double sum = 0;
  for (float v : row) sum += v;
  return sum;
}

TEST(MaskMass, ValueSetMassIsIndexOrderSumOfMaskedRow) {
  Rng rng(61);
  const size_t d = 300;
  const std::vector<ValueSet> regions = {
      ValueSet::All(d),
      ValueSet::Interval(d, 17, 211),
      ValueSet::Interval(d, 0, 0),
      ValueSet::Interval(d, 250, 299),
      ValueSet::Set(d, {0, 3, 4, 90, 150, 299}),
      ValueSet::Empty(d)};
  for (const ValueSet& region : regions) {
    std::vector<float> row = MassRow(d, &rng);
    const std::vector<float> before = row;
    const double mass = region.MaskProbs(row.data());
    EXPECT_EQ(mass, IndexOrderSum(row)) << region.ToString();
    for (size_t i = 0; i < d; ++i) {
      ASSERT_EQ(row[i], region.Contains(static_cast<int32_t>(i)) ? before[i]
                                                                  : 0.0f)
          << region.ToString() << " code " << i;
    }
  }
}

TEST(MaskMass, FactorizedMassIsIndexOrderSumOfMaskedRow) {
  // Column 1 (domain 500) splits into a high position (16 blocks) and a
  // low position (32 codes; the last block holds only 20 valid codes).
  FactorizedLayout layout = FactorizedLayout::Build({6, 500}, 64);
  MadeModel::Config mcfg;
  mcfg.hidden_sizes = {16};
  FactorizedModel model(
      std::make_unique<MadeModel>(layout.position_domains(), mcfg), layout);
  ASSERT_EQ(model.num_columns(), 3u);
  Rng rng(67);
  const std::vector<ValueSet> regions = {
      ValueSet::All(500), ValueSet::Interval(500, 37, 413),
      ValueSet::Interval(500, 480, 499),
      ValueSet::Set(500, {5, 40, 41, 250, 499}), ValueSet::Empty(500)};
  for (const ValueSet& region : regions) {
    const Query q({ValueSet::Interval(6, 1, 4), region});
    for (size_t pos = 0; pos < model.num_columns(); ++pos) {
      // The low position's mask depends on the sampled high part.
      const size_t highs = pos == 2 ? model.DomainSize(1) : 1;
      for (size_t high = 0; high < highs; ++high) {
        const int32_t prefix[3] = {2, static_cast<int32_t>(high), 0};
        std::vector<float> row = MassRow(model.DomainSize(pos), &rng);
        const double mass =
            model.MaskProbsToRegion(q, prefix, pos, row.data());
        EXPECT_EQ(mass, IndexOrderSum(row))
            << region.ToString() << " pos " << pos << " high " << high;
      }
    }
  }
}

TEST(MaskMass, CategoricalWithSuppliedTotalMatchesResumming) {
  Rng rng(71);
  for (uint64_t trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.UniformInt(300);
    std::vector<float> row = MassRow(n, &rng);
    const int64_t a = static_cast<int64_t>(rng.UniformInt(n));
    const int64_t b = static_cast<int64_t>(rng.UniformInt(n));
    const double mass =
        ValueSet::Interval(n, std::min(a, b), std::max(a, b))
            .MaskProbs(row.data());
    ASSERT_GT(mass, 0.0);
    Rng resum(1000 + trial), supplied(1000 + trial);
    for (int k = 0; k < 16; ++k) {
      ASSERT_EQ(resum.Categorical(row.data(), n),
                supplied.Categorical(row.data(), n, mass))
          << "trial " << trial << " draw " << k;
    }
  }
}

TEST(Enumerator, MatchesTruthOnOracle) {
  Table t = MakeRandomTable(300, {4, 5, 3}, 15);
  OracleModel oracle(&t);
  WorkloadConfig wcfg;
  wcfg.num_queries = 10;
  wcfg.min_filters = 1;
  wcfg.max_filters = 3;
  wcfg.range_domain_threshold = 4;
  wcfg.seed = 8;
  for (const auto& q : GenerateWorkload(t, wcfg)) {
    const double truth = ExecuteSelectivity(t, q);
    EXPECT_NEAR(EnumerateSelectivity(&oracle, q), truth, 1e-6)
        << q.ToString(t);
  }
}

TEST(Enumerator, MatchesProgressiveSamplingOnTrainedModel) {
  // Both querying schemes target the same model joint; with many samples
  // they must agree (§5: enumeration is exact, sampling unbiased).
  Table t = MakeRandomTable(1000, {5, 6, 4}, 16, /*skew=*/1.0);
  MadeModel::Config mcfg;
  mcfg.hidden_sizes = {32, 32};
  mcfg.encoder.onehot_threshold = 16;
  mcfg.seed = 2;
  MadeModel model({5, 6, 4}, mcfg);
  TrainerConfig tcfg;
  tcfg.epochs = 8;
  tcfg.batch_size = 128;
  Trainer trainer(&model, tcfg);
  trainer.Train(t);

  Predicate p0{/*column=*/0, CompareOp::kLe, /*literal=*/2, 0, {}};
  Predicate p2{/*column=*/2, CompareOp::kGe, /*literal=*/1, 0, {}};
  Query q(t, {p0, p2});

  const double enumerated = EnumerateSelectivity(&model, q);
  ProgressiveSamplerConfig scfg;
  scfg.num_samples = 20000;
  scfg.seed = 21;
  ProgressiveSampler sampler(&model, scfg);
  const double sampled = sampler.EstimateSelectivity(q);
  EXPECT_NEAR(sampled, enumerated, std::max(0.1 * enumerated, 0.01));
}

TEST(Enumerator, EstimatedEnumerationCost) {
  Table t = MakeRandomTable(100, {1000, 1000, 1000}, 17);
  Query q(t, {});  // full wildcard: region = whole joint
  // At 1e6 points/sec, a ~1e9-point region costs ~1e3 seconds.
  const double secs = EstimateEnumerationSeconds(q, 1e6);
  const double points = std::pow(10.0, q.Log10RegionSize());
  EXPECT_NEAR(secs, points / 1e6, points * 1e-9);
}

}  // namespace
}  // namespace naru
