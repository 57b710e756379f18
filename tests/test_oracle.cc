// Tests for the oracle conditional model: exactness, session purity,
// smoothing-induced entropy gaps (Figure 7 machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/oracle_model.h"
#include "core/sampler.h"
#include "data/datasets.h"
#include "data/table_stats.h"
#include "query/executor.h"
#include "query/workload.h"
#include "util/random.h"

namespace naru {
namespace {

TEST(Oracle, ConditionalMatchesCounts) {
  Table t = TableBuilder("t")
                .AddIntColumn("a", {0, 0, 0, 1})
                .AddIntColumn("b", {0, 1, 1, 1})
                .Build();
  OracleModel oracle(&t);

  IntMatrix sample(1, 2);
  Matrix probs;
  // P(a): {3/4, 1/4}.
  oracle.ConditionalDist(sample, 0, &probs);
  EXPECT_NEAR(probs.At(0, 0), 0.75f, 1e-6);
  EXPECT_NEAR(probs.At(0, 1), 0.25f, 1e-6);
  // P(b | a=0): {1/3, 2/3}.
  sample.At(0, 0) = 0;
  oracle.ConditionalDist(sample, 1, &probs);
  EXPECT_NEAR(probs.At(0, 0), 1.0f / 3.0f, 1e-6);
  EXPECT_NEAR(probs.At(0, 1), 2.0f / 3.0f, 1e-6);
  // P(b | a=1): {0, 1}.
  sample.At(0, 0) = 1;
  oracle.ConditionalDist(sample, 1, &probs);
  EXPECT_NEAR(probs.At(0, 0), 0.0f, 1e-6);
  EXPECT_NEAR(probs.At(0, 1), 1.0f, 1e-6);
}

// Session output must be the scan reference, bit for bit, whatever the
// session saw before: the plan executor forks (duplicates), retires
// (drops) and restacks rows between columns and restarts walks on one
// session.
void ExpectSessionIsScan(OracleModel* oracle, SamplingSession* session,
                         const IntMatrix& samples, size_t col,
                         const std::string& where) {
  Matrix got;
  Matrix want;
  session->Dist(samples, col, &got);
  oracle->ConditionalDist(samples, col, &want);
  ASSERT_EQ(got.rows(), samples.rows()) << where;
  ASSERT_EQ(got.cols(), want.cols()) << where;
  for (size_t r = 0; r < samples.rows(); ++r) {
    ASSERT_EQ(std::memcmp(got.Row(r), want.Row(r), got.cols() * sizeof(float)),
              0)
        << where << " col " << col << " row " << r;
  }
}

// Rows copied from `src` in the order `pick` lists them (repeats = forks,
// omissions = retired rows).
IntMatrix PickRows(const IntMatrix& src, const std::vector<size_t>& pick) {
  IntMatrix out(pick.size(), src.cols());
  for (size_t i = 0; i < pick.size(); ++i) {
    std::memcpy(out.Row(i), src.Row(pick[i]), src.cols() * sizeof(int32_t));
  }
  return out;
}

TEST(Oracle, SessionIsPureUnderForksRetiresAndRestarts) {
  Table t = MakeRandomTable(600, {4, 6, 5, 3, 4}, 23, /*skew=*/1.0);
  const size_t n = t.num_columns();
  for (const double lambda : {0.0, 0.3}) {
    OracleModel oracle(&t, lambda);
    const std::string tag = "lambda " + std::to_string(lambda);

    // Half the paths follow real rows (supported prefixes), half draw
    // codes uniformly (prefixes the table may not contain).
    Rng rng(31);
    const auto walk_samples = [&](size_t rows) {
      IntMatrix samples(rows, n);
      for (size_t r = 0; r < rows; ++r) {
        if (r % 2 == 0) {
          t.GetRowCodes(rng.UniformInt(t.num_rows()), samples.Row(r));
        } else {
          for (size_t c = 0; c < n; ++c) {
            samples.At(r, c) = static_cast<int32_t>(
                rng.UniformInt(t.column(c).DomainSize()));
          }
        }
      }
      return samples;
    };

    // The batch hint is deliberately not the row count used below.
    auto session = oracle.StartSession(4);
    const IntMatrix walk = walk_samples(24);
    for (size_t col = 0; col < n; ++col) {
      ExpectSessionIsScan(&oracle, session.get(), walk, col, tag + " walk");
    }

    // A fork/retire boundary at column 2: rows duplicated, dropped and
    // reordered, then the walk continues.
    const IntMatrix forked =
        PickRows(walk, {3, 3, 0, 7, 7, 7, 12, 1, 20, 5, 5});
    for (size_t col = 2; col < n; ++col) {
      ExpectSessionIsScan(&oracle, session.get(), forked, col,
                          tag + " forked");
    }

    // A changed prefix: the parent group of the new prefix is not cached.
    IntMatrix changed = forked;
    changed.At(0, 0) = (changed.At(0, 0) + 1) % 4;
    changed.At(4, 2) = (changed.At(4, 2) + 2) % 5;
    ExpectSessionIsScan(&oracle, session.get(), changed, n - 1,
                        tag + " changed");

    // A step back to an earlier column, then the same column twice.
    ExpectSessionIsScan(&oracle, session.get(), changed, 1, tag + " back");
    ExpectSessionIsScan(&oracle, session.get(), changed, 1, tag + " repeat");
    ExpectSessionIsScan(&oracle, session.get(), walk, 1, tag + " relayout");
    ExpectSessionIsScan(&oracle, session.get(), changed, 2, tag + " onward");

    // A second walk on the same session, with another row count.
    const IntMatrix second = walk_samples(9);
    for (size_t col = 0; col < n; ++col) {
      ExpectSessionIsScan(&oracle, session.get(), second, col,
                          tag + " second walk");
    }
  }
}

TEST(Oracle, SmoothedRowsStillNormalized) {
  Table t = MakeRandomTable(200, {5, 8}, 23);
  OracleModel oracle(&t, /*smoothing_lambda=*/0.37);
  IntMatrix samples(4, 2);
  for (size_t r = 0; r < 4; ++r) t.GetRowCodes(r, samples.Row(r));
  for (size_t col = 0; col < 2; ++col) {
    Matrix probs;
    oracle.ConditionalDist(samples, col, &probs);
    for (size_t r = 0; r < 4; ++r) {
      double sum = 0;
      for (size_t v = 0; v < t.column(col).DomainSize(); ++v) {
        sum += probs.At(r, v);
      }
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

TEST(Oracle, CrossEntropyAtZeroLambdaIsDataEntropy) {
  Table t = MakeRandomTable(400, {4, 7, 3}, 29);
  OracleModel oracle(&t, 0.0);
  EXPECT_NEAR(oracle.CrossEntropyBits(), TableStats::JointEntropyBits(t),
              1e-6);
}

TEST(Oracle, GapGrowsMonotonicallyWithLambda) {
  Table t = MakeRandomTable(400, {6, 10, 4}, 31);
  OracleModel oracle(&t, 0.0);
  const double h0 = oracle.CrossEntropyBits();
  double prev = h0;
  for (double lambda : {0.1, 0.3, 0.6, 0.9, 1.0}) {
    oracle.set_smoothing_lambda(lambda);
    const double ce = oracle.CrossEntropyBits();
    EXPECT_GE(ce + 1e-9, prev) << "lambda " << lambda;
    prev = ce;
  }
}

TEST(Oracle, FindLambdaHitsTargetGap) {
  Table t = MakeConvivaBLike(1000, 41, 12);
  OracleModel oracle(&t, 0.0);
  const double h_data = oracle.CrossEntropyBits();
  for (double target : {0.5, 2.0, 5.0}) {
    const double lambda = oracle.FindLambdaForGapBits(target, 0.05);
    OracleModel probe(&t, lambda);
    EXPECT_NEAR(probe.CrossEntropyBits() - h_data, target, 0.1)
        << "target " << target;
  }
  EXPECT_DOUBLE_EQ(oracle.FindLambdaForGapBits(0.0), 0.0);
}

TEST(Oracle, SamplingWithSmoothedModelStillReasonable) {
  // Figure 7's premise: estimates degrade smoothly with gap, and a modest
  // gap keeps range queries usable.
  Table t = MakeConvivaBLike(1000, 43, 10);
  WorkloadConfig wcfg;
  wcfg.num_queries = 10;
  wcfg.min_filters = 2;
  wcfg.max_filters = 4;
  wcfg.seed = 3;
  const auto queries = GenerateWorkload(t, wcfg);

  const double lambda = OracleModel(&t).FindLambdaForGapBits(1.0);
  OracleModel smoothed(&t, lambda);
  ProgressiveSamplerConfig scfg;
  scfg.num_samples = 2000;
  ProgressiveSampler sampler(&smoothed, scfg);
  for (const auto& q : queries) {
    const double truth = ExecuteSelectivity(t, q);
    const double est = sampler.EstimateSelectivity(q);
    const double err =
        std::max(est, 1e-3) / std::max(truth, 1e-3);
    EXPECT_LT(std::max(err, 1.0 / err), 30.0) << q.ToString(t);
  }
}

}  // namespace
}  // namespace naru
