// Tests for the MADE autoregressive model: masking invariants, likelihood
// normalization, gradient correctness, training convergence, save/load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/entropy.h"
#include "core/made.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "data/table_stats.h"
#include "nn/adam.h"
#include "tensor/kernel.h"

namespace naru {
namespace {

MadeModel::Config SmallConfig(uint64_t seed = 1) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32, 32};
  cfg.encoder.onehot_threshold = 8;
  cfg.encoder.embed_dim = 4;
  cfg.seed = seed;
  return cfg;
}

TEST(Made, AutoregressivePropertyHolds) {
  // Changing column j must not change output blocks i <= j.
  const std::vector<size_t> domains = {5, 3, 12, 4};  // col 2 embedded
  MadeModel model(domains, SmallConfig());

  IntMatrix base(1, 4);
  base.At(0, 0) = 2;
  base.At(0, 1) = 1;
  base.At(0, 2) = 7;
  base.At(0, 3) = 3;

  for (size_t j = 0; j < domains.size(); ++j) {
    // Record conditionals for all columns with the base tuple.
    std::vector<Matrix> before(domains.size());
    for (size_t i = 0; i < domains.size(); ++i) {
      model.ConditionalDist(base, i, &before[i]);
    }
    IntMatrix mutated = base;
    mutated.At(0, j) = (base.At(0, j) + 1) % static_cast<int32_t>(domains[j]);
    for (size_t i = 0; i < domains.size(); ++i) {
      Matrix after;
      model.ConditionalDist(mutated, i, &after);
      const bool must_match = i <= j;
      if (must_match) {
        for (size_t v = 0; v < domains[i]; ++v) {
          ASSERT_NEAR(before[i].At(0, v), after.At(0, v), 1e-6)
              << "output " << i << " changed when column " << j
              << " was perturbed";
        }
      }
    }
  }
}

TEST(Made, ConditionalsAreNormalized) {
  const std::vector<size_t> domains = {4, 20, 3};
  MadeModel model(domains, SmallConfig(3));
  IntMatrix batch(5, 3);
  Rng rng(5);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      batch.At(r, c) = static_cast<int32_t>(rng.UniformInt(domains[c]));
    }
  }
  for (size_t c = 0; c < 3; ++c) {
    Matrix probs;
    model.ConditionalDist(batch, c, &probs);
    ASSERT_EQ(probs.rows(), 5u);
    ASSERT_EQ(probs.cols(), domains[c]);
    for (size_t r = 0; r < 5; ++r) {
      double sum = 0;
      for (size_t v = 0; v < domains[c]; ++v) {
        EXPECT_GE(probs.At(r, v), 0.0f);
        sum += probs.At(r, v);
      }
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}

TEST(Made, JointSumsToOneByEnumeration) {
  // Small enough joint to enumerate: total probability must be 1 even for
  // an untrained model (softmax chain rule is normalized by construction).
  const std::vector<size_t> domains = {3, 4, 2};
  MadeModel model(domains, SmallConfig(7));
  double total = 0;
  IntMatrix tuple(1, 3);
  std::vector<double> lp;
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      for (size_t c = 0; c < 2; ++c) {
        tuple.At(0, 0) = static_cast<int32_t>(a);
        tuple.At(0, 1) = static_cast<int32_t>(b);
        tuple.At(0, 2) = static_cast<int32_t>(c);
        model.LogProbRows(tuple, &lp);
        total += std::exp(lp[0]);
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-3);
}

TEST(Made, LogProbMatchesConditionalChain) {
  const std::vector<size_t> domains = {4, 9, 5};
  MadeModel model(domains, SmallConfig(9));
  IntMatrix tuple(1, 3);
  tuple.At(0, 0) = 1;
  tuple.At(0, 1) = 7;
  tuple.At(0, 2) = 0;
  std::vector<double> lp;
  model.LogProbRows(tuple, &lp);
  double chain = 0;
  for (size_t c = 0; c < 3; ++c) {
    Matrix probs;
    model.ConditionalDist(tuple, c, &probs);
    chain += std::log(
        static_cast<double>(probs.At(0, static_cast<size_t>(tuple.At(0, c)))));
  }
  EXPECT_NEAR(lp[0], chain, 1e-4);
}

TEST(Made, GradientMatchesFiniteDifference) {
  const std::vector<size_t> domains = {3, 14, 4};  // includes embedding col
  MadeModel::Config cfg = SmallConfig(11);
  cfg.hidden_sizes = {8};
  MadeModel model(domains, cfg);

  IntMatrix batch(3, 3);
  Rng rng(13);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      batch.At(r, c) = static_cast<int32_t>(rng.UniformInt(domains[c]));
    }
  }

  auto params = model.Parameters();
  for (auto* p : params) p->ZeroGrad();
  model.ForwardBackward(batch);

  // Loss in ForwardBackward is mean-scaled for gradients but summed for
  // the return; finite differences check the mean objective.
  auto mean_nll = [&]() {
    std::vector<double> lp;
    model.LogProbRows(batch, &lp);
    double total = 0;
    for (double v : lp) total -= v;
    return total / static_cast<double>(batch.rows());
  };

  const double eps = 1e-2;
  size_t checked = 0;
  for (Parameter* p : params) {
    for (size_t i = 0; i < p->count(); i += std::max<size_t>(p->count() / 5, 1)) {
      const float orig = p->value.data()[i];
      // Masked MADE entries hold exactly 0 and receive no gradient by
      // construction; perturbing them breaks the autoregressive invariant,
      // so they are excluded from the finite-difference check.
      if (orig == 0.0f && p->grad.data()[i] == 0.0f) continue;
      p->value.data()[i] = orig + static_cast<float>(eps);
      const double up = mean_nll();
      p->value.data()[i] = orig - static_cast<float>(eps);
      const double down = mean_nll();
      p->value.data()[i] = orig;
      const double numeric = (up - down) / (2 * eps);
      // Skip masked entries that see no gradient flow.
      EXPECT_NEAR(p->grad.data()[i], numeric, 5e-2)
          << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(Made, TrainingReducesNllTowardEntropy) {
  // A strongly-correlated tiny table; a trained model must approach the
  // data entropy (gap << independent-model gap).
  Table t = MakeRandomTable(1500, {6, 6, 6}, 17, /*skew=*/1.2);
  const double h_data = TableStats::JointEntropyBits(t);

  MadeModel::Config cfg = SmallConfig(19);
  cfg.hidden_sizes = {64, 64};
  MadeModel model(
      {t.column(0).DomainSize(), t.column(1).DomainSize(),
       t.column(2).DomainSize()},
      cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 25;
  tcfg.batch_size = 128;
  tcfg.lr = 5e-3;
  Trainer trainer(&model, tcfg);
  const auto curve = trainer.Train(t);
  EXPECT_LT(curve.back(), curve.front());

  const double gap = EntropyGapBits(&model, t);
  EXPECT_GE(gap, -0.15);  // cross entropy >= entropy (up to sampling noise)
  EXPECT_LT(gap, 1.0);    // and the fit is tight on this easy table
  (void)h_data;
}

TEST(Made, EmbeddingReuseShrinksModel) {
  const std::vector<size_t> domains = {2000, 4};
  MadeModel::Config with = SmallConfig(23);
  with.encoder.onehot_threshold = 64;
  with.encoder.embed_dim = 16;
  with.embedding_reuse = true;
  MadeModel reuse(domains, with);

  MadeModel::Config without = with;
  without.embedding_reuse = false;
  MadeModel full(domains, without);
  // The full FC head carries an extra (hidden x 2000) weight block.
  EXPECT_LT(reuse.SizeBytes(), full.SizeBytes());
}

TEST(Made, BinaryEncodingWorks) {
  MadeModel::Config cfg = SmallConfig(29);
  cfg.encoder.onehot_threshold = 4;
  cfg.encoder.binary_for_large = true;
  cfg.embedding_reuse = false;  // reuse requires embeddings
  const std::vector<size_t> domains = {10, 3, 100};
  MadeModel model(domains, cfg);
  IntMatrix batch(2, 3);
  batch.At(0, 0) = 9;
  batch.At(0, 2) = 99;
  batch.At(1, 1) = 2;
  Matrix probs;
  model.ConditionalDist(batch, 2, &probs);
  double sum = 0;
  for (size_t v = 0; v < 100; ++v) sum += probs.At(0, v);
  EXPECT_NEAR(sum, 1.0, 1e-4);
  EXPECT_EQ(model.encoder().encoding(0), ColEncoding::kBinary);
  EXPECT_EQ(model.encoder().encoding(1), ColEncoding::kOneHot);
  // Binary input for domain 100 uses only ceil(log2(100)) = 7 dims.
  EXPECT_EQ(model.encoder().width(2), 7u);
}

TEST(Made, SaveLoadRoundTrip) {
  const std::vector<size_t> domains = {5, 30, 7};
  MadeModel a(domains, SmallConfig(31));
  MadeModel b(domains, SmallConfig(99));  // different init

  IntMatrix tuple(1, 3);
  tuple.At(0, 0) = 4;
  tuple.At(0, 1) = 21;
  tuple.At(0, 2) = 2;
  std::vector<double> lp_a;
  a.LogProbRows(tuple, &lp_a);

  const std::string path = testing::TempDir() + "/naru_made_test.bin";
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  std::vector<double> lp_b;
  b.LogProbRows(tuple, &lp_b);
  EXPECT_NEAR(lp_a[0], lp_b[0], 1e-6);
  std::remove(path.c_str());
}

TEST(ResMade, AutoregressivePropertyHolds) {
  // The residual identity path connects equal-degree units only, so the
  // masking invariant must survive verbatim.
  const std::vector<size_t> domains = {5, 3, 12, 4};
  MadeModel::Config cfg = SmallConfig(41);
  cfg.hidden_sizes = {24, 24, 24};
  cfg.residual = true;
  MadeModel model(domains, cfg);

  IntMatrix base(1, 4);
  base.At(0, 0) = 2;
  base.At(0, 1) = 1;
  base.At(0, 2) = 7;
  base.At(0, 3) = 3;
  for (size_t j = 0; j < domains.size(); ++j) {
    std::vector<Matrix> before(domains.size());
    for (size_t i = 0; i < domains.size(); ++i) {
      model.ConditionalDist(base, i, &before[i]);
    }
    IntMatrix mutated = base;
    mutated.At(0, j) = (base.At(0, j) + 1) % static_cast<int32_t>(domains[j]);
    for (size_t i = 0; i < domains.size(); ++i) {
      Matrix after;
      model.ConditionalDist(mutated, i, &after);
      if (i <= j) {
        for (size_t v = 0; v < domains[i]; ++v) {
          ASSERT_NEAR(before[i].At(0, v), after.At(0, v), 1e-6)
              << "resmade output " << i << " changed with column " << j;
        }
      }
    }
  }
}

TEST(ResMade, GradientMatchesFiniteDifference) {
  const std::vector<size_t> domains = {3, 14, 4};
  MadeModel::Config cfg = SmallConfig(43);
  cfg.hidden_sizes = {12, 12};
  cfg.residual = true;
  MadeModel model(domains, cfg);

  IntMatrix batch(3, 3);
  Rng rng(47);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      batch.At(r, c) = static_cast<int32_t>(rng.UniformInt(domains[c]));
    }
  }
  auto params = model.Parameters();
  for (auto* p : params) p->ZeroGrad();
  model.ForwardBackward(batch);

  auto mean_nll = [&]() {
    std::vector<double> lp;
    model.LogProbRows(batch, &lp);
    double total = 0;
    for (double v : lp) total -= v;
    return total / static_cast<double>(batch.rows());
  };
  const double eps = 1e-2;
  size_t checked = 0;
  for (Parameter* p : params) {
    for (size_t i = 0; i < p->count();
         i += std::max<size_t>(p->count() / 5, 1)) {
      const float orig = p->value.data()[i];
      if (orig == 0.0f && p->grad.data()[i] == 0.0f) continue;
      p->value.data()[i] = orig + static_cast<float>(eps);
      const double up = mean_nll();
      p->value.data()[i] = orig - static_cast<float>(eps);
      const double down = mean_nll();
      p->value.data()[i] = orig;
      EXPECT_NEAR(p->grad.data()[i], (up - down) / (2 * eps), 5e-2)
          << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(ResMade, TrainsAtLeastAsWellAsPlain) {
  // On a correlated table, ResMADE with the same layer sizes should reach
  // a comparable (typically better) NLL after the same few epochs.
  Table t = MakeRandomTable(1200, {8, 8, 8}, 53, /*skew=*/1.1);
  const std::vector<size_t> domains = {t.column(0).DomainSize(),
                                       t.column(1).DomainSize(),
                                       t.column(2).DomainSize()};
  MadeModel::Config plain_cfg = SmallConfig(59);
  plain_cfg.hidden_sizes = {48, 48, 48};
  MadeModel::Config res_cfg = plain_cfg;
  res_cfg.residual = true;

  TrainerConfig tcfg;
  tcfg.epochs = 12;
  tcfg.batch_size = 128;
  tcfg.lr = 5e-3;

  MadeModel plain(domains, plain_cfg);
  MadeModel res(domains, res_cfg);
  const double nll_plain = Trainer(&plain, tcfg).Train(t).back();
  const double nll_res = Trainer(&res, tcfg).Train(t).back();
  EXPECT_LT(nll_res, nll_plain + 0.5);  // never dramatically worse
}

TEST(ResMade, SkipRequiresEqualWidths) {
  // Mixed widths: skips must silently apply only between equal-width
  // layers, and the model must still produce normalized conditionals.
  MadeModel::Config cfg = SmallConfig(61);
  cfg.hidden_sizes = {16, 32, 32, 16};
  cfg.residual = true;
  MadeModel model({4, 9, 5}, cfg);
  IntMatrix batch(2, 3);
  batch.Fill(1);
  Matrix probs;
  model.ConditionalDist(batch, 2, &probs);
  double sum = 0;
  for (size_t v = 0; v < 5; ++v) sum += probs.At(0, v);
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Made, SingleColumnDegenerate) {
  // n = 1: the model reduces to a learned marginal.
  MadeModel model({6}, SmallConfig(37));
  IntMatrix batch(2, 1);
  Matrix probs;
  model.ConditionalDist(batch, 0, &probs);
  double sum = 0;
  for (size_t v = 0; v < 6; ++v) sum += probs.At(0, v);
  EXPECT_NEAR(sum, 1.0, 1e-5);
  // And the conditional ignores the (non-existent) prefix: both rows equal.
  for (size_t v = 0; v < 6; ++v) {
    EXPECT_FLOAT_EQ(probs.At(0, v), probs.At(1, v));
  }
}

// --- Incremental sessions vs the full recompute -------------------------

// Forces a dispatch level for the enclosing scope (restores probing on
// destruction), so the portable fallback runs on AVX2 hosts too.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    SetSimdLevelOverrideForTest(level);
  }
  ~ScopedSimdLevel() { ClearSimdLevelOverrideForTest(); }
};

IntMatrix RandomCodes(const std::vector<size_t>& domains, size_t rows,
                      Rng* rng) {
  IntMatrix codes(rows, domains.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < domains.size(); ++c) {
      codes.At(r, c) = static_cast<int32_t>(rng->UniformInt(domains[c]));
    }
  }
  return codes;
}

// Rows of `src` in the order `order` (indices may repeat or be dropped).
IntMatrix PickRows(const IntMatrix& src, const std::vector<size_t>& order) {
  IntMatrix out(order.size(), src.cols());
  for (size_t r = 0; r < order.size(); ++r) {
    std::memcpy(out.Row(r), src.Row(order[r]), src.cols() * sizeof(int32_t));
  }
  return out;
}

// Relayouts a walk between steps the way the plan executor and the
// sampler can: drop a block (retire), append a copy of a block (fork),
// reverse the rows, or change one row's prefix (forces a cache miss).
IntMatrix Relayout(const IntMatrix& samples, size_t step, size_t col,
                   const std::vector<size_t>& domains) {
  const size_t rows = samples.rows();
  std::vector<size_t> order;
  switch (step % 5) {
    case 1:  // retire rows [2, 5)
      for (size_t r = 0; r < rows; ++r) {
        if (r < 2 || r >= 5) order.push_back(r);
      }
      return PickRows(samples, order);
    case 2:  // fork rows [0, 4) into a new block
      for (size_t r = 0; r < rows; ++r) order.push_back(r);
      for (size_t r = 0; r < std::min<size_t>(4, rows); ++r) {
        order.push_back(r);
      }
      return PickRows(samples, order);
    case 3:  // reverse
      for (size_t r = rows; r-- > 0;) order.push_back(r);
      return PickRows(samples, order);
    case 4: {  // change one row's prefix
      IntMatrix out = samples;
      if (col > 0 && rows > 1) {
        out.At(1, 0) = (out.At(1, 0) + 1) % static_cast<int32_t>(domains[0]);
      }
      return out;
    }
    default:
      return samples;
  }
}

void ExpectSameBits(const Matrix& got, const Matrix& want,
                    const std::string& where) {
  ASSERT_EQ(got.rows(), want.rows()) << where;
  ASSERT_EQ(got.cols(), want.cols()) << where;
  for (size_t r = 0; r < got.rows(); ++r) {
    ASSERT_EQ(std::memcmp(got.Row(r), want.Row(r), got.cols() * sizeof(float)),
              0)
        << where << " row " << r;
  }
}

// Walks one session over every column (twice: a session is reused for a
// new walk) with relayouts between steps; every Dist must equal the full
// recompute bit for bit. Codes of columns >= col are random garbage, which
// both paths must ignore.
void ExpectSessionMatchesRecompute(MadeModel* model, uint64_t seed,
                                   const std::string& label,
                                   size_t rows = 12) {
  const size_t n = model->num_columns();
  std::vector<size_t> domains;
  for (size_t c = 0; c < n; ++c) domains.push_back(model->DomainSize(c));
  Rng rng(seed);
  auto session = model->StartSession(rows);
  MadeModel::EvalContext ref_ctx;
  Matrix got, want;
  size_t step = 0;
  for (int walk = 0; walk < 2; ++walk) {
    IntMatrix samples = RandomCodes(domains, rows, &rng);
    for (size_t col = 0; col < n; ++col) {
      const std::string where = label + " walk " + std::to_string(walk) +
                                " col " + std::to_string(col);
      session->Dist(samples, col, &got);
      model->ConditionalDistWith(&ref_ctx, samples, col, &want);
      ExpectSameBits(got, want, where);
      // Asking again for the same column must hit the cache unchanged.
      session->Dist(samples, col, &got);
      ExpectSameBits(got, want, where + " (repeat)");
      for (size_t r = 0; r < samples.rows(); ++r) {
        samples.At(r, col) = static_cast<int32_t>(rng.UniformInt(domains[col]));
      }
      samples = Relayout(samples, ++step, col, domains);
    }
  }
}

struct SessionCase {
  std::string name;
  std::vector<size_t> domains;
  MadeModel::Config cfg;
  size_t rows = 12;  // walk width
};

std::vector<SessionCase> SessionCases() {
  std::vector<SessionCase> cases;
  // DMV-shaped: mostly one-hot columns (kOneHot input hint) plus
  // embedding-encoded, embedding-reuse heads.
  MadeModel::Config dmv;
  dmv.hidden_sizes = {32, 32, 32, 32};
  dmv.encoder.onehot_threshold = 16;
  dmv.encoder.embed_dim = 8;
  dmv.seed = 3;
  cases.push_back({"dmv", {3, 40, 5, 7, 60, 4, 2, 9}, dmv});
  // 13 rows: the first steps already run the MR=1 remainder rows.
  cases.push_back({"dmv_13_rows", {3, 40, 5, 7, 60, 4, 2, 9}, dmv, 13});
  // Unequal widths: every layer's panels read a different index list.
  MadeModel::Config uneven = dmv;
  uneven.hidden_sizes = {48, 24, 40};
  uneven.seed = 4;
  cases.push_back({"unequal_widths", {3, 40, 5, 7, 60, 4, 2, 9}, uneven});
  MadeModel::Config res = SmallConfig(5);
  res.hidden_sizes = {24, 24, 24};
  res.residual = true;
  cases.push_back({"resmade", {5, 3, 12, 4, 6}, res});
  // Width 4 < n-1 = 7 leaves degrees 4..6 empty; width 10 gives uneven
  // panels (2 units for degrees 0..2, 1 for the rest).
  MadeModel::Config narrow = SmallConfig(7);
  narrow.hidden_sizes = {4, 10};
  cases.push_back({"narrow", {3, 4, 5, 6, 3, 4, 5, 6}, narrow});
  cases.push_back({"two_columns", {5, 9}, SmallConfig(9)});
  cases.push_back({"one_column", {6}, SmallConfig(11)});
  MadeModel::Config linear = SmallConfig(13);
  linear.hidden_sizes = {};
  cases.push_back({"linear", {4, 12, 3}, linear});
  return cases;
}

TEST(MadeSession, BitIdenticalToFullRecompute) {
  uint64_t seed = 100;
  for (const SessionCase& sc : SessionCases()) {
    MadeModel model(sc.domains, sc.cfg);
    for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
      model.SetInferenceKernel(kernel);
      ExpectSessionMatchesRecompute(
          &model, ++seed, sc.name + " " + KernelKindName(kernel), sc.rows);
    }
    {
      ScopedSimdLevel portable(SimdLevel::kNone);
      ExpectSessionMatchesRecompute(&model, ++seed, sc.name + " portable",
                                    sc.rows);
    }
  }
}

TEST(MadeSession, FreshSessionSeesLoadedWeights) {
  const std::vector<size_t> domains = {5, 30, 7, 4};
  MadeModel a(domains, SmallConfig(31));
  MadeModel b(domains, SmallConfig(99));  // different init
  ExpectSessionMatchesRecompute(&b, 1, "before load");  // builds panels

  const std::string path = testing::TempDir() + "/naru_made_session.bin";
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  std::remove(path.c_str());
  ExpectSessionMatchesRecompute(&b, 2, "after load");
}

TEST(MadeSession, FreshSessionSeesTrainedWeights) {
  const std::vector<size_t> domains = {5, 30, 7, 4};
  MadeModel::Config cfg = SmallConfig(17);
  cfg.residual = true;
  MadeModel model(domains, cfg);
  Adam adam(model.Parameters(), AdamOptions{});
  ExpectSessionMatchesRecompute(&model, 3, "before step");  // builds panels

  Rng rng(19);
  const IntMatrix batch = RandomCodes(domains, 16, &rng);
  model.ForwardBackward(batch);
  adam.Step();
  ExpectSessionMatchesRecompute(&model, 4, "after step");
}

// One deterministic sampled walk through a fresh session; returns every
// conditional it saw.
std::vector<float> SampledWalk(MadeModel* model, uint64_t seed) {
  const size_t n = model->num_columns();
  const size_t rows = 24;
  Rng rng(seed);
  IntMatrix samples(rows, n);
  auto session = model->StartSession(rows);
  Matrix probs;
  std::vector<float> seen;
  for (size_t col = 0; col < n; ++col) {
    session->Dist(samples, col, &probs);
    for (size_t r = 0; r < rows; ++r) {
      seen.insert(seen.end(), probs.Row(r), probs.Row(r) + probs.cols());
      samples.At(r, col) =
          static_cast<int32_t>(rng.Categorical(probs.Row(r), probs.cols()));
    }
  }
  return seen;
}

// Sessions started and walked from several threads at once share one
// model's weight panels; each walk must equal its single-threaded twin.
// Parameters() drops the panels first, so the threads also race to
// rebuild them (TSan/ASan legs cover building and reading).
TEST(MadeSession, ConcurrentSessionsMatchSequential) {
  MadeModel::Config cfg = SmallConfig(23);
  cfg.hidden_sizes = {32, 32, 32};
  MadeModel model({6, 20, 4, 9, 5}, cfg);
  model.SetInferenceKernel(KernelKind::kSimd);
  constexpr size_t kThreads = 4;
  constexpr size_t kWalks = 3;
  std::vector<std::vector<float>> want;
  for (size_t i = 0; i < kThreads * kWalks; ++i) {
    want.push_back(SampledWalk(&model, 500 + i));
  }

  (void)model.Parameters();
  std::vector<std::vector<float>> got(kThreads * kWalks);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t w = 0; w < kWalks; ++w) {
        const size_t i = t * kWalks + w;
        got[i] = SampledWalk(&model, 500 + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "walk " << i;
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          want[i].size() * sizeof(float)),
              0)
        << "walk " << i;
  }
}

}  // namespace
}  // namespace naru
