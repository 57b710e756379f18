// Tests for the sampling-plan layer (src/plan): plan compilation (prefix
// tries with multi-depth forking, constrained-prefix sharing, width
// capping) and plan execution (shared segment walks,
// forked suffix walks, stacked GEMMs). The oracle throughout is
// bit-identity with the sequential ProgressiveSampler for a fixed seed —
// across shard sizes, tree shapes, kernels, and thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/made.h"
#include "core/oracle_model.h"
#include "core/percolumn.h"
#include "core/trainer.h"
#include "core/transformer.h"
#include "data/datasets.h"
#include "estimator/bayesnet.h"
#include "plan/plan_executor.h"
#include "plan/sampling_plan.h"
#include "query/executor.h"
#include "query/workload.h"
#include "tensor/kernel.h"

namespace naru {
namespace {

Table PlanTable(uint64_t seed) {
  return MakeRandomTable(700, {6, 5, 8, 4, 7, 5}, seed, /*skew=*/1.0);
}

std::unique_ptr<MadeModel> PlanModel(const Table& table, uint64_t seed) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.encoder.onehot_threshold = 16;
  cfg.seed = seed;
  auto model = std::make_unique<MadeModel>(
      std::vector<size_t>{6, 5, 8, 4, 7, 5}, cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 128;
  Trainer(model.get(), tcfg).Train(table);
  return model;
}

/// A query constraining exactly the given columns (interval [1, 2]).
Query QueryOn(const Table& table, const std::vector<size_t>& cols) {
  std::vector<ValueSet> regions;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    regions.push_back(ValueSet::All(table.column(c).DomainSize()));
  }
  for (size_t c : cols) {
    regions[c] = ValueSet::Interval(table.column(c).DomainSize(), 1, 2);
  }
  return Query(regions);
}

/// Mixed-leading-wildcard batch: a randomized workload where roughly half
/// the queries keep a leading run of `wildcards` unconstrained columns.
std::vector<Query> MixedRunBatch(const Table& table, size_t num,
                                 size_t wildcards, uint64_t seed) {
  WorkloadConfig wcfg;
  wcfg.num_queries = num;
  wcfg.min_filters = 1;
  wcfg.max_filters = 4;
  wcfg.leading_wildcards = wildcards;
  wcfg.leading_wildcard_fraction = 0.5;
  wcfg.seed = seed;
  std::vector<Query> out;
  // Keep only sampled-path queries (>= 2 constrained columns or a
  // constrained non-leading column): the plan layer only ever sees those.
  for (Query& q : GenerateWorkload(table, wcfg)) {
    if (q.LastFilteredColumn() >= 1 && !q.HasEmptyRegion()) {
      out.push_back(std::move(q));
    }
  }
  return out;
}

TEST(Query, WildcardMaskAndLeadingRun) {
  Table t = PlanTable(3);
  const Query q = QueryOn(t, {2, 4});
  const auto& mask = q.wildcard_mask();
  ASSERT_EQ(mask.size(), t.num_columns());
  for (size_t c = 0; c < mask.size(); ++c) {
    EXPECT_EQ(mask[c] != 0, c != 2 && c != 4) << "col " << c;
  }
  EXPECT_EQ(q.LeadingWildcardRun(), 2u);
  EXPECT_EQ(q.LastFilteredColumn(), 4);
  EXPECT_EQ(q.NumFilteredColumns(), 2u);
  EXPECT_EQ(QueryOn(t, {0}).LeadingWildcardRun(), 0u);
  EXPECT_EQ(Query(std::vector<ValueSet>{ValueSet::All(4), ValueSet::All(3)})
                .LeadingWildcardRun(),
            2u);
}

// Hand-checked trie construction: multi-depth forking plus constrained-
// prefix sharing. Queries (constrained columns, Interval [1,2] each):
//   q0 {3,4}  q1 {3,5}  q2 {0,2}  q3 {2,3}  q4 {2,5}
// Descriptor walk: q2 constrains column 0, everyone else is wildcard
// there, so the root is a pure fork ([0,0)). q0/q1/q3/q4 share [0,2)
// (all wildcard); at column 2 the pair q3/q4 carries an IDENTICAL
// constrained region (shared constrained prefix) while q0/q1 are
// wildcard. q0/q1 then share [2,4) — column 3 constrained the same way —
// and fork at column 4. Savings, per shard:
//   [0,2)·(4-1) = 6,  [2,4)·(2-1) = 2,  q3/q4 [2,3)·(2-1) = 1   → 9
TEST(SamplingPlan, TrieSharesMultiDepthAndConstrainedPrefixes) {
  Table t = PlanTable(5);
  auto model = PlanModel(t, 5);
  const std::vector<Query> queries = {
      QueryOn(t, {3, 4}), QueryOn(t, {3, 5}), QueryOn(t, {0, 2}),
      QueryOn(t, {2, 3}), QueryOn(t, {2, 5})};
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs);
  ASSERT_EQ(plan.trees.size(), 1u);  // everything under the default cap
  const PlanTree& tree = plan.trees[0];
  EXPECT_EQ(tree.members.size(), 5u);
  EXPECT_EQ(plan.queries[0].last_col, 4);
  EXPECT_EQ(plan.WalkColumns(), 24u);    // 5 + 6 + 3 + 4 + 6
  EXPECT_EQ(plan.SharedColumns(), 9u);   // hand-checked above
  EXPECT_EQ(plan.MaxForkDepth(), 3u);  // root -> [0,2) -> [2,4) -> leaves
  EXPECT_EQ(plan.MaxFanout(), 2u);

  // Structural invariants: children partition their parent's survivors,
  // terminals finish exactly at their node's end.
  std::set<size_t> seen;
  for (const PlanTreeNode& node : tree.nodes) {
    EXPECT_LE(node.begin, node.end);
    for (size_t m : node.terminals) {
      EXPECT_EQ(static_cast<size_t>(plan.queries[m].last_col) + 1, node.end);
      EXPECT_TRUE(seen.insert(m).second);  // each query finishes once
    }
    for (size_t c : node.children) {
      EXPECT_EQ(tree.nodes[c].begin, node.end);
    }
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(SamplingPlan, TreeModeWidthCapSplitsAtForkPoints) {
  Table t = PlanTable(7);
  auto model = PlanModel(t, 7);
  // 10 queries, all sharing the constrained column 2; sub-shapes {2,3},
  // {2,4}, {2,5} repeat, so the trie below the shared segment has three
  // natural fork groups of sizes 4 / 3 / 3.
  std::vector<Query> queries;
  for (size_t i = 0; i < 10; ++i) queries.push_back(QueryOn(t, {2, 3 + i % 3}));
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  SamplingPlanOptions opts;
  opts.max_group_width = 4;
  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs, opts);
  size_t grouped = 0;
  for (const auto& tree : plan.trees) {
    EXPECT_LE(tree.members.size(), 4u);
    grouped += tree.members.size();
    // Identical queries collapse into shared terminals, so even the split
    // trees keep whole-walk sharing: every multi-member tree here fuses
    // identical queries over their full walk.
    if (tree.members.size() > 1) {
      EXPECT_GT(plan.SharedColumns(), 0u);
    }
  }
  EXPECT_EQ(grouped, 10u);
  EXPECT_EQ(plan.trees.size(), 3u);  // the natural 4/3/3 fork groups
}

TEST(SamplingPlan, AutoGroupWidthScalesWithKernelAndModelWidth) {
  // Fixed points of the heuristic, locked so serving behavior is explicit:
  // unknown width falls back to the PR 3 cap; SIMD kernels stack more rows
  // than scalar; wider models stack fewer; everything lands in [4, 64].
  EXPECT_EQ(AutoGroupWidth(0, KernelKind::kSimd, 128), 32u);
  EXPECT_GT(AutoGroupWidth(128, KernelKind::kSimd, 128),
            AutoGroupWidth(128, KernelKind::kScalar, 128));
  EXPECT_LE(AutoGroupWidth(1024, KernelKind::kSimd, 128),
            AutoGroupWidth(128, KernelKind::kSimd, 128));
  for (const KernelKind k : {KernelKind::kScalar, KernelKind::kSimd}) {
    for (const size_t hint : {size_t{0}, size_t{24}, size_t{256},
                              size_t{4096}}) {
      const size_t w = AutoGroupWidth(hint, k, 128);
      EXPECT_GE(w, 4u) << "hint " << hint;
      EXPECT_LE(w, 64u) << "hint " << hint;
    }
  }
}

TEST(SamplingPlan, MixedBudgetsNeverFuse) {
  Table t = PlanTable(19);
  auto model = PlanModel(t, 19);
  // Six queries that would all share a wildcard prefix — but three carry a
  // different per-request sample budget, so the compiler must partition
  // them into budget classes before any tree is built.
  std::vector<Query> queries;
  for (size_t i = 0; i < 6; ++i) queries.push_back(QueryOn(t, {2, 3 + i % 2}));
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  SamplingPlanOptions opts;
  opts.budgets = {100, 400, 100, 400, 100, 400};
  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs, opts);
  size_t members = 0;
  for (const PlanTree& tree : plan.trees) {
    ASSERT_FALSE(tree.members.empty());
    // Every member of a tree shares the tree's budget.
    for (size_t m : tree.members) {
      EXPECT_EQ(plan.queries[m].num_samples, tree.num_samples);
    }
    EXPECT_TRUE(tree.num_samples == 100 || tree.num_samples == 400);
    members += tree.members.size();
  }
  EXPECT_EQ(members, 6u);
  // Both budget classes share within themselves (3 queries each, common
  // prefix) but the plan never fuses across classes.
  EXPECT_GT(plan.SharedColumns(), 0u);
}

TEST(MadeModel, StackedRowsEvaluateBitIdentically) {
  Table t = PlanTable(9);
  auto model = PlanModel(t, 9);
  const size_t n = model->num_columns();

  // Two unrelated walk states...
  IntMatrix a(3, n), b(5, n);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < n; ++c) {
      a.At(r, c) = static_cast<int32_t>((r + c) % model->DomainSize(c));
    }
  }
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < n; ++c) {
      b.At(r, c) = static_cast<int32_t>((2 * r + c) % model->DomainSize(c));
    }
  }
  // ...stacked into one matrix.
  IntMatrix stacked(8, n);
  for (size_t r = 0; r < 3; ++r) {
    std::memcpy(stacked.Row(r), a.Row(r), n * sizeof(int32_t));
  }
  for (size_t r = 0; r < 5; ++r) {
    std::memcpy(stacked.Row(3 + r), b.Row(r), n * sizeof(int32_t));
  }

  for (size_t col : {size_t{1}, size_t{3}, n - 1}) {
    MadeModel::EvalContext ctx_a, ctx_b, ctx_s;
    Matrix pa, pb, ps;
    model->ConditionalDistWith(&ctx_a, a, col, &pa);
    model->ConditionalDistWith(&ctx_b, b, col, &pb);
    model->ConditionalDistWith(&ctx_s, stacked, col, &ps);
    ASSERT_EQ(ps.rows(), 8u);
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(std::memcmp(ps.Row(r), pa.Row(r),
                            ps.cols() * sizeof(float)),
                0)
          << "col " << col << " row " << r;
    }
    for (size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(std::memcmp(ps.Row(3 + r), pb.Row(r),
                            ps.cols() * sizeof(float)),
                0)
          << "col " << col << " row " << r;
    }
  }
}

// The heart of the refactor: for randomized batches with mixed
// leading-wildcard runs AND shared constrained prefixes, planned execution
// is bit-identical to the sequential per-query sampler — across shard
// sizes, tree shapes (the width cap changes fork depths and
// fanouts), and thread counts (estimates AND standard errors).
TEST(PlanExecutor, BitIdenticalToSequentialSampler) {
  Table t = PlanTable(11);
  auto model = PlanModel(t, 11);
  std::vector<Query> queries = MixedRunBatch(t, 24, 3, 131);
  // Shared-constrained-prefix pairs: identical leading equality literals,
  // diverging suffixes (constrained-prefix sharing).
  queries.push_back(QueryOn(t, {0, 1, 3}));
  queries.push_back(QueryOn(t, {0, 1, 4}));
  queries.push_back(QueryOn(t, {0, 1, 5}));
  ASSERT_GE(queries.size(), 8u);
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  for (const size_t shard_size : {size_t{32}, size_t{128}}) {
    // Sequential reference at this shard size.
    ProgressiveSamplerConfig scfg;
    scfg.num_samples = 300;
    scfg.shard_size = shard_size;
    scfg.seed = 17;
    ProgressiveSampler sampler(model.get(), scfg);
    std::vector<double> want, want_se;
    for (const auto& q : queries) {
      double se = 0;
      want.push_back(sampler.EstimateWithStdError(q, &se));
      want_se.push_back(se);
    }

    for (const size_t group_width : {size_t{1}, size_t{3}, size_t{32}}) {
      SamplingPlanOptions popts;
      popts.max_group_width = group_width;
      const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs, popts);
      for (const size_t parallelism : {size_t{1}, size_t{0}}) {
        PlanExecutionOptions opts;
        opts.num_samples = 300;
        opts.shard_size = shard_size;
        opts.seed = 17;
        opts.parallelism = parallelism;
        std::vector<double> got, got_se;
        ExecuteSamplingPlan(model.get(), plan, opts, &got, &got_se);
        ASSERT_EQ(got.size(), queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(got[i], want[i])
              << "shard " << shard_size << " width " << group_width
              << " parallelism " << parallelism << " query " << i;
          EXPECT_EQ(got_se[i], want_se[i]) << "stderr, query " << i;
        }
      }
    }
  }
}

// Same oracle across the inference kernels: each kernel changes the
// numbers, but within a kernel the tree walk must match the sequential
// walk bit for bit.
TEST(PlanExecutor, BitIdenticalToSequentialAcrossKernels) {
  Table t = PlanTable(23);
  auto model = PlanModel(t, 23);
  std::vector<Query> queries = MixedRunBatch(t, 12, 2, 137);
  queries.push_back(QueryOn(t, {0, 1, 3}));
  queries.push_back(QueryOn(t, {0, 1, 5}));
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    model->SetInferenceKernel(kernel);

    ProgressiveSamplerConfig scfg;
    scfg.num_samples = 200;
    scfg.shard_size = 64;
    scfg.seed = 29;
    ProgressiveSampler sampler(model.get(), scfg);
    std::vector<double> want;
    for (const auto& q : queries) {
      want.push_back(sampler.EstimateSelectivity(q));
    }

    const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs);
    for (const size_t parallelism : {size_t{1}, size_t{0}}) {
      PlanExecutionOptions opts;
      opts.num_samples = 200;
      opts.shard_size = 64;
      opts.seed = 29;
      opts.parallelism = parallelism;
      std::vector<double> got;
      ExecuteSamplingPlan(model.get(), plan, opts, &got);
      EXPECT_EQ(got, want) << "kernel " << KernelKindName(kernel)
                           << " parallelism " << parallelism;
    }
  }
  model->SetInferenceKernel(KernelKind::kScalar);
}

// Tree execution over the transformer's sessions is bit-identical to its
// sequential walk.
TEST(PlanExecutor, TransformerPlannedBitIdenticalToSequential) {
  Table t = MakeRandomTable(400, {6, 5, 8, 4}, 31, /*skew=*/1.0);
  TransformerModel::Config tcfg;
  tcfg.d_model = 16;
  tcfg.num_heads = 2;
  tcfg.num_layers = 1;
  tcfg.ffn_hidden = 32;
  tcfg.seed = 31;
  auto model = std::make_unique<TransformerModel>(
      std::vector<size_t>{6, 5, 8, 4}, tcfg);
  TrainerConfig trcfg;
  trcfg.epochs = 1;
  trcfg.batch_size = 128;
  Trainer(model.get(), trcfg).Train(t);
  ASSERT_GT(model->StackedWidthHint(), 0u);

  std::vector<Query> queries = {QueryOn(t, {2, 3}), QueryOn(t, {2}),
                                QueryOn(t, {0, 1, 2}), QueryOn(t, {0, 1, 3}),
                                QueryOn(t, {1, 3})};
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  ProgressiveSamplerConfig scfg;
  scfg.num_samples = 128;
  scfg.shard_size = 64;
  scfg.seed = 41;
  ProgressiveSampler sampler(model.get(), scfg);
  std::vector<double> want, want_se;
  for (const auto& q : queries) {
    double se = 0;
    want.push_back(sampler.EstimateWithStdError(q, &se));
    want_se.push_back(se);
  }

  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs);
  EXPECT_GT(plan.SharedColumns(), 0u);
  for (const size_t parallelism : {size_t{1}, size_t{0}}) {
    PlanExecutionOptions opts;
    opts.num_samples = 128;
    opts.shard_size = 64;
    opts.seed = 41;
    opts.parallelism = parallelism;
    std::vector<double> got, got_se;
    ExecuteSamplingPlan(model.get(), plan, opts, &got, &got_se);
    ASSERT_EQ(got.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "parallelism " << parallelism
                                 << " query " << i;
      EXPECT_EQ(got_se[i], want_se[i]) << "stderr, query " << i;
    }
  }
}

TEST(PlanExecutor, PrefixShareSavesModelColumnCalls) {
  // Two queries sharing a 2-column wildcard prefix, via a call-counting
  // model: the planned walk must evaluate the prefix columns once per
  // shard, not once per (query, shard).
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
  Query qa({ValueSet::All(3), ValueSet::All(3), ValueSet::Interval(3, 0, 1),
            ValueSet::All(3)});
  Query qb({ValueSet::All(3), ValueSet::All(3), ValueSet::All(3),
            ValueSet::Interval(3, 1, 2)});
  const SamplingPlan plan =
      CompileSamplingPlan(&model, {&qa, &qb});
  ASSERT_EQ(plan.trees.size(), 1u);
  // Shared root walks the 2-column wildcard prefix once for both members.
  EXPECT_EQ(plan.trees[0].nodes[0].begin, 0u);
  EXPECT_EQ(plan.trees[0].nodes[0].end, 2u);
  EXPECT_EQ(plan.SharedColumns(), 2u);

  PlanExecutionOptions opts;
  opts.num_samples = 64;
  opts.shard_size = 64;  // one shard
  std::vector<double> got;
  ExecuteSamplingPlan(&model, plan, opts, &got);
  // Sequential would walk qa over cols 0..2 and qb over 0..3 = 7 calls;
  // the plan shares cols 0-1 and stacks the rest: 2 (prefix) + 1 (col 2,
  // stacked) + 1 (col 3, qb alone) = 4.
  EXPECT_EQ(model.calls, 4);
  // float32 conditionals: 1/3f + 1/3f carries ~1e-8 rounding.
  EXPECT_NEAR(got[0], 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(got[1], 2.0 / 3.0, 1e-6);
}

// Every session is pure, so the plan serves the models whose sessions are
// not MADE's: the Oracle (prefix-keyed row-list cache), the per-column
// network and the Bayes net (the stateless default session). Planned
// estimates and standard errors must match the sequential sampler bit for
// bit across tree widths, shard sizes and thread counts.
TEST(PlanExecutor, BitIdenticalToSequentialForEveryModelFamily) {
  Table t = PlanTable(13);
  const std::vector<size_t> domains = {6, 5, 8, 4, 7, 5};
  OracleModel oracle(&t);
  OracleModel smoothed(&t, 0.2);
  PerColumnModel::Config pcfg;
  pcfg.hidden_sizes = {16, 16};
  pcfg.encoder.onehot_threshold = 16;
  pcfg.seed = 13;
  PerColumnModel percolumn(domains, pcfg);
  BayesNet bayesnet(t);
  const std::vector<std::pair<std::string, ConditionalModel*>> models = {
      {"oracle", &oracle},
      {"oracle-smoothed", &smoothed},
      {"percolumn", &percolumn},
      {"bayesnet", &bayesnet}};

  std::vector<Query> queries = MixedRunBatch(t, 16, 2, 139);
  queries.push_back(QueryOn(t, {0, 1, 3}));
  queries.push_back(QueryOn(t, {0, 1, 5}));
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  for (const auto& [name, model] : models) {
    for (const size_t shard_size : {size_t{32}, size_t{128}}) {
      ProgressiveSamplerConfig scfg;
      scfg.num_samples = 160;
      scfg.shard_size = shard_size;
      scfg.seed = 43;
      ProgressiveSampler sampler(model, scfg);
      std::vector<double> want, want_se;
      for (const auto& q : queries) {
        double se = 0;
        want.push_back(sampler.EstimateWithStdError(q, &se));
        want_se.push_back(se);
      }
      for (const size_t group_width : {size_t{1}, size_t{4}, size_t{32}}) {
        SamplingPlanOptions popts;
        popts.max_group_width = group_width;
        const SamplingPlan plan = CompileSamplingPlan(model, ptrs, popts);
        for (const size_t parallelism : {size_t{1}, size_t{0}}) {
          PlanExecutionOptions opts;
          opts.num_samples = 160;
          opts.shard_size = shard_size;
          opts.seed = 43;
          opts.parallelism = parallelism;
          std::vector<double> got, got_se;
          ExecuteSamplingPlan(model, plan, opts, &got, &got_se);
          ASSERT_EQ(got.size(), queries.size());
          for (size_t i = 0; i < queries.size(); ++i) {
            EXPECT_EQ(got[i], want[i])
                << name << " shard " << shard_size << " width "
                << group_width << " parallelism " << parallelism
                << " query " << i;
            EXPECT_EQ(got_se[i], want_se[i]) << name << " stderr, query "
                                             << i;
          }
        }
      }
    }
  }
}

// --- Statistical contract (Theorem 1) -----------------------------------

// The model's exact selectivity of `q`: the sum of P̂(x) over the region's
// cross product, one LogProbRows pass.
double ExactModelSelectivity(ConditionalModel* model, const Query& q) {
  const size_t n = model->num_columns();
  size_t total = 1;
  for (size_t c = 0; c < n; ++c) total *= q.region(c).Count();
  IntMatrix tuples(total, n);
  for (size_t i = 0; i < total; ++i) {
    size_t rest = i;
    for (size_t c = n; c-- > 0;) {
      const size_t count = q.region(c).Count();
      tuples.At(i, c) = q.region(c).NthCode(rest % count);
      rest /= count;
    }
  }
  std::vector<double> log_probs;
  model->LogProbRows(tuples, &log_probs);
  double sum = 0;
  for (double lp : log_probs) sum += std::exp(lp);
  return sum;
}

// Checks one route's estimates of one query over the seed sweep: the mean
// lies within 4 standard errors of the exact value (unbiasedness), and the
// per-seed ±2·std_error intervals cover it at least 85% of the time.
void ExpectUnbiasedAndCalibrated(const std::vector<double>& est,
                                 const std::vector<double>& se, double exact,
                                 const std::string& where) {
  const double k = static_cast<double>(est.size());
  double mean = 0;
  for (double e : est) mean += e;
  mean /= k;
  double var = 0;
  for (double e : est) var += (e - mean) * (e - mean);
  const double se_of_mean = std::sqrt(var / (k - 1.0) / k);
  EXPECT_LE(std::fabs(mean - exact), 4.0 * se_of_mean)
      << where << ": mean " << mean << " exact " << exact;
  size_t covered = 0;
  for (size_t i = 0; i < est.size(); ++i) {
    if (std::fabs(est[i] - exact) <= 2.0 * se[i]) ++covered;
  }
  EXPECT_GE(static_cast<double>(covered), 0.85 * k)
      << where << ": " << covered << " of " << est.size() << " covered";
}

// Sequential and planned estimates of `model` over a 200-seed sweep, each
// query against its exact selectivity.
void ExpectStatisticalContract(ConditionalModel* model,
                               const std::vector<Query>& queries,
                               const std::vector<double>& exact) {
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);
  const SamplingPlan plan = CompileSamplingPlan(model, ptrs);

  constexpr size_t kSeeds = 200;
  constexpr size_t kSamples = 64;
  std::vector<std::vector<double>> seq(queries.size()), seq_se(queries.size());
  std::vector<std::vector<double>> planned(queries.size()),
      planned_se(queries.size());
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ProgressiveSamplerConfig scfg;
    scfg.num_samples = kSamples;
    scfg.seed = seed;
    scfg.parallelism = 1;
    ProgressiveSampler sampler(model, scfg);
    for (size_t i = 0; i < queries.size(); ++i) {
      double se = 0;
      seq[i].push_back(sampler.EstimateWithStdError(queries[i], &se));
      seq_se[i].push_back(se);
    }
    PlanExecutionOptions opts;
    opts.num_samples = kSamples;
    opts.seed = seed;
    opts.parallelism = 1;
    std::vector<double> got, got_se;
    ExecuteSamplingPlan(model, plan, opts, &got, &got_se);
    for (size_t i = 0; i < queries.size(); ++i) {
      planned[i].push_back(got[i]);
      planned_se[i].push_back(got_se[i]);
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string q = "query " + std::to_string(i);
    ExpectUnbiasedAndCalibrated(seq[i], seq_se[i], exact[i],
                                "sequential " + q);
    ExpectUnbiasedAndCalibrated(planned[i], planned_se[i], exact[i],
                                "planned " + q);
  }
}

std::vector<Query> ContractQueries(const Table& t) {
  return {QueryOn(t, {0, 2}), QueryOn(t, {1, 4}), QueryOn(t, {0, 1, 3, 5}),
          QueryOn(t, {2, 3, 4})};
}

// MADE on `kernel`, against the exact model selectivity on the scalar
// reference kernel: a kernel whose arithmetic biases the estimator (the
// simd kernel's polynomial exp, say) shows up as a mean drifting past
// 4·SE.
void ExpectMadeStatisticalContract(KernelKind kernel) {
  Table t = PlanTable(41);
  auto model = PlanModel(t, 41);
  const std::vector<Query> queries = ContractQueries(t);
  std::vector<double> exact;
  for (const auto& q : queries) {
    exact.push_back(ExactModelSelectivity(model.get(), q));
  }
  model->SetInferenceKernel(kernel);
  ExpectStatisticalContract(model.get(), queries, exact);
}

TEST(StatisticalContract, MadeEstimatesUnbiasedAndCalibrated) {
  ExpectMadeStatisticalContract(KernelKind::kScalar);
}

TEST(StatisticalContract, MadeSimdEstimatesUnbiasedAndCalibrated) {
  ExpectMadeStatisticalContract(KernelKind::kSimd);
}

// The unsmoothed Oracle's joint is the table's own distribution, so the
// exact value each route must be unbiased for is the true selectivity.
TEST(StatisticalContract, OracleEstimatesUnbiasedAndCalibrated) {
  Table t = PlanTable(41);
  OracleModel oracle(&t, /*smoothing_lambda=*/0.0);
  const std::vector<Query> queries = ContractQueries(t);
  std::vector<double> exact;
  for (const auto& q : queries) {
    exact.push_back(ExactModelSelectivity(&oracle, q));
    const double truth = static_cast<double>(ExecuteCount(t, q)) /
                         static_cast<double>(t.num_rows());
    EXPECT_NEAR(exact.back(), truth, 1e-6);
  }
  ExpectStatisticalContract(&oracle, queries, exact);
}

}  // namespace
}  // namespace naru
