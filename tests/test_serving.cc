// Tests for the batched serving path (src/serve): EstimateBatch must be a
// pure execution-strategy change — bit-identical to the sequential
// per-query path for a fixed seed, invariant to thread count and batch
// size, and free of cross-query state leaks through the shared workspace
// pool and caches.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/ensemble.h"
#include "core/enumerator.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "query/workload.h"
#include "serve/inference_engine.h"
#include "serve/lru_cache.h"
#include "serve/query_key.h"
#include "serve/request.h"
#include "util/env_config.h"

namespace naru {
namespace {

Table SmallTable(uint64_t seed) {
  return MakeRandomTable(600, {7, 5, 9, 4, 6}, seed, /*skew=*/1.0);
}

std::unique_ptr<MadeModel> SmallTrainedModel(const Table& table,
                                             uint64_t seed) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.encoder.onehot_threshold = 16;
  cfg.seed = seed;
  auto model = std::make_unique<MadeModel>(
      std::vector<size_t>{7, 5, 9, 4, 6}, cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 128;
  Trainer(model.get(), tcfg).Train(table);
  return model;
}

// Serves `queries` through the typed surface with default options and
// unwraps the estimates. Default options carry no deadline, so every
// result must be OK.
void ServeDefault(InferenceEngine* engine, NaruEstimator* est,
                  const std::vector<Query>& queries, std::vector<double>* out) {
  std::vector<EstimateRequest> requests(queries.begin(), queries.end());
  std::vector<EstimateResult> results;
  engine->EstimateBatch(est, requests, &results);
  out->clear();
  for (const EstimateResult& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    out->push_back(r.estimate);
  }
}

// ServeDefault over a mixed batch: ests[i] serves queries[i].
void ServeMixedDefault(InferenceEngine* engine,
                       const std::vector<NaruEstimator*>& ests,
                       const std::vector<Query>& queries,
                       std::vector<double>* out) {
  std::vector<EstimateRequest> requests(queries.begin(), queries.end());
  std::vector<EstimateResult> results;
  engine->EstimateMixedBatch(ests, requests, &results);
  out->clear();
  for (const EstimateResult& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    out->push_back(r.estimate);
  }
}

// A serving workload exercising every engine path: sampled walks,
// trailing-wildcard exits, leading-only marginals, empty regions and
// duplicates.
std::vector<Query> ServingQueries(const Table& table, uint64_t seed) {
  WorkloadConfig wcfg;
  wcfg.num_queries = 24;
  wcfg.min_filters = 1;
  wcfg.max_filters = 5;
  wcfg.seed = seed;
  std::vector<Query> queries = GenerateWorkload(table, wcfg);
  const size_t n = table.num_columns();
  std::vector<ValueSet> all;
  for (size_t c = 0; c < n; ++c) {
    all.push_back(ValueSet::All(table.column(c).DomainSize()));
  }
  queries.emplace_back(all);  // all wildcards
  auto lead = all;
  lead[0] = ValueSet::Interval(table.column(0).DomainSize(), 1, 3);
  queries.emplace_back(lead);  // single leading filter
  auto lead2 = all;
  lead2[0] = ValueSet::Interval(table.column(0).DomainSize(), 1, 3);
  queries.emplace_back(lead2);  // duplicate of the leading-only query
  auto empty = all;
  empty[2] = ValueSet::Empty(table.column(2).DomainSize());
  queries.emplace_back(empty);  // empty region
  queries.push_back(queries[0]);  // duplicate of a sampled query
  return queries;
}

TEST(QueryKey, DistinguishesRegionsExactly) {
  EXPECT_EQ(RegionKey(ValueSet::All(10)), RegionKey(ValueSet::All(12)));
  EXPECT_EQ(RegionKey(ValueSet::Interval(10, 2, 5)),
            RegionKey(ValueSet::Interval(10, 2, 5)));
  EXPECT_NE(RegionKey(ValueSet::Interval(10, 2, 5)),
            RegionKey(ValueSet::Interval(10, 2, 6)));
  EXPECT_NE(RegionKey(ValueSet::Set(10, {2, 3})),
            RegionKey(ValueSet::Set(10, {2, 4})));
  EXPECT_NE(RegionKey(ValueSet::Interval(10, 2, 3)),
            RegionKey(ValueSet::Set(10, {2, 3})));

  Query a({ValueSet::Interval(10, 2, 5), ValueSet::All(4)});
  Query b({ValueSet::Interval(10, 2, 5), ValueSet::All(4)});
  Query c({ValueSet::Interval(10, 2, 4), ValueSet::All(4)});
  EXPECT_EQ(QueryKey(a), QueryKey(b));
  EXPECT_NE(QueryKey(a), QueryKey(c));
}

TEST(InferenceEngine, BatchMatchesSequentialBitForBit) {
  Table table = SmallTable(3);
  auto model = SmallTrainedModel(table, 3);
  const auto queries = ServingQueries(table, 31);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 50;  // exercise the enumeration path too
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<double> sequential;
  for (const auto& q : queries) {
    sequential.push_back(est.EstimateSelectivity(q));
  }

  // Through an explicit engine...
  InferenceEngine engine(InferenceEngineConfig{.num_threads = 3});
  std::vector<double> batched;
  ServeDefault(&engine, &est, queries, &batched);
  ASSERT_EQ(batched.size(), sequential.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(batched[i], sequential[i]) << "query " << i;
  }

  // ...and through the estimator's own EstimateBatch override.
  std::vector<double> via_estimator;
  est.EstimateBatch(queries, &via_estimator);
  EXPECT_EQ(via_estimator, sequential);

  // The default Estimator::EstimateBatch loop agrees as well.
  std::vector<double> via_base;
  est.Estimator::EstimateBatch(queries, &via_base);
  EXPECT_EQ(via_base, sequential);
}

TEST(InferenceEngine, ThreadCountInvariance) {
  Table table = SmallTable(5);
  auto model = SmallTrainedModel(table, 5);
  const auto queries = ServingQueries(table, 57);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 300;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<std::vector<double>> results;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    InferenceEngine engine(InferenceEngineConfig{.num_threads = threads});
    std::vector<double> out;
    ServeDefault(&engine, &est, queries, &out);
    results.push_back(std::move(out));
  }
  for (size_t k = 1; k < results.size(); ++k) {
    EXPECT_EQ(results[k], results[0]) << "thread config " << k;
  }
}

TEST(InferenceEngine, WorkspaceReuseDoesNotLeakAcrossBatches) {
  Table table = SmallTable(7);
  auto model = SmallTrainedModel(table, 7);
  const auto queries = ServingQueries(table, 91);
  const std::vector<Query> batch_a(queries.begin(), queries.begin() + 10);
  const std::vector<Query> batch_b(queries.begin() + 10, queries.end());

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  // Caching off: a repeated batch must be recomputed through the reused
  // workspaces and still match a fresh estimator exactly.
  InferenceEngineConfig ecfg;
  ecfg.num_threads = 2;
  ecfg.enable_cache = false;
  InferenceEngine engine(ecfg);

  std::vector<double> first_a, b_out, second_a;
  ServeDefault(&engine, &est, batch_a, &first_a);
  ServeDefault(&engine, &est, batch_b, &b_out);
  ServeDefault(&engine, &est, batch_a, &second_a);
  EXPECT_EQ(second_a, first_a);

  NaruEstimator fresh(model.get(), ncfg, 0);
  std::vector<double> fresh_a;
  for (const auto& q : batch_a) fresh_a.push_back(fresh.EstimateSelectivity(q));
  EXPECT_EQ(second_a, fresh_a);

  // The pool recycles buffers instead of growing per batch: three batches
  // may never need more workspaces than the engine has runners.
  EXPECT_LE(engine.workspace_pool()->total_created(),
            engine.num_threads() + 1);
  EXPECT_EQ(engine.workspace_pool()->available(),
            engine.workspace_pool()->total_created());
}

TEST(InferenceEngine, CacheHitsAreExactAndCounted) {
  Table table = SmallTable(11);
  auto model = SmallTrainedModel(table, 11);
  const auto queries = ServingQueries(table, 13);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  InferenceEngine engine(InferenceEngineConfig{.num_threads = 1});
  std::vector<double> first, second;
  ServeDefault(&engine, &est, queries, &first);
  const auto cold = engine.stats();
  ServeDefault(&engine, &est, queries, &second);
  const auto warm = engine.stats();

  EXPECT_EQ(second, first);
  // In-batch duplicates are coalesced before dispatch, so the cold pass
  // computes each distinct query exactly once without touching the memo;
  // the workload's 29 queries contain 2 handcrafted duplicates.
  EXPECT_EQ(cold.memo_hits, 0u);
  EXPECT_LE(cold.sampled + cold.exact_shortcuts + cold.enumerated,
            queries.size() - 2);
  // The warm pass (coalesced again) memo-hits every distinct query the
  // cold pass computed, except the empty-region one, which short-circuits
  // before the cache is even consulted — on both passes.
  EXPECT_EQ(warm.memo_hits - cold.memo_hits,
            cold.sampled + cold.exact_shortcuts + cold.enumerated - 1);
  EXPECT_EQ(warm.exact_shortcuts - cold.exact_shortcuts, 1u);
  EXPECT_EQ(warm.sampled, cold.sampled);
}

TEST(InferenceEngine, LruEvictionNeverChangesAnEstimate) {
  Table table = SmallTable(23);
  auto model = SmallTrainedModel(table, 23);
  const auto queries = ServingQueries(table, 77);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  // A budget that fits only a couple of entries: serving the workload
  // repeatedly churns the caches through constant eviction.
  InferenceEngineConfig ecfg;
  ecfg.num_threads = 2;
  ecfg.cache_budget_bytes = 2 * (64 + LruResultCache::kEntryOverheadBytes);
  InferenceEngine tiny(ecfg);

  std::vector<double> first, second, third;
  ServeDefault(&tiny, &est, queries, &first);
  ServeDefault(&tiny, &est, queries, &second);
  ServeDefault(&tiny, &est, queries, &third);
  EXPECT_EQ(second, first);
  EXPECT_EQ(third, first);

  // An unconstrained engine and the sequential path agree bit-for-bit:
  // an evicted entry recomputes to the identical value.
  InferenceEngine roomy(InferenceEngineConfig{.num_threads = 2});
  std::vector<double> cached;
  ServeDefault(&roomy, &est, queries, &cached);
  EXPECT_EQ(cached, first);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(first[i], est.EstimateSelectivity(queries[i])) << "query " << i;
  }

  const auto tiny_stats = tiny.stats();
  const auto roomy_stats = roomy.stats();
  EXPECT_GT(tiny_stats.memo_evictions, 0u);
  EXPECT_LE(tiny_stats.memo_bytes, ecfg.cache_budget_bytes);
  EXPECT_LE(tiny_stats.marginal_bytes, ecfg.cache_budget_bytes);
  EXPECT_EQ(roomy_stats.memo_evictions, 0u);
  EXPECT_GT(roomy_stats.memo_entries, 0u);
  EXPECT_GT(roomy_stats.memo_bytes, 0u);
}

// The batch path builds each query's canonical key exactly once and reuses
// it for both duplicate coalescing and the memo: miss counters must line
// up one-to-one with the computed distinct queries, and duplicates must
// never reach the cache at all.
TEST(InferenceEngine, CoalescingAndMemoShareOneKeyedPass) {
  Table table = SmallTable(31);
  auto model = SmallTrainedModel(table, 31);
  const auto queries = ServingQueries(table, 83);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  InferenceEngine engine(InferenceEngineConfig{.num_threads = 2});
  std::vector<double> out;
  ServeDefault(&engine, &est, queries, &out);
  const auto cold = engine.stats();

  // Every computed distinct query consulted the memo exactly once and
  // missed; the empty-region query short-circuits before the cache, so it
  // is the one compute (an exact shortcut) without a matching miss.
  EXPECT_EQ(cold.memo_misses,
            cold.sampled + cold.enumerated + cold.exact_shortcuts - 1);
  EXPECT_EQ(cold.memo_hits, 0u);
  // The workload carries duplicates; none of them reached the cache.
  EXPECT_LT(cold.memo_misses + 1, queries.size());

  ServeDefault(&engine, &est, queries, &out);
  const auto warm = engine.stats();
  EXPECT_EQ(warm.memo_misses, cold.memo_misses);  // warm pass misses nothing
  EXPECT_EQ(warm.memo_hits, cold.memo_misses);    // and hits every miss
}

TEST(InferenceEngine, MixedBatchGroupsByEstimator) {
  Table table = SmallTable(17);
  auto model_a = SmallTrainedModel(table, 17);
  auto model_b = SmallTrainedModel(table, 18);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est_a(model_a.get(), ncfg, 0, "A");
  NaruEstimator est_b(model_b.get(), ncfg, 0, "B");

  const auto queries = ServingQueries(table, 23);
  std::vector<NaruEstimator*> ests;
  for (size_t i = 0; i < queries.size(); ++i) {
    ests.push_back(i % 2 == 0 ? &est_a : &est_b);
  }

  InferenceEngine engine(InferenceEngineConfig{.num_threads = 2});
  std::vector<double> mixed;
  ServeMixedDefault(&engine, ests, queries, &mixed);

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(mixed[i], ests[i]->EstimateSelectivity(queries[i]))
        << "query " << i;
  }
}

TEST(InferenceEngine, EstimatorsSharingOneModelDoNotShareMemoEntries) {
  Table table = SmallTable(19);
  auto model = SmallTrainedModel(table, 19);

  NaruEstimatorConfig small_cfg;
  small_cfg.num_samples = 100;
  small_cfg.enumeration_threshold = 0;
  NaruEstimatorConfig big_cfg = small_cfg;
  big_cfg.num_samples = 800;
  NaruEstimator small_est(model.get(), small_cfg, 0, "Naru-100");
  NaruEstimator big_est(model.get(), big_cfg, 0, "Naru-800");

  const auto queries = ServingQueries(table, 47);
  InferenceEngine engine(InferenceEngineConfig{.num_threads = 2});
  std::vector<double> small_out, big_out;
  ServeDefault(&engine, &small_est, queries, &small_out);
  ServeDefault(&engine, &big_est, queries, &big_out);

  // The second batch must not inherit the first estimator's memoized
  // sampled values — it uses a different path count over the same model.
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(big_out[i], big_est.EstimateSelectivity(queries[i]))
        << "query " << i;
  }

  // The marginal-mass cache, by contrast, IS config-independent and shared
  // across the two estimators: the workload's leading-only query misses
  // big_est's memo (different key) but hits the mass small_est cached.
  EXPECT_GE(engine.stats().marginal_hits, 1u);
}

// Satellite of the plan-layer refactor: randomized batches with mixed
// leading-wildcard runs must be bit-identical to the per-query sequential
// path across thread counts, shard sizes, and group layouts — with the
// plan actually exercised (groups compiled, prefix columns shared).
TEST(InferenceEngine, PrefixSharingBitIdenticalAcrossThreadsAndShards) {
  Table table = SmallTable(43);
  auto model = SmallTrainedModel(table, 43);

  // Mixed runs: half the workload keeps >= 2 leading wildcard columns.
  WorkloadConfig wcfg;
  wcfg.num_queries = 64;
  wcfg.min_filters = 1;
  wcfg.max_filters = 3;
  wcfg.leading_wildcards = 2;
  wcfg.leading_wildcard_fraction = 0.5;
  wcfg.seed = 97;
  const std::vector<Query> queries = GenerateWorkload(table, wcfg);

  for (const size_t shard_size : {size_t{32}, size_t{128}}) {
    NaruEstimatorConfig ncfg;
    ncfg.num_samples = 200;
    ncfg.enumeration_threshold = 0;
    ncfg.shard_size = shard_size;
    NaruEstimator est(model.get(), ncfg, 0);

    std::vector<double> sequential;
    for (const auto& q : queries) {
      sequential.push_back(est.EstimateSelectivity(q));
    }

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      InferenceEngineConfig ecfg;
      ecfg.num_threads = threads;
      InferenceEngine engine(ecfg);
      std::vector<double> batched;
      ServeDefault(&engine, &est, queries, &batched);
      EXPECT_EQ(batched, sequential)
          << "threads " << threads << " shard " << shard_size;

      const auto stats = engine.stats();
      EXPECT_GT(stats.planned_queries, 0u);
      EXPECT_GT(stats.plan_trees, 0u);
      EXPECT_GT(stats.plan_shared_cols, 0u);  // prefixes actually shared
      EXPECT_GT(stats.prefix_share_ratio(), 0.0);
      EXPECT_GT(stats.workspaces_created, 0u);  // satellite: pool churn
      EXPECT_EQ(stats.workspaces_created,
                engine.workspace_pool()->total_created());
    }
  }
}

// Group layout is an execution detail: splitting the same batch into
// different micro-batches (hence different plans and groupings) never
// changes an estimate, and both agree with the sequential path.
TEST(InferenceEngine, PlanLayoutIsResultInvariant) {
  Table table = SmallTable(47);
  auto model = SmallTrainedModel(table, 47);

  WorkloadConfig wcfg;
  wcfg.num_queries = 32;
  wcfg.min_filters = 1;
  wcfg.max_filters = 4;
  wcfg.leading_wildcards = 3;
  wcfg.leading_wildcard_fraction = 0.6;
  wcfg.seed = 101;
  const std::vector<Query> queries = GenerateWorkload(table, wcfg);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  // One whole-batch plan (cache off so every pass recomputes).
  InferenceEngineConfig planned_cfg;
  planned_cfg.num_threads = 2;
  planned_cfg.enable_cache = false;
  InferenceEngine planned(planned_cfg);
  std::vector<double> whole;
  ServeDefault(&planned, &est, queries, &whole);
  EXPECT_GT(planned.stats().plan_batches, 0u);

  // Same queries in chunks of 5: different plans, same results.
  std::vector<double> chunked(queries.size());
  for (size_t lo = 0; lo < queries.size(); lo += 5) {
    const size_t hi = std::min(queries.size(), lo + 5);
    std::vector<Query> chunk(queries.begin() + static_cast<ptrdiff_t>(lo),
                             queries.begin() + static_cast<ptrdiff_t>(hi));
    std::vector<double> out;
    ServeDefault(&planned, &est, chunk, &out);
    for (size_t i = lo; i < hi; ++i) chunked[i] = out[i - lo];
  }
  EXPECT_EQ(chunked, whole);

  // The sequential reference agrees bit-for-bit.
  std::vector<double> sequential;
  for (const Query& q : queries) {
    sequential.push_back(est.EstimateSelectivity(q));
  }
  EXPECT_EQ(sequential, whole);
}

// Tentpole of the typed-API redesign: the estimator's double-returning
// EstimateBatch is a thin adapter over EstimateRequest/EstimateResult, so
// for default options all three — typed, legacy, sequential — must agree
// bit-for-bit, and typed results must carry status/provenance/latency.
TEST(InferenceEngine, TypedDefaultRequestsMatchLegacyDoubleApi) {
  Table table = SmallTable(53);
  auto model = SmallTrainedModel(table, 53);
  const auto queries = ServingQueries(table, 59);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 50;  // exercise the enumeration provenance
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<double> sequential;
  std::vector<double> sequential_stderr;
  for (const auto& q : queries) {
    const EstimateResult r = est.Estimate(q);
    ASSERT_TRUE(r.ok());
    sequential.push_back(r.estimate);
    sequential_stderr.push_back(r.std_error);
  }

  InferenceEngine typed_engine(InferenceEngineConfig{.num_threads = 3});
  std::vector<EstimateRequest> requests;
  for (const auto& q : queries) requests.emplace_back(q);
  std::vector<EstimateResult> results;
  typed_engine.EstimateBatch(&est, requests, &results);

  std::vector<double> legacy;
  est.EstimateBatch(queries, &legacy);

  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "query " << i;
    EXPECT_EQ(results[i].estimate, sequential[i]) << "query " << i;
    EXPECT_EQ(results[i].estimate, legacy[i]) << "query " << i;
    EXPECT_NE(results[i].provenance, ResultProvenance::kUnknown)
        << "query " << i;
    EXPECT_GE(results[i].compute_ms, 0.0);
    // Sampled results surface the sequential path's Monte Carlo standard
    // error; exact answers report 0.
    if (results[i].provenance == ResultProvenance::kPlannedGroup) {
      EXPECT_EQ(results[i].std_error, sequential_stderr[i]) << "query " << i;
      EXPECT_EQ(results[i].samples_used, ncfg.num_samples);
    } else {
      EXPECT_EQ(results[i].samples_used, 0u) << "query " << i;
    }
  }

  // Per-provenance result counters account for every delivered result.
  const EngineStats stats = typed_engine.stats();
  EXPECT_EQ(stats.results_cache_hit + stats.results_exact +
                stats.results_enumerated + stats.results_sampled +
                stats.results_planned + stats.results_shed,
            queries.size());
  EXPECT_EQ(stats.results_shed, 0u);
}

TEST(InferenceEngine, ExpiredDeadlinesAreShedWithTypedStatus) {
  Table table = SmallTable(59);
  auto model = SmallTrainedModel(table, 59);
  const auto queries = ServingQueries(table, 61);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<EstimateRequest> requests;
  requests.emplace_back(queries[0]);
  requests.emplace_back(queries[1]);  // expired: must shed
  requests.back().options.deadline = EstimateOptions::DeadlineInMs(-10.0);
  requests.emplace_back(queries[2]);
  requests.emplace_back(queries[3]);  // generous: must NOT shed
  requests.back().options.deadline = EstimateOptions::DeadlineInMs(60000.0);

  InferenceEngine engine(InferenceEngineConfig{.num_threads = 2});
  std::vector<EstimateResult> results;
  engine.EstimateBatch(&est, requests, &results);

  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(std::isnan(results[1].estimate));
  EXPECT_EQ(results[1].provenance, ResultProvenance::kShed);
  EXPECT_EQ(results[1].samples_used, 0u);
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    ASSERT_TRUE(results[i].ok()) << "query " << i;
    EXPECT_EQ(results[i].estimate, est.EstimateSelectivity(queries[i]))
        << "query " << i;
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, requests.size());
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.results_shed, 1u);

  // The sequential typed path sheds by the same rule.
  const EstimateResult direct = est.Estimate(
      queries[1], EstimateOptions{.deadline = EstimateOptions::DeadlineInMs(-1.0)});
  EXPECT_EQ(direct.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(direct.provenance, ResultProvenance::kShed);
}

// Per-request sample budgets are part of the value contract: a request
// carrying num_samples=N must be bit-identical (estimate AND std-error)
// to a dedicated estimator configured with N — through the sequential
// typed path and the engine — and
// budgets must never coalesce or share memo entries with each other.
TEST(InferenceEngine, PerRequestSampleBudgetsMatchDedicatedEstimators) {
  Table table = SmallTable(61);
  auto model = SmallTrainedModel(table, 61);

  WorkloadConfig wcfg;
  wcfg.num_queries = 18;
  wcfg.min_filters = 1;
  wcfg.max_filters = 4;
  wcfg.leading_wildcards = 2;  // keep the plan's prefix sharing in play
  wcfg.leading_wildcard_fraction = 0.5;
  wcfg.seed = 103;
  const std::vector<Query> queries = GenerateWorkload(table, wcfg);

  NaruEstimatorConfig base_cfg;
  base_cfg.num_samples = 200;
  base_cfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), base_cfg, 0);

  // One reference estimator per budget (0 = the base config's 200).
  const size_t budgets[] = {0, 100, 350};
  std::vector<std::unique_ptr<NaruEstimator>> refs;
  for (const size_t budget : budgets) {
    NaruEstimatorConfig cfg = base_cfg;
    if (budget != 0) cfg.num_samples = budget;
    refs.push_back(std::make_unique<NaruEstimator>(model.get(), cfg, 0));
  }

  // A mixed-budget batch: query i asks for budgets[i % 3].
  std::vector<EstimateRequest> requests;
  for (size_t i = 0; i < queries.size(); ++i) {
    EstimateRequest req(queries[i]);
    req.options.num_samples = budgets[i % 3];
    requests.push_back(std::move(req));
  }

  InferenceEngineConfig ecfg;
  ecfg.num_threads = 2;
  InferenceEngine engine(ecfg);
  std::vector<EstimateResult> results;
  engine.EstimateBatch(&est, requests, &results);
  for (size_t i = 0; i < queries.size(); ++i) {
    const EstimateResult want = refs[i % 3]->Estimate(queries[i]);
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].estimate, want.estimate) << "query " << i;
    EXPECT_EQ(results[i].std_error, want.std_error) << "query " << i;
    // The sequential typed path honors the same per-request override.
    const EstimateResult direct = est.Estimate(
        queries[i], EstimateOptions{.num_samples = budgets[i % 3]});
    EXPECT_EQ(direct.estimate, want.estimate) << "query " << i;
  }

  // Budgets never share memo entries: re-serving the same mixed batch
  // hits the memo once per distinct (query, budget) pair.
  std::set<std::pair<std::string, size_t>> distinct;
  for (size_t i = 0; i < queries.size(); ++i) {
    distinct.emplace(QueryKey(queries[i]), budgets[i % 3]);
  }
  const EngineStats cold = engine.stats();
  std::vector<EstimateResult> warm_results;
  engine.EstimateBatch(&est, requests, &warm_results);
  const EngineStats warm = engine.stats();
  EXPECT_EQ(warm.memo_hits - cold.memo_hits, distinct.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(warm_results[i].estimate, results[i].estimate);
    EXPECT_EQ(warm_results[i].provenance, ResultProvenance::kCacheHit);
  }

  // One query asked under two budgets in ONE batch must not coalesce.
  std::vector<EstimateRequest> pair;
  pair.emplace_back(queries[0]);
  pair.back().options.num_samples = 100;
  pair.emplace_back(queries[0]);
  pair.back().options.num_samples = 350;
  std::vector<EstimateResult> pair_out;
  engine.EstimateBatch(&est, pair, &pair_out);
  EXPECT_EQ(pair_out[0].estimate, refs[1]->EstimateSelectivity(queries[0]));
  EXPECT_EQ(pair_out[1].estimate, refs[2]->EstimateSelectivity(queries[0]));
}

TEST(InferenceEngine, CachePolicyRestrictsCachingButNeverChangesValues) {
  Table table = SmallTable(67);
  auto model = SmallTrainedModel(table, 67);
  const auto queries = ServingQueries(table, 71);
  const Query& q = queries[0];  // a sampled-path query

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);
  const double want = est.EstimateSelectivity(q);

  InferenceEngine engine(InferenceEngineConfig{.num_threads = 1});
  const auto serve_one = [&](CachePolicy policy) {
    std::vector<EstimateRequest> reqs;
    reqs.emplace_back(q);
    reqs.back().options.cache_policy = policy;
    std::vector<EstimateResult> out;
    engine.EstimateBatch(&est, reqs, &out);
    EXPECT_EQ(out[0].estimate, want);
    return out[0];
  };

  // Bypass: no lookup, no insert — every pass recomputes.
  serve_one(CachePolicy::kBypass);
  EXPECT_EQ(engine.stats().sampled, 1u);
  EXPECT_EQ(engine.stats().memo_misses, 0u);  // bypass skipped the lookup
  serve_one(CachePolicy::kBypass);
  EXPECT_EQ(engine.stats().sampled, 2u);

  // Read-only: looks up (and misses — bypass never stored) but does not
  // pollute the cache.
  serve_one(CachePolicy::kReadOnly);
  EXPECT_EQ(engine.stats().sampled, 3u);
  EXPECT_EQ(engine.stats().memo_misses, 1u);
  EXPECT_EQ(engine.stats().memo_entries, 0u);

  // Read-write stores; a later read-only request then hits.
  serve_one(CachePolicy::kReadWrite);
  EXPECT_EQ(engine.stats().sampled, 4u);
  EXPECT_EQ(engine.stats().memo_entries, 1u);
  const EstimateResult hit = serve_one(CachePolicy::kReadOnly);
  EXPECT_EQ(hit.provenance, ResultProvenance::kCacheHit);
  EXPECT_EQ(engine.stats().sampled, 4u);
  EXPECT_EQ(engine.stats().memo_hits, 1u);
}

// Coalescing is policy-aware: a kBypass request must recompute even when
// its query twin in the same batch is served from the warm memo — in
// either batch order.
TEST(InferenceEngine, MixedPoliciesInOneBatchNeverCoalesce) {
  Table table = SmallTable(73);
  auto model = SmallTrainedModel(table, 73);
  const Query q = ServingQueries(table, 79)[0];  // a sampled-path query

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);
  const double want = est.EstimateSelectivity(q);

  InferenceEngine engine(InferenceEngineConfig{.num_threads = 2});
  {
    std::vector<EstimateRequest> warmup{EstimateRequest(q)};
    std::vector<EstimateResult> out;
    engine.EstimateBatch(&est, warmup, &out);  // memo now holds q
  }

  for (const bool bypass_first : {false, true}) {
    EstimateRequest rw(q);
    EstimateRequest bypass(q);
    bypass.options.cache_policy = CachePolicy::kBypass;
    std::vector<EstimateRequest> batch;
    if (bypass_first) {
      batch.push_back(std::move(bypass));
      batch.push_back(std::move(rw));
    } else {
      batch.push_back(std::move(rw));
      batch.push_back(std::move(bypass));
    }
    const size_t sampled_before = engine.stats().sampled;
    std::vector<EstimateResult> out;
    engine.EstimateBatch(&est, batch, &out);
    const size_t rw_at = bypass_first ? 1 : 0;
    const size_t bypass_at = bypass_first ? 0 : 1;
    EXPECT_EQ(out[rw_at].provenance, ResultProvenance::kCacheHit)
        << "bypass_first " << bypass_first;
    EXPECT_NE(out[bypass_at].provenance, ResultProvenance::kCacheHit)
        << "bypass_first " << bypass_first;
    EXPECT_EQ(engine.stats().sampled, sampled_before + 1);  // the bypass
    EXPECT_EQ(out[0].estimate, want);
    EXPECT_EQ(out[1].estimate, want);
  }
}

TEST(InferenceEngine, OracleModelServesConcurrently) {
  Table table = SmallTable(29);
  OracleModel oracle(&table);
  ASSERT_TRUE(oracle.SupportsConcurrentSampling());

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(&oracle, ncfg, 0, "Oracle");

  const auto queries = ServingQueries(table, 37);
  std::vector<double> sequential;
  for (const auto& q : queries) {
    sequential.push_back(est.EstimateSelectivity(q));
  }
  InferenceEngine engine(InferenceEngineConfig{.num_threads = 4});
  std::vector<EstimateRequest> requests;
  for (const auto& q : queries) requests.emplace_back(q);
  std::vector<EstimateResult> results;
  engine.EstimateBatch(&est, requests, &results);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "query " << i;
    EXPECT_EQ(results[i].estimate, sequential[i]) << "query " << i;
    // The Oracle's sessions are pure, so its walks are planned like any
    // other model's.
    if (est.sampler()->Classify(queries[i]) ==
        ProgressiveSampler::Path::kSampled) {
      EXPECT_EQ(results[i].provenance, ResultProvenance::kPlannedGroup)
          << "query " << i;
    }
  }
  EXPECT_GT(engine.stats().plan_batches, 0u);
  EXPECT_EQ(engine.stats().results_sampled, 0u);
}

// Satellite of the overload-safety PR: expiry is INCLUSIVE at the
// deadline instant — a request whose deadline equals the check time is
// already expired ("expired by dispatch time"), and every shed site uses
// this one predicate.
TEST(EstimateOptions, ExpiryIsInclusiveAtTheDeadlineInstant) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t = Clock::now();

  EstimateOptions options;  // no deadline: never expires
  EXPECT_FALSE(options.ExpiredAt(t));
  EXPECT_FALSE(options.ExpiredAt(Clock::time_point::max()));

  options.deadline = t;
  EXPECT_TRUE(options.ExpiredAt(t)) << "expiry must include the instant";
  EXPECT_FALSE(options.ExpiredAt(t - std::chrono::nanoseconds(1)));
  EXPECT_TRUE(options.ExpiredAt(t + std::chrono::nanoseconds(1)));

  // The shared raw-time_point form (the one the mid-walk checks mirror)
  // agrees.
  EXPECT_TRUE(EstimateOptions::Expired(t, t));
  EXPECT_FALSE(EstimateOptions::Expired(t + std::chrono::nanoseconds(1), t));
  EXPECT_FALSE(EstimateOptions::Expired(EstimateOptions::kNoDeadline, t));
}

// Headline bugfix of the overload-safety PR: compute_ms is attributed per
// phase, not stamped batch-wide. A cache hit served in the SAME batch as
// a sampled walk must report strictly less compute than the walk — the
// old whole-batch stamp gave both the identical (walk-sized) figure.
TEST(InferenceEngine, CacheHitComputeMsBelowSampledWalk) {
  Table table = SmallTable(83);
  auto model = SmallTrainedModel(table, 83);
  const auto queries = ServingQueries(table, 113);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 2000;  // a walk long enough to dwarf a memo lookup
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  // Two queries that definitely walk (not shortcuts): queries[0] is
  // sampled by construction; find a second one.
  ASSERT_EQ(est.sampler()->Classify(queries[0]),
            ProgressiveSampler::Path::kSampled);
  size_t fresh = 0;
  for (size_t i = 1; i < queries.size() && fresh == 0; ++i) {
    if (est.sampler()->Classify(queries[i]) ==
        ProgressiveSampler::Path::kSampled) {
      fresh = i;
    }
  }
  ASSERT_NE(fresh, 0u);

  InferenceEngineConfig ecfg;
  ecfg.num_threads = 2;
  InferenceEngine engine(ecfg);

  // Warm the memo with queries[0].
  std::vector<EstimateRequest> warm{EstimateRequest(queries[0])};
  std::vector<EstimateResult> warm_out;
  engine.EstimateBatch(&est, warm, &warm_out);
  ASSERT_EQ(warm_out[0].provenance, ResultProvenance::kPlannedGroup);
  EXPECT_GT(warm_out[0].compute_ms, 0.0);

  // One batch holding both a hit and a fresh walk: per-phase
  // attribution must separate them.
  std::vector<EstimateRequest> batch;
  batch.emplace_back(queries[0]);      // memo hit
  batch.emplace_back(queries[fresh]);  // fresh sampled walk
  std::vector<EstimateResult> out;
  engine.EstimateBatch(&est, batch, &out);
  ASSERT_EQ(out[0].provenance, ResultProvenance::kCacheHit);
  ASSERT_EQ(out[1].provenance, ResultProvenance::kPlannedGroup);
  // Wall-clock-coupled ordering: a sanitizer's instrumentation can
  // inflate a map lookup past a tiny walk, so the comparison (not the
  // attribution mechanism) is waived under NARU_SMOKE_NO_PERF_ASSERT.
  if (GetEnvInt("NARU_SMOKE_NO_PERF_ASSERT", 0) == 0) {
    EXPECT_LT(out[0].compute_ms, out[1].compute_ms)
        << "a cache hit must not be charged the batch's walk time";
    // And across batches: the hit is cheaper than its own original walk.
    EXPECT_LT(out[0].compute_ms, warm_out[0].compute_ms);
  }
}

// Tentpole: a soft deadline propagates INTO the walk. A computation whose
// every interested request has expired is abandoned between column steps
// with a typed DEADLINE_EXCEEDED — and the surviving requests of the same
// batch stay bit-identical to a run without the expired request.
TEST(InferenceEngine, MidWalkDeadlineAbandonsOnlyTheExpiredComputation) {
  Table table = SmallTable(89);
  auto model = SmallTrainedModel(table, 89);
  const auto queries = ServingQueries(table, 127);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  InferenceEngineConfig ecfg;
  ecfg.num_threads = 2;
  ecfg.enable_cache = false;  // identical recomputation across runs

  // Survivors: a handful of deadline-free requests.
  std::vector<EstimateRequest> survivors;
  for (size_t i = 0; i < 5; ++i) survivors.emplace_back(queries[i]);

  // The doomed request: a huge per-request budget (its walk takes far
  // longer than the deadline) with a deadline that is STILL LIVE at
  // dispatch — generous enough to survive scheduling noise on a loaded
  // machine, far shorter than its walk — so it passes the shed pass
  // and must be abandoned mid-walk, at a column boundary.
  std::vector<EstimateRequest> batch = survivors;
  EstimateRequest doomed(queries[0]);
  doomed.options.num_samples = 500000;
  batch.push_back(std::move(doomed));

  InferenceEngine engine(ecfg);  // before the deadline: pool spawn-up
  std::vector<EstimateResult> out;
  batch.back().options.deadline = EstimateOptions::DeadlineInMs(50.0);
  engine.EstimateBatch(&est, batch, &out);

  const EstimateResult& shed = out.back();
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(std::isnan(shed.estimate));
  EXPECT_EQ(shed.provenance, ResultProvenance::kShed);
  EXPECT_EQ(shed.samples_used, 0u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.shed_deadline, 0u) << "must not have shed at dispatch";
  EXPECT_GE(stats.shed_midwalk, 1u);
  EXPECT_EQ(stats.results_shed, 1u);

  // Survivors are bit-identical to the sequential path AND to a batch
  // that never contained the expired request.
  InferenceEngine control(ecfg);
  std::vector<EstimateResult> control_out;
  control.EstimateBatch(&est, survivors, &control_out);
  for (size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_TRUE(out[i].ok()) << "query " << i;
    EXPECT_EQ(out[i].estimate, control_out[i].estimate) << "query " << i;
    EXPECT_EQ(out[i].estimate, est.EstimateSelectivity(batch[i].query))
        << "query " << i;
  }

  // The sequential typed path abandons mid-walk by the same rule.
  EstimateOptions heavy;
  heavy.num_samples = 500000;
  heavy.deadline = EstimateOptions::DeadlineInMs(50.0);
  const EstimateResult direct = est.Estimate(queries[0], heavy);
  EXPECT_EQ(direct.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(direct.provenance, ResultProvenance::kShed);
  EXPECT_TRUE(std::isnan(direct.estimate));
}

// A deadline-free duplicate pins its coalesced computation alive: the
// shared walk may be abandoned only when EVERY request riding it has
// expired, so coalescing one live request with an expired-deadline twin
// must complete — with the one deterministic value for both.
TEST(InferenceEngine, CoalescedComputationSurvivesWhileAnySharerIsLive) {
  Table table = SmallTable(97);
  auto model = SmallTrainedModel(table, 97);
  const auto queries = ServingQueries(table, 131);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150000;  // walk well past the 50 ms deadline below
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  InferenceEngineConfig ecfg;
  ecfg.num_threads = 2;
  ecfg.enable_cache = false;
  InferenceEngine engine(ecfg);

  std::vector<EstimateRequest> batch;
  batch.emplace_back(queries[0]);  // deadline-carrying...
  batch.emplace_back(queries[0]);  // ...coalesced with a deadline-free twin
  std::vector<EstimateResult> out;
  // Live at dispatch (generous headroom), expired long before the walk
  // ends — only the deadline-free twin keeps the computation alive.
  batch.front().options.deadline = EstimateOptions::DeadlineInMs(50.0);
  engine.EstimateBatch(&est, batch, &out);

  ASSERT_TRUE(out[0].ok()) << out[0].status.ToString();
  ASSERT_TRUE(out[1].ok());
  EXPECT_EQ(out[0].estimate, out[1].estimate);
  EXPECT_EQ(out[0].estimate, est.EstimateSelectivity(queries[0]));
  EXPECT_EQ(engine.stats().shed_midwalk, 0u);
}

// Satellite: the soft deadline propagates into EXACT ENUMERATION too.
// Expiry is re-checked between LogProbRows batches (never inside a
// kernel); an abandoned enumeration returns a typed DEADLINE_EXCEEDED
// shed counted as shed_midwalk, and every other request of the batch —
// including a small deadline-free enumeration — stays bit-identical to a
// run that never contained the doomed request.
TEST(InferenceEngine, MidWalkDeadlineAbandonsExactEnumeration) {
  // Big domains so a near-half-domain region still holds ~189k points:
  // ~92 LogProbRows batches of 2048, far longer than the deadline.
  Table table = MakeRandomTable(3000, {90, 70, 60}, 157, /*skew=*/1.0);
  MadeModel::Config mcfg;
  mcfg.hidden_sizes = {24, 24};
  mcfg.encoder.onehot_threshold = 16;
  mcfg.seed = 157;
  auto model =
      std::make_unique<MadeModel>(std::vector<size_t>{90, 70, 60}, mcfg);
  TrainerConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 256;
  Trainer(model.get(), tcfg).Train(table);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 200000;
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<ValueSet> all;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    all.push_back(ValueSet::All(table.column(c).DomainSize()));
  }
  // The doomed enumeration: 45*70*60 = 189k points (under the threshold),
  // ~92 LogProbRows batches — far longer than the deadline below.
  auto huge_region = all;
  huge_region[0] = ValueSet::Interval(90, 0, 44);
  const Query huge(huge_region);
  ASSERT_TRUE(est.ShouldEnumerate(huge));
  auto small_region = all;
  small_region[0] = ValueSet::Interval(90, 3, 4);
  const Query small_enum(small_region);  // 2*70*60 points: finishes fast
  ASSERT_TRUE(est.ShouldEnumerate(small_enum));
  // Survivor regions sit ABOVE the threshold: sampled walks.
  auto f1 = all;
  f1[2] = ValueSet::Interval(60, 10, 45);  // 90*70*36 = 227k points
  auto f2 = all;
  f2[1] = ValueSet::Interval(70, 5, 60);  // 90*56*60 = 302k points
  ASSERT_FALSE(est.ShouldEnumerate(Query(f1)));
  ASSERT_FALSE(est.ShouldEnumerate(Query(f2)));

  InferenceEngineConfig ecfg;
  ecfg.num_threads = 2;
  ecfg.enable_cache = false;  // identical recomputation across runs
  InferenceEngine engine(ecfg);

  std::vector<EstimateRequest> survivors;
  survivors.emplace_back(Query(f1));
  survivors.emplace_back(Query(f2));
  survivors.emplace_back(small_enum);
  std::vector<EstimateRequest> batch = survivors;
  batch.emplace_back(huge);
  std::vector<EstimateResult> out;
  // Live at dispatch (generous headroom for scheduling noise), expired
  // long before the ~92-batch enumeration can finish.
  batch.back().options.deadline = EstimateOptions::DeadlineInMs(50.0);
  engine.EstimateBatch(&est, batch, &out);

  const EstimateResult& shed = out.back();
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(std::isnan(shed.estimate));
  EXPECT_EQ(shed.provenance, ResultProvenance::kShed);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.shed_deadline, 0u) << "must not have shed at dispatch";
  EXPECT_EQ(stats.shed_midwalk, 1u);
  EXPECT_EQ(stats.enumerated, 1u) << "the small enumeration must finish";
  EXPECT_EQ(stats.results_shed, 1u);

  // Survivors are bit-identical to a batch that never held the doomed
  // enumeration, and to the sequential path.
  InferenceEngine control(ecfg);
  std::vector<EstimateResult> control_out;
  control.EstimateBatch(&est, survivors, &control_out);
  for (size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_TRUE(out[i].ok()) << "query " << i;
    EXPECT_EQ(out[i].estimate, control_out[i].estimate) << "query " << i;
    EXPECT_EQ(out[i].estimate,
              est.EstimateSelectivity(survivors[i].query))
        << "query " << i;
  }
  EXPECT_EQ(out[2].provenance, ResultProvenance::kEnumerated);

  // The sequential typed path abandons the same way...
  EstimateOptions opt;
  opt.deadline = EstimateOptions::DeadlineInMs(50.0);
  const EstimateResult direct = est.Estimate(huge, opt);
  EXPECT_EQ(direct.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(direct.provenance, ResultProvenance::kShed);
  EXPECT_TRUE(std::isnan(direct.estimate));

  // ...and the enumerator primitive honors the contract directly: an
  // expired deadline abandons (after at most one batch), no deadline
  // completes with a sane selectivity.
  bool abandoned = false;
  const double v = EnumerateSelectivity(
      est.model(), huge, /*batch=*/2048,
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1),
      &abandoned);
  EXPECT_TRUE(abandoned);
  EXPECT_TRUE(std::isnan(v));
  abandoned = false;
  const double small_v = EnumerateSelectivity(est.model(), small_enum,
                                              /*batch=*/2048, kNoDeadline,
                                              &abandoned);
  EXPECT_FALSE(abandoned);
  EXPECT_TRUE(std::isfinite(small_v));
  EXPECT_GE(small_v, 0.0);
}

TEST(MultiOrderEnsemble, BatchMatchesSequential) {
  Table table = MakeRandomTable(400, {6, 5, 4}, 41, /*skew=*/1.0);
  MultiOrderConfig cfg;
  cfg.num_orders = 2;
  cfg.model.hidden_sizes = {16, 16};
  cfg.model.encoder.onehot_threshold = 16;
  cfg.model.seed = 41;
  cfg.trainer.epochs = 2;
  cfg.trainer.batch_size = 128;
  cfg.estimator.num_samples = 150;
  cfg.estimator.enumeration_threshold = 0;
  MultiOrderEnsemble ensemble(table, cfg);

  WorkloadConfig wcfg;
  wcfg.num_queries = 8;
  wcfg.min_filters = 1;
  wcfg.max_filters = 3;
  wcfg.seed = 43;
  const auto queries = GenerateWorkload(table, wcfg);

  std::vector<double> sequential;
  for (const auto& q : queries) {
    sequential.push_back(ensemble.EstimateSelectivity(q));
  }
  std::vector<double> batched;
  ensemble.EstimateBatch(queries, &batched);
  EXPECT_EQ(batched, sequential);
}

}  // namespace
}  // namespace naru
