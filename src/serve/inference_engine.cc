#include "serve/inference_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>

#include "core/enumerator.h"
#include "plan/plan_executor.h"
#include "plan/sampling_plan.h"
#include "serve/query_key.h"
#include "util/string_util.h"

namespace naru {

namespace {

// Enumeration runs LogProbRows through the model's shared scratch buffers,
// so it must be serialized PER MODEL, not per engine: two engines (e.g.
// two estimators' private engines) may serve one model concurrently. The
// registry leaks one mutex per model pointer ever enumerated — bounded and
// harmless (address reuse just shares a mutex).
Mutex& EnumerationMutexFor(const ConditionalModel* model) {
  static Mutex registry_mu;
  static auto* registry =
      new std::unordered_map<const ConditionalModel*, std::unique_ptr<Mutex>>();
  MutexLock lock(&registry_mu);
  auto& slot = (*registry)[model];
  if (slot == nullptr) slot = std::make_unique<Mutex>();
  return *slot;
}

// The config-dependent memo-key prefix: sampled estimates depend on the
// estimator's sampling configuration — and on the request's effective
// sample budget — not only on the model: two estimators wrapping one
// model (e.g. Naru-1000 and Naru-4000), or two requests for one query
// with different per-request budgets, must never share entries. Built
// once per (batch, budget), not once per request. Also used as the budget
// component of the duplicate-coalescing key, so it is computed even when
// caching is off.
std::string MemoPrefix(const NaruEstimatorConfig& cfg, size_t eff_samples) {
  // shard_size is part of the key: the shard layout defines the RNG
  // streams, so two estimators differing only in it produce different
  // sampled estimates. The kernel is part of the key because simd
  // estimates are not bit-identical to scalar ones; its enum value is what
  // is written, so keys stay stable as long as KernelKind values do.
  return StrFormat("%zu|%zu|%llu|%zu|%d|", eff_samples,
                   cfg.enumeration_threshold,
                   static_cast<unsigned long long>(cfg.sampler_seed),
                   cfg.shard_size, static_cast<int>(cfg.kernel));
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

InferenceEngine::InferenceEngine(InferenceEngineConfig config)
    : cfg_(config) {
  if (cfg_.num_threads > 1) {
    own_pool_ = std::make_unique<ThreadPool>(cfg_.num_threads);
  }
}

InferenceEngine::~InferenceEngine() = default;

ThreadPool* InferenceEngine::pool() const {
  if (cfg_.num_threads == 1) return nullptr;
  if (own_pool_ != nullptr) return own_pool_.get();
  return GlobalThreadPool();
}

size_t InferenceEngine::num_threads() const {
  ThreadPool* p = pool();
  return p == nullptr ? 1 : p->num_threads();
}

EngineStats InferenceEngine::stats() const {
  MutexLock lock(&mu_);
  EngineStats snapshot = stats_;
  for (const auto& [model, cache] : caches_) {
    (void)model;
    snapshot.memo_entries += cache.result_memo.entries();
    snapshot.memo_bytes += cache.result_memo.bytes();
    snapshot.marginal_entries += cache.leading_mass.entries();
    snapshot.marginal_bytes += cache.leading_mass.bytes();
  }
  snapshot.workspaces_created = workspaces_.total_created();
  for (size_t c = 0; c < class_compute_.size(); ++c) {
    ClassLatencyStats& cls = snapshot.class_latency[c];
    cls.results = class_compute_[c].count();
    cls.compute_p50_ms = class_compute_[c].Quantile(0.5);
    cls.compute_p99_ms = class_compute_[c].Quantile(0.99);
    cls.compute_max_ms = class_compute_[c].max_ms();
  }
  return snapshot;
}

std::string FormatEngineStats(const EngineStats& stats) {
  std::string out;
  out += StrFormat(
      "# engine: %zu queries (%zu sampled, %zu enumerated, %zu exact "
      "shortcuts, %zu shed on deadline, %zu abandoned mid-walk, %zu shed "
      "at admission)\n",
      stats.queries, stats.sampled, stats.enumerated, stats.exact_shortcuts,
      stats.shed_deadline, stats.shed_midwalk, stats.shed_admission);
  out += StrFormat(
      "# results: %zu cache_hit / %zu exact / %zu enumerated / %zu sampled "
      "/ %zu planned_group / %zu shed; %zu priority flushes\n",
      stats.results_cache_hit, stats.results_exact, stats.results_enumerated,
      stats.results_sampled, stats.results_planned, stats.results_shed,
      stats.priority_flushes);
  out += StrFormat(
      "# caches: memo %zu hits / %zu misses / %zu evictions (%zu entries, "
      "%.1f KB), marginal %zu hits / %zu misses / %zu evictions (%zu "
      "entries, %.1f KB)\n",
      stats.memo_hits, stats.memo_misses, stats.memo_evictions,
      stats.memo_entries, stats.memo_bytes / 1024.0, stats.marginal_hits,
      stats.marginal_misses, stats.marginal_evictions, stats.marginal_entries,
      stats.marginal_bytes / 1024.0);
  out += StrFormat(
      "# plans: %zu queries in %zu trees over %zu batches, avg tree %.1f, "
      "prefix-share ratio %.3f (%zu of %zu column walks shared)\n",
      stats.planned_queries, stats.plan_trees, stats.plan_batches,
      stats.plan_trees == 0 ? 0.0
                            : static_cast<double>(stats.planned_queries) /
                                  static_cast<double>(stats.plan_trees),
      stats.prefix_share_ratio(), stats.plan_shared_cols,
      stats.plan_walk_cols);
  out += StrFormat("# plan trees: max fork depth %zu, max fanout %zu\n",
                   stats.plan_max_depth, stats.plan_max_fanout);
  out += StrFormat("# workspaces created: %zu\n", stats.workspaces_created);
  if (stats.shed_expired_victims > 0) {
    out += StrFormat(
        "# admission victims already expired when evicted: %zu\n",
        stats.shed_expired_victims);
  }
  static const char* kClassNames[3] = {"low", "normal", "high"};
  for (size_t c = 0; c < stats.class_latency.size(); ++c) {
    const ClassLatencyStats& cls = stats.class_latency[c];
    if (cls.results == 0 && cls.queued == 0) continue;
    out += StrFormat(
        "# class %-6s %zu results, compute p50/p99/max %.3f/%.3f/%.3f ms",
        kClassNames[c], cls.results, cls.compute_p50_ms, cls.compute_p99_ms,
        cls.compute_max_ms);
    if (cls.queued > 0) {
      out += StrFormat(", queue (%zu measured) p50/p99/max %.3f/%.3f/%.3f ms",
                       cls.queued, cls.queue_p50_ms, cls.queue_p99_ms,
                       cls.queue_max_ms);
    }
    out += "\n";
  }
  return out;
}

void InferenceEngine::ClearCaches() {
  MutexLock lock(&mu_);
  caches_.clear();
  stats_ = EngineStats{};
  for (LatencyHistogram& h : class_compute_) h.Clear();
}

void InferenceEngine::ClearCachesFor(const ConditionalModel* model) {
  MutexLock lock(&mu_);
  caches_.erase(model);
}

void InferenceEngine::EstimateBatch(NaruEstimator* est,
                                    const std::vector<EstimateRequest>& requests,
                                    std::vector<EstimateResult>* out) {
  const size_t n = requests.size();
  out->assign(n, EstimateResult{});
  {
    MutexLock lock(&mu_);
    stats_.queries += n;
  }
  if (n == 0) return;
  const auto compute_start = std::chrono::steady_clock::now();

  // Shed pass: a request whose deadline has already passed costs nothing
  // beyond this check — no key, no cache traffic, no walk. Checked once
  // per batch (the deadline is soft; in-batch compute is never cancelled).
  std::vector<uint8_t> live(n, 1);
  size_t shed_count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (requests[i].options.ExpiredAt(compute_start)) {
      live[i] = 0;
      (*out)[i].status =
          Status::DeadlineExceeded("deadline expired before dispatch");
      (*out)[i].provenance = ResultProvenance::kShed;
      ++shed_count;
    }
  }

  const auto tally = [&] {
    MutexLock lock(&mu_);
    stats_.shed_deadline += shed_count;
    for (size_t i = 0; i < n; ++i) {
      // Per-class compute attribution (duplicates inherit their
      // representative's compute_ms — they received that computation).
      const auto cls = std::min<size_t>(
          static_cast<size_t>(requests[i].options.priority),
          class_compute_.size() - 1);
      class_compute_[cls].Add((*out)[i].compute_ms);
    }
    for (const EstimateResult& r : *out) {
      switch (r.provenance) {
        case ResultProvenance::kCacheHit: ++stats_.results_cache_hit; break;
        case ResultProvenance::kExact: ++stats_.results_exact; break;
        case ResultProvenance::kEnumerated: ++stats_.results_enumerated; break;
        case ResultProvenance::kSampled: ++stats_.results_sampled; break;
        case ResultProvenance::kPlannedGroup: ++stats_.results_planned; break;
        case ResultProvenance::kShed: ++stats_.results_shed; break;
        case ResultProvenance::kUnknown: break;
      }
    }
  };
  if (shed_count == n) {
    tally();
    return;
  }

  // A caller-established serial region wins over the engine's own thread
  // configuration — the same coarser-grain-wins rule the sampler follows.
  ThreadPool* p = ScopedSerialRegion::Active() ? nullptr : pool();

  // ONE keyed pass over the batch: each request's full memo key — the
  // config/budget prefix plus the canonical query bytes — is built
  // exactly once here and reused for (a) duplicate coalescing and (b)
  // every cache interaction below. Canonical bytes arriving in
  // request.key (serialized upstream by AsyncEngine::Submit) are reused
  // instead of re-serialized. The prefix embeds the effective per-request
  // sample budget, so two requests for one query with different budgets
  // never coalesce and never share memo entries.
  //
  // Coalescing duplicates up front matters because k copies of one
  // uncached query would otherwise cost k full walks (k workers all miss
  // the memo before any finishes) — on exactly the repeated-template
  // traces the engine serves. Coalescing is exact (identical queries get
  // the one deterministic result), so it stays on even when caching is
  // disabled.
  // Requests coalesce only when key AND cache policy agree: the
  // representative's policy governs the computation's cache interaction,
  // so folding a kBypass request onto a kReadWrite twin (or vice versa)
  // would make the policy order-dependent. Policies do NOT enter the memo
  // key — read-write and read-only requests share memo entries.
  constexpr size_t kNoRep = static_cast<size_t>(-1);
  constexpr size_t kNumPolicies = 3;
  constexpr auto kNoDeadline = EstimateOptions::kNoDeadline;
  std::vector<std::string> keys(n);
  std::vector<size_t> eff(n, 0);
  std::unordered_map<size_t, std::string> prefixes;  // budget -> prefix
  std::unordered_map<std::string_view, std::array<size_t, kNumPolicies>>
      first_index;  // key -> representative per cache policy
  std::vector<size_t> reps;          // one representative per distinct key
  std::vector<size_t> dup_of(n);     // representative index per request
  // Mid-walk abandonment instant per COMPUTATION (indexed by rep): the
  // LATEST deadline over every request coalesced into it, so a shared
  // walk is abandoned only once every interested request has expired —
  // one deadline-free duplicate (kNoDeadline = max()) pins it to "never".
  // This is the per-computation analogue of PlanTree::abandon_deadline.
  std::vector<std::chrono::steady_clock::time_point> rep_deadline(n,
                                                                  kNoDeadline);
  reps.reserve(n);
  first_index.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    dup_of[i] = i;
    if (!live[i]) continue;
    eff[i] = requests[i].options.EffectiveSamples(est->config().num_samples);
    auto [pit, inserted_prefix] = prefixes.try_emplace(eff[i]);
    if (inserted_prefix) pit->second = MemoPrefix(est->config(), eff[i]);
    const std::string& prefix = pit->second;
    const std::string& query_bytes = requests[i].key;
    keys[i].reserve(prefix.size() +
                    (query_bytes.empty() ? 32 : query_bytes.size()));
    keys[i] = prefix;
    if (query_bytes.empty()) {
      AppendQueryKey(requests[i].query, &keys[i]);
    } else {
      keys[i] += query_bytes;
    }
    const size_t policy =
        std::min(static_cast<size_t>(requests[i].options.cache_policy),
                 kNumPolicies - 1);
    auto [it, inserted] = first_index.try_emplace(
        std::string_view(keys[i]),
        std::array<size_t, kNumPolicies>{kNoRep, kNoRep, kNoRep});
    (void)inserted;
    size_t& slot = it->second[policy];
    if (slot == kNoRep) {
      slot = i;
      reps.push_back(i);
      rep_deadline[i] = requests[i].options.deadline;
    } else {
      rep_deadline[slot] =
          std::max(rep_deadline[slot], requests[i].options.deadline);
    }
    dup_of[i] = slot;
  }
  const size_t m = reps.size();

  // The distinct-request compute. The representative's cache policy
  // governs the computation; duplicates only copy its result. Every
  // distinct request first resolves through the exact fast paths (memo,
  // empty, enumeration, wildcard exits, leading-only); the sampled
  // remainder compiles into ONE SamplingPlan for the whole batch — queries
  // grouped by shared prefix WITHIN each budget class, one prefix walk per
  // (shard, group), per-column model evaluations stacked across each
  // tree's frontier.
  const auto run_reps = [&] {
    std::vector<SampledRep> sampled;
    for (size_t k = 0; k < m; ++k) {
      const size_t i = reps[k];
      // Phase attribution: a rep resolved here (cache hit, shortcut,
      // enumeration) is charged ONLY its own resolution time — never the
      // batch's sampling segment.
      const auto resolve_start = std::chrono::steady_clock::now();
      if (ResolveBeforeSampling(est, requests[i].query, keys[i],
                                requests[i].options.cache_policy,
                                rep_deadline[i], &(*out)[i])) {
        (*out)[i].compute_ms = ElapsedMs(resolve_start);
      } else {
        SampledRep rep;
        rep.index = i;
        rep.memo_key = keys[i];
        rep.budget = eff[i];
        rep.policy = requests[i].options.cache_policy;
        rep.deadline = rep_deadline[i];
        rep.resolve_ms = ElapsedMs(resolve_start);
        sampled.push_back(std::move(rep));
      }
    }
    EstimatePlanned(est, requests, sampled, p, out);
  };
  if (p == nullptr) {
    // Strictly serial: one serial region over the whole batch keeps every
    // kernel inline (the num_threads=1 contract) — including the
    // enumeration and leading-only paths, whose kernels would otherwise
    // fan out to the global pool.
    ScopedSerialRegion serial;
    run_reps();
  } else {
    run_reps();
  }

  // compute_ms was attributed per phase above (each request's own resolve
  // / walk / fused segment), NOT stamped batch-wide: a cache hit must not
  // report a 1000-sample walk's cost. Duplicates inherit their
  // representative's attribution — they received that computation.
  for (size_t i = 0; i < n; ++i) {
    if (dup_of[i] != i) (*out)[i] = (*out)[dup_of[i]];
  }
  tally();
}

void InferenceEngine::EstimateMixedBatch(
    const std::vector<NaruEstimator*>& ests,
    const std::vector<EstimateRequest>& requests,
    std::vector<EstimateResult>* out) {
  NARU_CHECK(ests.size() == requests.size());
  out->assign(requests.size(), EstimateResult{});

  // Group request indices by estimator (queries against the same model
  // share sessions' weights, workspaces, and caches), then serve each
  // group as one batch.
  std::vector<NaruEstimator*> order;
  std::unordered_map<NaruEstimator*, std::vector<size_t>> groups;
  for (size_t i = 0; i < ests.size(); ++i) {
    auto& bucket = groups[ests[i]];
    if (bucket.empty()) order.push_back(ests[i]);
    bucket.push_back(i);
  }
  std::vector<EstimateRequest> group_requests;
  std::vector<EstimateResult> group_out;
  for (NaruEstimator* est : order) {
    const auto& idx = groups[est];
    group_requests.clear();
    group_requests.reserve(idx.size());
    for (size_t i : idx) group_requests.push_back(requests[i]);
    EstimateBatch(est, group_requests, &group_out);
    for (size_t k = 0; k < idx.size(); ++k) {
      (*out)[idx[k]] = std::move(group_out[k]);
    }
  }
}

bool InferenceEngine::ResolveBeforeSampling(
    NaruEstimator* est, const Query& query, const std::string& memo_key,
    CachePolicy cache_policy, std::chrono::steady_clock::time_point deadline,
    EstimateResult* result) {
  ConditionalModel* model = est->model();
  result->status = Status::OK();
  result->std_error = 0.0;
  result->samples_used = 0;
  if (query.HasEmptyRegion()) {
    MutexLock lock(&mu_);
    ++stats_.exact_shortcuts;
    result->estimate = 0.0;
    result->provenance = ResultProvenance::kExact;
    return true;
  }

  // A per-request policy can only restrict what the engine-level switch
  // allows: kReadOnly serves hot entries without polluting the working
  // set, kBypass recomputes (to the bit-identical value) end to end.
  const bool cache_lookup =
      cfg_.enable_cache && cache_policy != CachePolicy::kBypass;
  const bool cache_store =
      cfg_.enable_cache && cache_policy == CachePolicy::kReadWrite;
  if (cache_lookup) {
    MutexLock lock(&mu_);
    if (caches_[model].result_memo.Lookup(memo_key, &result->estimate)) {
      ++stats_.memo_hits;
      result->provenance = ResultProvenance::kCacheHit;
      return true;
    }
    ++stats_.memo_misses;
  }

  if (est->ShouldEnumerate(query)) {
    // Serialized per model (see EnumerationMutexFor); sampling queries
    // keep flowing meanwhile. The computation's deadline (max over
    // coalesced duplicates) propagates in: expiry is re-checked between
    // LogProbRows batches and the enumeration abandoned once it passes —
    // the exact-path analogue of a mid-walk abandonment.
    bool enum_abandoned = false;
    {
      MutexLock lock(&EnumerationMutexFor(model));
      result->estimate = EnumerateSelectivity(model, query, /*batch=*/2048,
                                              deadline, &enum_abandoned);
    }
    if (enum_abandoned) {
      result->estimate = std::numeric_limits<double>::quiet_NaN();
      result->std_error = 0.0;
      result->status =
          Status::DeadlineExceeded("deadline expired mid-enumeration");
      result->provenance = ResultProvenance::kShed;
      MutexLock lock(&mu_);
      ++stats_.shed_midwalk;  // never memoized: there is no value to store
      return true;
    }
    result->provenance = ResultProvenance::kEnumerated;
    MutexLock lock(&mu_);
    ++stats_.enumerated;
  } else {
    // Route on the sampler's own path classification so the engine's fast
    // paths can never diverge from (and therefore always bit-match) the
    // sequential ProgressiveSampler::EstimateWithStdError.
    const ProgressiveSampler::Path path = est->sampler()->Classify(query);
    if (path == ProgressiveSampler::Path::kAllWildcard) {
      result->estimate = 1.0;  // every position wildcard: immediate exit
      result->provenance = ResultProvenance::kExact;
      MutexLock lock(&mu_);
      ++stats_.exact_shortcuts;
    } else if (path == ProgressiveSampler::Path::kLeadingOnly) {
      // P̂(X_0 ∈ R_0) depends only on the masked region, so repeated
      // predicate prefixes skip the forward pass entirely.
      const std::string region_key =
          RegionKey(query.region(model->TableColumnOf(0)));
      result->provenance = ResultProvenance::kExact;
      bool hit = false;
      if (cache_lookup) {
        MutexLock lock(&mu_);
        auto& masses = caches_[model].leading_mass;
        if (masses.Lookup(region_key, &result->estimate)) {
          hit = true;
          ++stats_.marginal_hits;
          ++stats_.exact_shortcuts;
        } else {
          ++stats_.marginal_misses;
        }
      }
      if (!hit) {
        result->estimate = est->sampler()->LeadingOnlyMass(query);
        MutexLock lock(&mu_);
        ++stats_.exact_shortcuts;
        if (cache_store) {
          stats_.marginal_evictions += caches_[model].leading_mass.Insert(
              region_key, result->estimate, cfg_.cache_budget_bytes);
        }
      }
    } else {
      return false;  // needs a progressive-sampling walk
    }
  }

  if (cache_store) {
    MutexLock lock(&mu_);
    stats_.memo_evictions += caches_[model].result_memo.Insert(
        memo_key, result->estimate, cfg_.cache_budget_bytes);
  }
  return true;
}

void InferenceEngine::EstimatePlanned(
    NaruEstimator* est, const std::vector<EstimateRequest>& requests,
    const std::vector<SampledRep>& reps, ThreadPool* pool,
    std::vector<EstimateResult>* out) {
  if (reps.empty()) return;
  const auto segment_start = std::chrono::steady_clock::now();
  std::vector<const Query*> sampled;
  sampled.reserve(reps.size());
  for (const SampledRep& rep : reps) {
    sampled.push_back(&requests[rep.index].query);
  }

  const ProgressiveSamplerConfig& scfg = est->sampler()->config();
  SamplingPlanOptions plan_opts;
  // Fork fan-out cap: pinned by config, or auto-tuned so stacked GEMM
  // shapes suit the model's hidden width, the active kernel, and the
  // shard size. Execution-only — the cap can never change an estimate.
  plan_opts.max_group_width =
      cfg_.group_width != 0
          ? cfg_.group_width
          : AutoGroupWidth(est->model()->StackedWidthHint(),
                           est->model()->inference_kernel(), scfg.shard_size);
  plan_opts.budgets.reserve(reps.size());
  plan_opts.deadlines.reserve(reps.size());
  for (const SampledRep& rep : reps) {
    plan_opts.budgets.push_back(rep.budget);  // never fused across budgets
    // Scheduling-only metadata: a group is abandonable once EVERY
    // member's (coalesced-max) deadline has passed.
    plan_opts.deadlines.push_back(rep.deadline);
  }
  if (pool != nullptr) {
    // (tree, shard) tasks are the parallelism grain: when shards alone
    // cannot cover the pool (few sample paths -> one shard), shrink the
    // tree width so the task count does. Tree shape is an execution
    // detail — it can never change an estimate — so this cap may depend
    // on the thread count without breaking thread-count invariance. (The
    // cap is sized from the estimator's default budget; per-request
    // budgets only shift how many shards each tree happens to have.)
    const size_t num_shards =
        SamplerNumShards(scfg.num_samples, scfg.shard_size);
    const size_t min_groups =
        (pool->num_threads() + num_shards - 1) / num_shards;
    const size_t width_cap =
        std::max<size_t>(1, (reps.size() + min_groups - 1) / min_groups);
    plan_opts.max_group_width =
        std::min(plan_opts.max_group_width, width_cap);
  }
  const SamplingPlan plan = CompileSamplingPlan(est->model(), sampled, plan_opts);
  PlanExecutionOptions popts;
  popts.num_samples = scfg.num_samples;
  popts.shard_size = scfg.shard_size;
  popts.seed = scfg.seed;
  // When the engine is serial (pool == nullptr) the caller already holds a
  // ScopedSerialRegion and the executor runs inline; otherwise (group,
  // shard) tasks spread across the engine's pool.
  popts.parallelism = pool == nullptr ? 1 : 0;
  popts.thread_pool = pool;
  popts.workspaces = &workspaces_;

  std::vector<double> estimates;
  std::vector<double> std_errors;
  std::vector<Status> statuses;
  ExecuteSamplingPlan(est->model(), plan, popts, &estimates, &std_errors,
                      &statuses);
  // The fused segment is shared work: every rep that sampled through it
  // is charged the segment's elapsed time on top of its own resolve time.
  const double segment_ms = ElapsedMs(segment_start);

  MutexLock lock(&mu_);
  stats_.planned_queries += reps.size();
  ++stats_.plan_batches;
  stats_.plan_trees += plan.trees.size();
  stats_.plan_shared_cols += plan.SharedColumns();
  stats_.plan_walk_cols += plan.WalkColumns();
  stats_.plan_max_depth = std::max(stats_.plan_max_depth, plan.MaxForkDepth());
  stats_.plan_max_fanout = std::max(stats_.plan_max_fanout, plan.MaxFanout());
  auto& memo = caches_[est->model()].result_memo;
  for (size_t i = 0; i < reps.size(); ++i) {
    EstimateResult& r = (*out)[reps[i].index];
    r.compute_ms = reps[i].resolve_ms + segment_ms;
    if (!statuses[i].ok()) {
      // Group abandoned mid-walk: every sharer had expired. Typed, never
      // memoized (there is no value), NaN estimate.
      r.estimate = std::numeric_limits<double>::quiet_NaN();
      r.std_error = 0.0;
      r.status = statuses[i];
      r.provenance = ResultProvenance::kShed;
      r.samples_used = 0;
      ++stats_.shed_midwalk;
      continue;
    }
    ++stats_.sampled;
    r.estimate = estimates[i];
    r.std_error = std_errors[i];
    r.status = Status::OK();
    r.provenance = ResultProvenance::kPlannedGroup;
    r.samples_used = reps[i].budget;
    if (cfg_.enable_cache && reps[i].policy == CachePolicy::kReadWrite) {
      stats_.memo_evictions += memo.Insert(reps[i].memo_key, estimates[i],
                                           cfg_.cache_budget_bytes);
    }
  }
}

}  // namespace naru
