// Progressive sampling: unbiased Monte Carlo range-density estimation (§5.1,
// Algorithm 1).
//
// For each of S sample paths, the sampler walks columns in model order.
// At column i it asks the model for P̂(X_i | sampled prefix), masks the
// distribution to the query region R_i, multiplies the path weight by the
// contained mass P̂(X_i ∈ R_i | prefix), and draws the next prefix value
// from the renormalized truncated distribution. The mean of the S path
// weights is an unbiased estimate of P(X_1 ∈ R_1, ..., X_n ∈ R_n)
// (Theorem 1). Wildcard columns contribute mass exactly 1; once every
// remaining column is a wildcard the walk stops early (the product of the
// remaining masses is identically 1, so the early exit is exact).
//
// Execution model: the S paths are cut into fixed-size SHARDS. Each shard
// draws from its own RNG stream derived from (seed, shard index) and walks
// its paths through a private SamplingSession using a SamplerWorkspace
// leased from a pool, so shards can run concurrently on a thread pool when
// the model allows it (ConditionalModel::SupportsConcurrentSampling). The
// shard layout and the final shard-order reduction are independent of the
// thread count, so estimates are bit-identical for a fixed seed whether the
// walk runs on one thread or many.
//
// A `uniform_region` mode implements the paper's strawman (§5.1 "first
// attempt"): sample uniformly from the region and importance-weight by
// |R| · P̂(x); it collapses on skewed data and exists for the ablation.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "core/conditional_model.h"
#include "query/query.h"
#include "util/deadline.h"
#include "util/random.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace naru {

/// Reusable per-shard sampling scratch. One workspace carries everything a
/// shard's walk mutates, so leasing a workspace per shard is what makes
/// concurrent shard execution safe: no two shards ever share a buffer.
/// Buffers keep their capacity between leases (steady-state serving does
/// not allocate).
struct SamplerWorkspace {
  IntMatrix samples;            ///< sampled prefix codes, paths x columns
  Matrix probs;                 ///< model conditionals for the current column
  std::vector<double> weights;  ///< per-path running products of masses
  std::vector<uint8_t> alive;   ///< per-path liveness (0 once weight hits 0)

  // Plan-execution scratch (src/plan): the frontier executor walks a plan
  // tree with one row block per live branch inside samples/weights/alive
  // above, and rebuilds that stacked layout at every retire/fork boundary
  // by ping-ponging into these spares (then swapping). One workspace
  // therefore carries a whole (tree, shard) task, keeping live workspaces
  // proportional to the number of concurrently running tasks.
  IntMatrix spare_samples;           ///< layout-rebuild target for samples
  std::vector<double> spare_weights; ///< layout-rebuild target for weights
  std::vector<uint8_t> spare_alive;  ///< layout-rebuild target for alive
};

/// Thread-safe free-list of SamplerWorkspaces. The serving engine shares
/// one pool across every plan it executes (and the async dispatcher across
/// every micro-batch), so the number of live workspaces tracks the number
/// of concurrently running (tree, shard) tasks, not the number of queries
/// served.
class SamplerWorkspacePool {
 public:
  /// Leases a workspace (creating one if the free list is empty). Return it
  /// with Release — or use the RAII WorkspaceLease below.
  std::unique_ptr<SamplerWorkspace> Acquire();
  /// Returns a leased workspace to the free list; its buffers keep their
  /// capacity for the next lease.
  void Release(std::unique_ptr<SamplerWorkspace> ws);

  /// Total workspaces ever created (tests assert reuse keeps this small).
  size_t total_created() const;
  /// Workspaces currently on the free list.
  size_t available() const;

 private:
  mutable Mutex mu_;
  std::vector<std::unique_ptr<SamplerWorkspace>> free_ NARU_GUARDED_BY(mu_);
  size_t created_ NARU_GUARDED_BY(mu_) = 0;
};

/// RAII lease of a SamplerWorkspace from a pool.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(SamplerWorkspacePool* pool)
      : pool_(pool), ws_(pool->Acquire()) {}
  ~WorkspaceLease() { pool_->Release(std::move(ws_)); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  SamplerWorkspace* get() { return ws_.get(); }
  SamplerWorkspace* operator->() { return ws_.get(); }

 private:
  SamplerWorkspacePool* pool_;
  std::unique_ptr<SamplerWorkspace> ws_;
};

/// One query's block of sample paths inside a (possibly stacked) walk.
/// The sequential sampler uses a block spanning a whole workspace
/// (row_offset 0); the plan executor (src/plan) points blocks at row
/// ranges of one stacked matrix shared by every branch of a plan tree.
struct SamplerRowBlock {
  IntMatrix* samples = nullptr;  ///< sampled prefix codes (stacked rows)
  Matrix* probs = nullptr;       ///< this column's conditionals, row-aligned
  double* weights = nullptr;     ///< this block's path weights (length rows)
  uint8_t* alive = nullptr;      ///< this block's liveness flags
  size_t row_offset = 0;         ///< first row of the block in samples/probs
  size_t rows = 0;               ///< paths in the block
};

/// One column step of Algorithm 1 (lines 12-14) over one query's block:
/// per path, mask the conditional to the query region, fold the contained
/// mass into the path weight, and draw the next prefix code from the
/// truncated distribution (wildcard columns contribute mass exactly 1 and
/// draw from the full conditional). This is THE per-row walk kernel —
/// shared by ProgressiveSampler and the plan executor so the planned path
/// is bit-identical to the sequential one by construction.
void SamplerColumnStep(const ConditionalModel* model, const Query& query,
                       size_t col, bool wildcard,
                       const SamplerRowBlock& block, Rng* rng);

/// Independent RNG stream for shard `shard` of a fixed seed (splitmix64
/// finalizer; adjacent shards land in uncorrelated xoshiro seed regions).
/// The (seed, shard) -> stream map is part of the determinism contract:
/// every execution strategy derives its draws from it.
uint64_t SamplerShardSeed(uint64_t seed, size_t shard);

/// Shard count for `num_samples` paths in shards of `shard_size`.
size_t SamplerNumShards(size_t num_samples, size_t shard_size);

struct ProgressiveSamplerConfig {
  /// Number of sample paths S (the paper's Naru-1000/2000/4000 suffix).
  size_t num_samples = 1000;
  /// Paths are processed in shards of exactly this many (last shard takes
  /// the remainder). The shard is the unit of determinism AND of
  /// parallelism: per-shard RNG streams are derived from (seed, shard), so
  /// changing the thread count never changes an estimate. It also bounds
  /// workspace memory and amortizes model forward passes (per-row forward
  /// cost is flat from 128 rows up, so small shards cost nothing there).
  /// NOTE: because the shard layout defines the RNG streams, changing
  /// this value — including its default — changes every estimate for a
  /// given seed and invalidates any memoized results.
  size_t shard_size = 128;
  uint64_t seed = 7;
  /// Use the uniform-region strawman instead of progressive sampling.
  bool uniform_region = false;
  /// Degree of shard parallelism: 1 = serial on the calling thread, any
  /// other value = spread shards across `thread_pool`. Only consulted when
  /// the model supports concurrent sampling; results never depend on it.
  size_t parallelism = 0;
  /// Pool for shard execution (nullptr = the process-global pool).
  ThreadPool* thread_pool = nullptr;
};

class ProgressiveSampler {
 public:
  ProgressiveSampler(ConditionalModel* model, ProgressiveSamplerConfig cfg);

  /// Unbiased estimate of the query's selectivity.
  double EstimateSelectivity(const Query& query);

  /// As EstimateSelectivity, and also reports the Monte Carlo standard
  /// error of the estimate (sample stddev of the path weights / sqrt(S)).
  /// Exact answers (empty region, all-wildcard, single leading filter)
  /// report 0. A ±2·stderr interval is the usual ~95% confidence band an
  /// optimizer can use to decide whether to spend more sample paths.
  double EstimateWithStdError(const Query& query, double* std_error);

  /// Per-request overrides (NaruEstimator::Estimate's EstimateOptions).
  struct RunOptions {
    /// Per-call sample-path budget: 0 = inherit config. A nonzero value
    /// serves this call with that many paths — bit-identical to a sampler
    /// configured with the same num_samples (the shard layout and RNG
    /// streams depend only on (seed, shard_size, num_samples)). Carries
    /// EstimateRequest's per-request budget (serve/request.h).
    size_t num_samples = 0;
    /// Soft mid-walk deadline (steady_clock; kNoDeadline = none).
    /// Checked BETWEEN column steps of the sampled walk — never inside a
    /// kernel, so a walk that runs to completion is bit-identical to one
    /// run without a deadline. Once the shared inclusive predicate
    /// (util/deadline.h) trips, every shard of the walk is abandoned;
    /// `*abandoned` is set and the returned estimate is NaN — the caller
    /// must replace it with a typed DEADLINE_EXCEEDED status. Exact
    /// shortcut paths (empty, all-wildcard, leading-only) and the
    /// uniform-region strawman are never abandoned.
    std::chrono::steady_clock::time_point deadline = kNoDeadline;
    /// Out-param (may be nullptr): set to true when the walk was
    /// abandoned on `deadline`; never written otherwise.
    bool* abandoned = nullptr;
  };

  /// As EstimateWithStdError with a per-call budget and deadline.
  double EstimateWithOptions(const Query& query, double* std_error,
                             const RunOptions& options);

  /// How a query will be answered. The serving engine routes on this so
  /// its fast paths can never diverge from the sampler's own.
  enum class Path {
    kEmpty,        ///< some region empty: exactly 0
    kAllWildcard,  ///< no constrained position: exactly 1
    kLeadingOnly,  ///< only position 0 constrained: exact marginal mass
    kSampled,      ///< full progressive-sampling walk
  };
  Path Classify(const Query& query) const;

  /// Exact contained mass of the query's region at model position 0,
  /// P̂(X_0 ∈ R_0) — the answer when position 0 is the only constrained
  /// position (the "single leading filter" fast path, no sampling needed).
  /// Exposed so the serving engine can cache it keyed on the masked region.
  double LeadingOnlyMass(const Query& query);

  /// Shard count for the configured S (diagnostics/tests).
  size_t NumShards() const;

  const ProgressiveSamplerConfig& config() const { return cfg_; }

 private:
  /// Walks one shard of `rows` paths; returns the shard's weight sum and
  /// adds squared weights into *weight_sq_sum. `deadline` (time_point::
  /// max() = none) is re-checked between column steps against the shared
  /// `abandoned` flag: the first shard to observe expiry sets it, every
  /// shard bails at its next column boundary, and the partial sums are
  /// discarded by the caller.
  double ShardWeightSum(const Query& query, size_t rows, int last_col,
                        Rng* rng, SamplerWorkspace* ws,
                        double* weight_sq_sum,
                        std::chrono::steady_clock::time_point deadline,
                        std::atomic<bool>* abandoned);
  double UniformShardWeightSum(const Query& query, size_t rows, Rng* rng,
                               SamplerWorkspace* ws);

  /// Independent RNG stream for shard `shard` of a fixed seed.
  static uint64_t ShardSeed(uint64_t seed, size_t shard);

  /// Last constrained model position of `query`, or -1 if none.
  int LastConstrainedPosition(const Query& query) const;

  ConditionalModel* model_;
  ProgressiveSamplerConfig cfg_;
  SamplerWorkspacePool workspaces_;
};

}  // namespace naru
