// Executes compiled SamplingPlans: hierarchical shared walk segments,
// forked branch walks, cross-query GEMM fusion.
//
// Execution model. The unit of work is a (tree, shard) task, walked
// column-synchronously with a FRONTIER of live branches:
//
//   1. The frontier starts as the tree's root — one block of shard_size
//      paths drawing from the shard's RNG stream
//      Rng(SamplerShardSeed(seed, shard)). Every query below a node takes
//      an identical column step across the node's segment (all wildcard,
//      or all constrained by the same region), so one block serves them
//      all: the (samples, weights, liveness, RNG state) after the segment
//      is what EVERY member's sequential walk would hold there.
//   2. At a column where some frontier node's segment ends, the stacked
//      row layout is rebuilt: the node's terminal queries reduce their
//      weight sums from the node's block (their walk is complete), and
//      each child forks off with a private copy of the block and of the
//      post-segment RNG state. Deeper shared segments then continue —
//      multi-depth sharing.
//   3. At every column, ONE stacked model evaluation covers every live
//      branch (the cross-query GEMM fusion; sound because every session is
//      pure, see SamplingSession), then each branch's block runs the
//      shared SamplerColumnStep kernel with its own RNG.
//
// Determinism: per member query, the draws consumed and the arithmetic
// applied are those of ProgressiveSampler's sequential shard walk — forks
// copy RNG state exactly where the sequential walks coincide, and every
// kernel on the stacked evaluation path is row-independent — so estimates
// (and standard errors) are bit-identical to the sequential path for a
// fixed seed, regardless of tree shape, batch composition, or thread
// count.
#pragma once

#include <vector>

#include "core/sampler.h"
#include "plan/sampling_plan.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace naru {

/// Execution knobs. Sampling fields mirror ProgressiveSamplerConfig (and
/// are part of the RNG-stream contract); execution fields only move work
/// between threads and never affect a result.
struct PlanExecutionOptions {
  /// Default sample-path budget; a PlanTree carrying a nonzero
  /// num_samples (a per-request budget from serve/request.h) overrides it
  /// for that tree's members.
  size_t num_samples = 1000;
  size_t shard_size = 128;
  uint64_t seed = 7;
  /// 1 = strictly serial on the calling thread; any other value spreads
  /// (tree, shard) tasks across `thread_pool` when the model supports
  /// concurrent sampling.
  size_t parallelism = 0;
  /// nullptr = the process-global pool.
  ThreadPool* thread_pool = nullptr;
  /// nullptr = a private pool for this call (the serving engine injects
  /// its shared pool so concurrent batches reuse one set of buffers).
  SamplerWorkspacePool* workspaces = nullptr;
};

/// Runs `plan` against `model`; (*estimates)[i] is the unbiased
/// selectivity estimate for plan.queries[i] — bit-identical to
/// ProgressiveSampler::EstimateWithStdError under the same
/// (num_samples, shard_size, seed). `std_errors` (optional) receives the
/// matching Monte Carlo standard errors. Serves every model: sessions are
/// pure (SamplingSession).
///
/// Mid-walk abandonment: a tree whose abandon_deadline (the latest
/// member deadline) has passed is given up BETWEEN column steps — never
/// inside a kernel — and every member of an abandoned tree reports a
/// DEADLINE_EXCEEDED entry in `statuses` (optional; parallel to
/// `estimates`, OK elsewhere) with a NaN estimate. Expiry is inclusive
/// (now >= deadline), the serve-layer predicate. Trees that are not
/// abandoned are bit-identical to a deadline-free run: the checkpoint
/// reads the clock, it never touches RNG streams or weights.
void ExecuteSamplingPlan(ConditionalModel* model, const SamplingPlan& plan,
                         const PlanExecutionOptions& options,
                         std::vector<double>* estimates,
                         std::vector<double>* std_errors = nullptr,
                         std::vector<Status>* statuses = nullptr);

}  // namespace naru
