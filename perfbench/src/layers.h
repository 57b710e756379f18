// Direct per-layer measurements of the traced run.
//
// Each function calls one layer's public functions from the benchmark,
// on the workload's own inputs or the tenant model's own shapes, times
// the calls (spans named "<layer>.<call>") and adds the layer's metrics.
#pragma once

#include <vector>

#include "core/made.h"
#include "data/table.h"
#include "loadgen.h"
#include "plan/sampling_plan.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// A served phase with the plan it ran (records[i] answers plan[i]).
struct PhaseView {
  const PhaseResult* phase;
  const std::vector<PlannedRequest>* plan;
};

/// net: exact bytes per request/response frame, and encode/decode time
/// per request+response pair on the frames of `phases` (at most 4096).
void AddNetCodecMetrics(const std::vector<naru::Query>& queries,
                        const std::vector<PhaseView>& phases,
                        const std::string& tenant, MetricSet* out,
                        SpanRecorder* spans);

/// Column-walk counts of compiling `sampled` in engine-sized batches
/// against `model` (exact; no execution).
struct PlanCounts {
  size_t batches = 0;
  size_t trees = 0;
  size_t walk_cols = 0;
  size_t shared_cols = 0;
  bool operator==(const PlanCounts&) const = default;
};

/// Compiles `sampled` (queries the engine routes to sampling) in batches
/// of the engine's max_batch_size against `model`, as the engine does.
/// `plans` (optional) receives the compiled plans.
PlanCounts CompilePlans(const naru::ConditionalModel* model,
                        const std::vector<const naru::Query*>& sampled,
                        std::vector<naru::SamplingPlan>* plans,
                        SpanRecorder* spans);

/// plan: compile time per batch, counts, and execution time per query of
/// the first batch on the engine's thread count.
void AddPlanMetrics(naru::MadeModel* model,
                    const std::vector<const naru::Query*>& sampled,
                    MetricSet* out, SpanRecorder* spans);

/// tensor: trunk/head GEMM rates at the model's shapes, softmax cost per
/// row, and the computed FLOPs of `rows_per_query` evaluated rows.
void AddTensorMetrics(naru::MadeModel* model, double rows_per_query,
                      MetricSet* out, SpanRecorder* spans);

/// train: one instrumented epoch on a fresh tenant model (forward/
/// backward and Adam timed per batch) plus `epoch_s` from the set-up.
void AddTrainMetrics(const naru::Table& table, double epoch_s,
                     MetricSet* out, SpanRecorder* spans);

}  // namespace perfbench
