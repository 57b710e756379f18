#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "query/workload.h"
#include "serve/query_key.h"
#include "util/random.h"

namespace perfbench {

namespace {

// Share of --seconds given to the open-loop phase: its latency median
// needs the samples more than the closed-loop rate does.
constexpr double kOpenShare = 2.0 / 3.0;

// sampled-distinct: offered open-loop rate and the nominal capacity that
// sizes the closed-loop phase. Capacity is ~40-50 req/s on a 4-core x86
// VM; the rate is a quarter of it, not half, because on a shared host a
// slow period can halve the capacity, and at half load that saturates the
// engine and doubles the median.
constexpr double kDistinctOpenQps = 10.0;
constexpr double kDistinctNominalQps = 40.0;

// hot-repeat: template pool, accuracy pool, Zipf exponent, offered
// open-loop rate and the nominal closed-loop capacity (~44k req/s on the
// same box). The accuracy pool is served once in the warm-up and its first
// kHotTemplates queries are the templates. Q-error is read over the whole
// pool: over ten seeds, the quartile spread of the median q-error was
// 0.12-0.28 of it for 64 queries and about 0.05 for 512.
constexpr size_t kHotTemplates = 64;
constexpr size_t kHotAccuracyQueries = 512;
constexpr double kHotZipf = 1.1;
constexpr double kHotOpenQps = 3000.0;
constexpr double kHotNominalQps = 40000.0;

/// Independent sub-seeds of the run seed, one per input stream.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  naru::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.Next();
}

/// Up to `want` queries with pairwise-distinct canonical keys, in
/// generation order (a duplicate would be served from the memo or join
/// its twin).
std::vector<naru::Query> DistinctQueries(const naru::Table& table,
                                         naru::WorkloadConfig cfg,
                                         size_t want) {
  std::vector<naru::Query> out;
  for (size_t ask = want; ask <= 16 * want; ask *= 2) {
    cfg.num_queries = ask;
    std::vector<naru::Query> all = naru::GenerateWorkload(table, cfg);
    out.clear();
    std::unordered_set<std::string> seen;
    for (naru::Query& q : all) {
      if (!seen.insert(naru::QueryKey(q)).second) continue;
      out.push_back(std::move(q));
      if (out.size() == want) return out;
    }
  }
  return out;
}

/// Poisson arrivals at `qps` for `n` requests (GenerateOpenLoopTrace's
/// clock; its pool picks are replaced by the caller).
std::vector<PlannedRequest> PoissonPlan(size_t n, double qps, uint64_t seed) {
  const std::vector<naru::OpenLoopRequest> trace =
      naru::GenerateOpenLoopTrace(n, qps, /*pool_size=*/1, seed);
  std::vector<PlannedRequest> plan(n);
  for (size_t i = 0; i < n; ++i) plan[i].due_ms = trace[i].arrival_ms;
  return plan;
}

size_t Count(double qps, double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(qps * seconds)));
}

bool MakeSampledDistinct(const naru::Table& table, uint64_t seed,
                         double seconds, Workload* w) {
  const size_t n_open = Count(kDistinctOpenQps, seconds * kOpenShare);
  const size_t n_closed =
      Count(kDistinctNominalQps, seconds * (1.0 - kOpenShare));
  naru::WorkloadConfig cfg;  // §6.1.3 defaults: 5-11 filters
  cfg.seed = SubSeed(seed, 1);
  w->queries = DistinctQueries(table, cfg, n_open + n_closed);
  if (w->queries.size() != n_open + n_closed) return false;
  w->open = PoissonPlan(n_open, kDistinctOpenQps, SubSeed(seed, 2));
  for (size_t i = 0; i < n_open; ++i) w->open[i].query = i;
  w->closed.resize(n_closed);
  for (size_t i = 0; i < n_closed; ++i) w->closed[i].query = n_open + i;
  w->open_qps = kDistinctOpenQps;
  w->expects_memo = false;
  return true;
}

bool MakeHotRepeat(const naru::Table& table, uint64_t seed, double seconds,
                   Workload* w) {
  naru::WorkloadConfig cfg;
  cfg.min_filters = 1;
  cfg.max_filters = 8;
  cfg.seed = SubSeed(seed, 1);
  w->queries = DistinctQueries(table, cfg, kHotAccuracyQueries);
  if (w->queries.size() != kHotAccuracyQueries) return false;

  // Zipf rank -> template: a seeded permutation, so the hottest template
  // is not always the first one generated.
  naru::Rng rng(SubSeed(seed, 3));
  std::vector<size_t> rank_to_template(kHotTemplates);
  for (size_t i = 0; i < kHotTemplates; ++i) rank_to_template[i] = i;
  rng.Shuffle(&rank_to_template);
  const naru::ZipfTable zipf(kHotTemplates, kHotZipf);

  w->warmup.resize(kHotAccuracyQueries);
  for (size_t i = 0; i < kHotAccuracyQueries; ++i) w->warmup[i].query = i;
  w->open = PoissonPlan(Count(kHotOpenQps, seconds * kOpenShare),
                        kHotOpenQps, SubSeed(seed, 2));
  for (PlannedRequest& r : w->open) {
    r.query = rank_to_template[zipf.Sample(&rng)];
  }
  w->closed.resize(Count(kHotNominalQps, seconds * (1.0 - kOpenShare)));
  for (PlannedRequest& r : w->closed) {
    r.query = rank_to_template[zipf.Sample(&rng)];
  }
  w->open_qps = kHotOpenQps;
  w->expects_memo = true;
  return true;
}

}  // namespace

bool MakeWorkload(const std::string& name, const naru::Table& table,
                  uint64_t seed, double seconds, Workload* out) {
  out->name = name;
  if (name == "sampled-distinct") {
    return MakeSampledDistinct(table, seed, seconds, out);
  }
  if (name == "hot-repeat") return MakeHotRepeat(table, seed, seconds, out);
  return false;
}

}  // namespace perfbench
