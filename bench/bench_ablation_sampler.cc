// §5.1 ablation: progressive sampling vs the uniform-region strawman.
//
// Both samplers integrate the same trained model over the same queries with
// the same path budget. Expected shape (the paper's motivating failure):
// uniform sampling returns ~zero mass on most range queries over skewed,
// correlated data, collapsing at the tail, while progressive sampling stays
// accurate with the same number of paths.
#include <cstdio>

#include "bench_common.h"
#include "util/string_util.h"

namespace naru {
namespace bench {
namespace {

int Run() {
  const BenchEnv env = GetBenchEnv();
  const size_t queries = std::min<size_t>(env.queries, 60);
  PrintBanner("Ablation (§5.1): progressive vs uniform-region sampling",
              StrFormat("DMV rows=%zu queries=%zu", env.dmv_rows, queries));

  Table table = MakeDmvLike(env.dmv_rows, env.seed);
  const double n = static_cast<double>(table.num_rows());
  const Workload test = MakeWorkload(table, queries, env.seed + 1);
  auto model = TrainModel(table, DmvModelConfig(env.seed + 5), env.epochs,
                          "Naru(DMV)");

  constexpr size_t kPaths = 2000;
  std::vector<std::unique_ptr<ErrorReport>> reports;
  for (bool uniform : {false, true}) {
    ProgressiveSamplerConfig scfg;
    scfg.num_samples = kPaths;
    scfg.seed = env.seed + 6;
    scfg.uniform_region = uniform;
    ProgressiveSampler sampler(model.get(), scfg);
    reports.push_back(std::make_unique<ErrorReport>(
        StrFormat("%s-%zu", uniform ? "Uniform" : "Progr", kPaths)));
    for (size_t i = 0; i < test.queries.size(); ++i) {
      reports.back()->Add(sampler.EstimateSelectivity(test.queries[i]) * n,
                          static_cast<double>(test.cards[i]), test.sels[i]);
    }
  }
  std::vector<const ErrorReport*> rows;
  for (const auto& r : reports) rows.push_back(r.get());
  PrintErrorTable("Errors grouped by true selectivity:", rows);

  // Count uniform-sampler zero estimates (the paper's collapse symptom).
  ProgressiveSamplerConfig ucfg;
  ucfg.num_samples = 4000;
  ucfg.uniform_region = true;
  ProgressiveSampler uniform(model.get(), ucfg);
  size_t zeros = 0;
  size_t nonzero_truth = 0;
  for (size_t i = 0; i < test.queries.size(); ++i) {
    if (test.cards[i] == 0) continue;
    ++nonzero_truth;
    if (uniform.EstimateSelectivity(test.queries[i]) * n < 0.5) ++zeros;
  }
  std::printf("\n# uniform sampler returned ~0 on %zu / %zu queries with "
              "true matches\n",
              zeros, nonzero_truth);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace naru

int main(int argc, char** argv) {
  naru::bench::InitBench(argc, argv);
  return naru::bench::Run();
}
