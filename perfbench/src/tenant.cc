#include "tenant.h"

#include <numeric>
#include <utility>

#include "bench_common.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "query/executor.h"

namespace perfbench {

naru::Table MakeTenantTable() {
  return naru::MakeDmvLike(kTableRows, kDataSeed);
}

naru::TenantOptions TenantServingOptions() {
  naru::TenantOptions opts;
  opts.estimator.num_samples = 1000;
  opts.estimator.kernel = naru::KernelKind::kSimd;
  opts.engine.engine.num_threads = kEngineThreads;
  return opts;
}

double TrainRecord::TotalSeconds() const {
  return std::accumulate(epoch_s.begin(), epoch_s.end(), 0.0);
}

std::unique_ptr<naru::MadeModel> TrainTenantModel(const naru::Table& table,
                                                  TrainRecord* record) {
  auto model = std::make_unique<naru::MadeModel>(
      naru::bench::TableDomains(table),
      naru::bench::DmvModelConfig(kModelSeed));
  naru::TrainerConfig tcfg;
  tcfg.epochs = kEpochs;
  tcfg.batch_size = 512;
  tcfg.lr = 2e-3;
  tcfg.lr_decay = 0.92;
  naru::Trainer trainer(model.get(), tcfg);
  for (size_t e = 0; e < kEpochs; ++e) {
    const auto start = std::chrono::steady_clock::now();
    const double nll = trainer.RunEpoch(table);
    record->epoch_s.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
    record->epoch_nll_bits.push_back(nll);
    trainer.optimizer().set_lr(trainer.optimizer().lr() * tcfg.lr_decay);
  }
  return model;
}

std::unique_ptr<naru::MadeModel> CloneModel(const naru::Table& table,
                                            naru::MadeModel* src) {
  auto copy = std::make_unique<naru::MadeModel>(
      naru::bench::TableDomains(table),
      naru::bench::DmvModelConfig(kModelSeed));
  std::vector<naru::Parameter*> from = src->Parameters();
  std::vector<naru::Parameter*> to = copy->Parameters();
  for (size_t i = 0; i < from.size(); ++i) to[i]->value = from[i]->value;
  return copy;
}

naru::Status RegisterTenant(naru::ModelRegistry* registry,
                            const std::string& name,
                            const naru::Table& table,
                            std::unique_ptr<naru::ConditionalModel> model,
                            size_t model_bytes) {
  return registry->AddTenant(name, "dmv", table.num_rows(),
                             naru::bench::TableDomains(table),
                             std::move(model), model_bytes,
                             TenantServingOptions());
}

naru::Status ServingStack::Start() {
  server = std::make_unique<naru::NetServer>(registry.get());
  return server->Start();
}

void ServingStack::Shutdown() {
  if (server != nullptr) server->Shutdown();
}

naru::Status RunSetup(const std::vector<naru::Query>& queries, Setup* out) {
  const auto start = std::chrono::steady_clock::now();
  out->table = MakeTenantTable();
  std::unique_ptr<naru::MadeModel> model =
      TrainTenantModel(out->table, &out->train);
  out->truth = naru::ExecuteCounts(out->table, queries);
  out->model_bytes = model->SizeBytes();
  naru::MadeModel* served = model.get();
  out->stack = std::make_unique<ServingStack>();
  naru::Status st = RegisterTenant(out->stack->registry.get(), kTenantName,
                                   out->table, std::move(model),
                                   out->model_bytes);
  if (st.ok()) st = out->stack->Start();
  out->seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  // Outside the timed span: the copy is the benchmark's, not the set-up's.
  if (st.ok()) out->spare = CloneModel(out->table, served);
  return st;
}

}  // namespace perfbench
