// The tenant every perfbench workload serves, and its set-up.
//
// Table: MakeDmvLike, 20k rows, 11 columns, fixed data seed (the data is
// the deployment, not the workload; only queries and arrivals follow the
// run's --seed). Model: DmvModelConfig (4x128 MADE), 3 epochs. Estimator:
// NaruEstimatorConfig defaults except kernel = simd and num_samples =
// 1000. Engine: AsyncEngineConfig defaults except 2 engine threads.
// Served through ModelRegistry -> NetServer on loopback TCP.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/made.h"
#include "data/table.h"
#include "net/registry.h"
#include "net/server.h"
#include "query/query.h"

namespace perfbench {

inline constexpr size_t kTableRows = 20000;
inline constexpr uint64_t kDataSeed = 42;
inline constexpr uint64_t kModelSeed = 47;
inline constexpr size_t kEpochs = 3;
inline constexpr size_t kEngineThreads = 2;
inline constexpr const char* kTenantName = "dmv";

naru::Table MakeTenantTable();
naru::TenantOptions TenantServingOptions();

/// Per-epoch wall time and NLL of one training run.
struct TrainRecord {
  std::vector<double> epoch_s;
  std::vector<double> epoch_nll_bits;

  double TotalSeconds() const;
};

/// Trains the tenant model on `table` with naru's Trainer, one timed
/// RunEpoch per epoch (the same schedule as the bench helpers'
/// TrainModel: batch 512, lr 2e-3, decay 0.92).
std::unique_ptr<naru::MadeModel> TrainTenantModel(const naru::Table& table,
                                                  TrainRecord* record);

/// A fresh model of the tenant configuration carrying `src`'s weights
/// bit for bit.
std::unique_ptr<naru::MadeModel> CloneModel(const naru::Table& table,
                                            naru::MadeModel* src);

/// Registers `model` as tenant `name` with the tenant options.
naru::Status RegisterTenant(naru::ModelRegistry* registry,
                            const std::string& name,
                            const naru::Table& table,
                            std::unique_ptr<naru::ConditionalModel> model,
                            size_t model_bytes);

/// A registry and a started loopback server over it. Destruction shuts
/// the server down (graceful drain) before the registry goes.
struct ServingStack {
  std::unique_ptr<naru::ModelRegistry> registry =
      std::make_unique<naru::ModelRegistry>();
  std::unique_ptr<naru::NetServer> server;

  naru::Status Start();
  void Shutdown();
  ~ServingStack() { Shutdown(); }
};

/// One complete set-up: table, trained model, executed ground truth for
/// `queries`, registry with the tenant, started server.
struct Setup {
  naru::Table table{""};
  TrainRecord train;
  std::vector<int64_t> truth;
  std::unique_ptr<ServingStack> stack;
  /// Weights-identical copy of the served model, kept out of the
  /// registry for reference estimates and direct layer measurements.
  std::unique_ptr<naru::MadeModel> spare;
  size_t model_bytes = 0;
  double seconds = 0.0;  ///< start of set-up until the server accepts
};

/// Runs one set-up. `queries` are the workload's inputs (generated by the
/// benchmark, not by the set-up).
naru::Status RunSetup(const std::vector<naru::Query>& queries, Setup* out);

}  // namespace perfbench
