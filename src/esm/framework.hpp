// The ESM framework: the train–evaluate–extend loop of paper Fig. 5.
//
//   1. Sample N_I architectures (random or balanced) and measure them under
//      reference-model quality control.
//   2. Train the MLP latency predictor on the encoded dataset.
//   3. Evaluate per depth bin against Acc_TH on a held-out test set.
//   4. If any bin fails, extend the dataset by N_Step samples (Algorithm 1,
//      weighted toward failing bins under the balanced strategy), retrain,
//      re-evaluate; repeat until every bin passes or the iteration budget
//      runs out.
//
// The run records per-iteration telemetry (dataset size, per-bin accuracy,
// measurement cost, training cost) that the Fig. 11 bench replays.
//
// The surrogate family and encoding are chosen by registry key from
// EsmConfig (surrogate/encoder); the loop never names a concrete type.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "esm/config.hpp"
#include "esm/dataset_gen.hpp"
#include "esm/evaluator.hpp"
#include "hwsim/measurement.hpp"
#include "surrogate/trainable.hpp"

namespace esm {

/// Telemetry for one train-evaluate(-extend) iteration.
struct IterationReport {
  int iteration = 0;            ///< 1-based
  std::size_t train_set_size = 0;
  EvalReport eval;
  double train_seconds = 0.0;   ///< wall-clock MLP training time
  double measurement_seconds = 0.0;  ///< simulated measuring time this iteration
  bool passed = false;
};

/// Outcome of a full framework run.
struct EsmResult {
  std::unique_ptr<TrainableSurrogate> predictor;
  std::vector<IterationReport> iterations;
  bool converged = false;
  std::size_t final_train_set_size = 0;
  double total_measurement_seconds = 0.0;
  double total_train_seconds = 0.0;
  /// Batches answered from a resumed campaign journal (config.journal)
  /// instead of measured; > 0 means this run continued an earlier one.
  std::size_t replayed_batches = 0;
  std::vector<MeasuredSample> train_set;
  std::vector<MeasuredSample> test_set;
};

/// Drives the full ESM loop against a (simulated) device.
class EsmFramework {
 public:
  /// The device must outlive the framework.
  EsmFramework(EsmConfig config, SimulatedDevice& device);

  /// Runs the loop to convergence (all bins >= Acc_TH) or exhaustion.
  EsmResult run();

  /// Same loop over a pre-measured held-out test set (e.g. from a previous
  /// run on the same device/seed), skipping its re-measurement. Used by
  /// ablations that vary only the surrogate kind.
  EsmResult run(std::vector<MeasuredSample> test_set);

  const EsmConfig& config() const { return config_; }

 private:
  std::unique_ptr<TrainableSurrogate> make_predictor() const;
  EsmResult run_impl(std::optional<std::vector<MeasuredSample>> test_set);

  EsmConfig config_;
  SimulatedDevice* device_;  // non-owning
};

}  // namespace esm
