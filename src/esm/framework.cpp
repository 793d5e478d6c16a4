#include "esm/framework.hpp"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "esm/extension.hpp"
#include "surrogate/registry.hpp"

namespace esm {

EsmFramework::EsmFramework(EsmConfig config, SimulatedDevice& device)
    : config_(std::move(config)), device_(&device) {
  config_.validate();
  // The knob routes through the global pool setting; 0 leaves whatever
  // ESM_THREADS (or a previous set_thread_count) established in place.
  if (config_.threads > 0) set_thread_count(config_.threads);
}

std::unique_ptr<TrainableSurrogate> EsmFramework::make_predictor() const {
  SurrogateContext context;
  context.spec = config_.spec;
  context.encoder = config_.encoder;
  context.train = config_.train;
  context.seed = config_.seed ^ 0xe5717a7eull;
  context.device = device_;
  context.ensemble_members = config_.ensemble_members;
  return SurrogateRegistry::instance().create(config_.surrogate, context);
}

EsmResult EsmFramework::run() { return run_impl(std::nullopt); }

EsmResult EsmFramework::run(std::vector<MeasuredSample> test_set) {
  return run_impl(std::move(test_set));
}

EsmResult EsmFramework::run_impl(
    std::optional<std::vector<MeasuredSample>> test_set) {
  Rng rng(config_.seed);
  DatasetGenerator generator(config_, *device_, rng.split());

  EsmResult result;

  // Held-out evaluation set: balanced so every depth bin is represented
  // (an all-random test set would leave corner bins untested). The RNG
  // split happens either way so a supplied test set leaves every
  // downstream sampling stream unchanged.
  {
    Rng test_rng = rng.split();
    if (test_set.has_value()) {
      result.test_set = std::move(*test_set);
      ESM_REQUIRE(!result.test_set.empty(),
                  "a supplied test set must not be empty");
    } else {
      BalancedSampler test_sampler(config_.spec, config_.n_bins);
      const std::vector<ArchConfig> test_archs = test_sampler.sample_n(
          static_cast<std::size_t>(config_.n_test), test_rng);
      result.test_set = generator.measure_batch(test_archs).samples;
    }
  }

  // Initial training set (input N_I) under the configured strategy.
  Rng sample_rng = rng.split();
  {
    auto sampler =
        make_sampler(config_.spec, config_.strategy, config_.n_bins);
    const std::vector<ArchConfig> initial = sampler->sample_n(
        static_cast<std::size_t>(config_.n_initial), sample_rng);
    result.train_set = generator.measure_batch(initial).samples;
  }

  const BinwiseEvaluator evaluator(config_.spec, config_.n_bins,
                                   config_.acc_threshold);

  // Training views grow incrementally instead of being rebuilt from the
  // sample structs every iteration.
  std::vector<ArchConfig> archs;
  std::vector<double> latencies;
  archs.reserve(result.train_set.size());
  latencies.reserve(result.train_set.size());
  for (const MeasuredSample& s : result.train_set) {
    archs.push_back(s.arch);
    latencies.push_back(s.latency_ms);
  }

  double measured_cost_before = device_->measurement_cost_seconds();
  for (int iteration = 1; iteration <= config_.max_iterations; ++iteration) {
    // Train from scratch on the current dataset (the paper retrains after
    // every extension).
    auto predictor = make_predictor();
    const auto fit_start = std::chrono::steady_clock::now();
    predictor->fit(SurrogateDataset{archs, latencies});
    const std::chrono::duration<double> fit_elapsed =
        std::chrono::steady_clock::now() - fit_start;

    IterationReport report;
    report.iteration = iteration;
    report.train_set_size = result.train_set.size();
    report.train_seconds = fit_elapsed.count();
    report.eval = evaluator.evaluate(*predictor, result.test_set);
    report.passed =
        report.eval.passed(config_.eval_strategy, config_.acc_threshold);
    const double measured_cost_now = device_->measurement_cost_seconds();
    report.measurement_seconds = measured_cost_now - measured_cost_before;
    measured_cost_before = measured_cost_now;

    result.total_train_seconds += report.train_seconds;
    result.iterations.push_back(report);
    result.predictor = std::move(predictor);

    if (report.passed) {
      result.converged = true;
      break;
    }
    if (iteration == config_.max_iterations) break;

    // Extend the dataset (Algorithm 1) and measure the new samples.
    const std::vector<ArchConfig> extension =
        extend_dataset(config_, report.eval, sample_rng);
    std::vector<MeasuredSample> extra =
        generator.measure_batch(extension).samples;
    archs.reserve(archs.size() + extra.size());
    latencies.reserve(latencies.size() + extra.size());
    for (const MeasuredSample& s : extra) {
      archs.push_back(s.arch);
      latencies.push_back(s.latency_ms);
    }
    result.train_set.insert(result.train_set.end(),
                            std::make_move_iterator(extra.begin()),
                            std::make_move_iterator(extra.end()));
  }

  result.final_train_set_size = result.train_set.size();
  result.total_measurement_seconds = device_->measurement_cost_seconds();
  result.replayed_batches = generator.replayed_batches();
  return result;
}

}  // namespace esm
