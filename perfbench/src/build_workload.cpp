// `build`: the paper's train-evaluate-extend loop (EsmFramework::run), run
// as two fixed campaigns at paper defaults — ResNet on rtx4090, then
// MobileNetV3 on rpi4 under the `flaky` fault profile. One operation is one
// campaign; a round is both campaigns, and the window runs whole rounds.
//
// The campaigns themselves do not depend on the run seed: how many
// extension iterations a campaign needs, and so its cost, varies up to 2x
// between campaign seeds, which would hide any code change. The seed draws
// the fresh balanced set that the accuracy metric and the save/load check
// use.
//
// A campaign counts as failed when it does not converge or when its
// surrogate misses Acc_TH in some depth bin of a large fixed verdict set
// priced with hwsim true latency. The verdict set does not depend on the
// seed, so a campaign that fails, fails in every run. A bin that falls
// below Acc_TH by more than two standard errors of the framework's own
// held-out estimate makes the run incorrect.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "common/rng.hpp"
#include "esm/dataset_gen.hpp"
#include "hwsim/latency_model.hpp"
#include "linalg/matrix.hpp"
#include "nets/builder.hpp"
#include "nets/depth_bins.hpp"
#include "nets/sampler.hpp"
#include "probes.hpp"
#include "surrogate/registry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCheckArchs = 1000;  ///< seed-drawn set per campaign
constexpr std::size_t kVerdictArchs = 10000;  ///< fixed verdict set
constexpr std::uint64_t kVerdictSeed = 0x5eed;

/// A fresh balanced set with hwsim true latencies, for one campaign.
struct CheckSet {
  esm::SupernetSpec spec;
  std::vector<esm::ArchConfig> archs;
  std::vector<double> truth;
  std::vector<int> bin;
  int n_bins = 0;
};

CheckSet make_check_set(const Campaign& campaign, std::uint64_t seed,
                        std::size_t size) {
  const esm::EsmConfig config = campaign.config();
  CheckSet set;
  set.spec = config.spec;
  set.n_bins = config.n_bins;
  esm::Rng rng(seed);
  esm::BalancedSampler sampler(set.spec, config.n_bins);
  set.archs = sampler.sample_n(size, rng);
  const esm::LatencyModel model(esm::device_by_name(campaign.device));
  const esm::DepthBins bins(set.spec, config.n_bins);
  for (const esm::ArchConfig& arch : set.archs) {
    set.truth.push_back(
        model.true_latency_ms(esm::build_graph(set.spec, arch)));
    set.bin.push_back(bins.bin_of(arch.total_blocks()));
  }
  return set;
}

/// Accuracy of `predicted` against the check set in one depth bin.
struct BinAccuracy {
  double mean = 0.0;
  double sd = 0.0;  ///< spread of the per-arch accuracies
};

std::vector<BinAccuracy> bin_accuracy(const CheckSet& set,
                                      const std::vector<double>& predicted) {
  std::vector<double> sum(static_cast<std::size_t>(set.n_bins), 0.0);
  std::vector<double> sum_sq(sum.size(), 0.0);
  std::vector<double> count(sum.size(), 0.0);
  for (std::size_t i = 0; i < set.archs.size(); ++i) {
    const std::size_t b = static_cast<std::size_t>(set.bin[i]);
    const double a = sample_accuracy(predicted[i], set.truth[i]);
    sum[b] += a;
    sum_sq[b] += a * a;
    count[b] += 1.0;
  }
  std::vector<BinAccuracy> out(sum.size());
  for (std::size_t b = 0; b < sum.size(); ++b) {
    if (count[b] == 0.0) continue;
    out[b].mean = sum[b] / count[b];
    out[b].sd = std::sqrt(
        std::max(0.0, sum_sq[b] / count[b] - out[b].mean * out[b].mean));
  }
  return out;
}

/// Archs per depth bin in the held-out set a campaign stopped on.
std::vector<double> held_out_per_bin(const Campaign& campaign,
                                     const std::vector<esm::MeasuredSample>& test) {
  const esm::EsmConfig config = campaign.config();
  const esm::DepthBins bins(config.spec, config.n_bins);
  std::vector<double> count(static_cast<std::size_t>(config.n_bins), 0.0);
  for (const esm::MeasuredSample& sample : test) {
    count[static_cast<std::size_t>(bins.bin_of(sample.arch.total_blocks()))] +=
        1.0;
  }
  return count;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// GFLOP/s of esm::gemm at the MLP's training shape, batch 256 x 64
/// hidden units times 64 x 64 weights.
double probe_gemm_gflops_b256() {
  esm::Matrix a(256, 64);
  esm::Matrix b(64, 64);
  esm::Matrix out(256, 64);
  for (std::size_t r = 0; r < 256; ++r) {
    for (std::size_t c = 0; c < 64; ++c) a(r, c) = 0.01 * double(r ^ c);
  }
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 64; ++c) b(r, c) = 0.02 * double(r + c);
  }
  const double ns = probe_ns_per_call(
      "probe.linalg.gemm", 1, [&] { esm::gemm(a, b, out); }, 0.2);
  return 2.0 * 256.0 * 64.0 * 64.0 / ns;
}

}  // namespace

void run_build(const Options& options, Report& report) {
  if (options.trace) register_traced_mlp();
  const std::vector<Campaign> campaigns = build_campaigns();

  // Set-up: draw and price the check sets (repeated; median reported).
  std::vector<CheckSet> checks;
  const double setup_s = median_setup_seconds([&] {
    checks.clear();
    for (std::size_t c = 0; c < campaigns.size(); ++c) {
      checks.push_back(
          make_check_set(campaigns[c], mix_seed(options.seed, c), kCheckArchs));
    }
  });

  // Measured window: whole rounds of both campaigns.
  const std::string key = options.trace ? kTracedMlpKey : "mlp";
  std::vector<double> op_ms;
  std::vector<std::unique_ptr<esm::TrainableSurrogate>> first(campaigns.size());
  std::vector<std::unique_ptr<esm::TrainableSurrogate>> last(campaigns.size());
  std::vector<bool> converged(campaigns.size(), true);
  std::vector<std::vector<double>> held_out(campaigns.size());
  double samples = 0.0;
  double iterations = 0.0;
  double device_s = 0.0;
  int rounds = 0;
  const Clock::time_point start = Clock::now();
  while (rounds == 0 || seconds_since(start) < options.seconds) {
    for (std::size_t c = 0; c < campaigns.size(); ++c) {
      const Clock::time_point op_start = Clock::now();
      esm::EsmResult result;
      {
        ScopedSpan span("esm.framework.run");
        result = run_campaign(campaigns[c], key);
      }
      op_ms.push_back(seconds_since(op_start) * 1e3);
      ++report.attempted;
      if (!result.converged) ++report.failed;
      converged[c] = converged[c] && result.converged;
      samples += static_cast<double>(result.final_train_set_size +
                                     result.test_set.size());
      iterations += static_cast<double>(result.iterations.size());
      device_s += result.total_measurement_seconds;
      if (held_out[c].empty()) {
        held_out[c] = held_out_per_bin(campaigns[c], result.test_set);
      }
      auto predictor = unwrap_traced(std::move(result.predictor));
      if (!first[c]) {
        first[c] = std::move(predictor);
      } else {
        last[c] = std::move(predictor);
      }
    }
    ++rounds;
  }
  const double elapsed = seconds_since(start);
  const double rss_mb = peak_rss_mb();

  // Output checks against hwsim truth.
  double accuracy_sum = 0.0;
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    const std::string label = campaigns[c].artifact_name();
    const esm::TrainableSurrogate& model = *first[c];

    // Verdict on the fixed verdict set, per depth bin. Missing Acc_TH
    // fails the campaign. Falling more than two standard errors of the
    // framework's own held-out estimate below Acc_TH makes the run
    // incorrect: the framework stopped because that estimate reached
    // Acc_TH, so fresh archs from the same distribution may sit below it
    // only by its sampling error.
    const CheckSet verdict =
        make_check_set(campaigns[c], kVerdictSeed + c, kVerdictArchs);
    const std::vector<BinAccuracy> per_bin =
        bin_accuracy(verdict, model.predict_all(verdict.archs));
    const double acc_th = campaigns[c].config().acc_threshold;
    bool meets_threshold = true;
    double worst = 1.0;
    for (std::size_t b = 0; b < per_bin.size(); ++b) {
      worst = std::min(worst, per_bin[b].mean);
      const double floor =
          acc_th - 2.0 * per_bin[b].sd / std::sqrt(held_out[c][b]);
      if (per_bin[b].mean < acc_th) {
        meets_threshold = false;
        std::cout << label << ": depth bin " << b << " accuracy "
                  << per_bin[b].mean << " on the verdict set is below Acc_TH"
                  << " (floor " << floor << ")\n";
      }
      report.check(per_bin[b].mean >= floor,
                   label + ": depth bin " + std::to_string(b) + " accuracy " +
                       std::to_string(per_bin[b].mean) +
                       " is below Acc_TH by more than the held-out set's "
                       "sampling error");
    }
    std::cout << label << ": worst depth-bin accuracy " << worst << "\n";
    // The campaign is deterministic (checked below), so every round of a
    // campaign that misses the threshold failed; non-convergence is
    // already counted.
    if (!meets_threshold && converged[c]) {
      report.failed += static_cast<std::uint64_t>(rounds);
    }

    // Accuracy metric and round-trip checks on the seed's fresh set.
    const std::vector<double> predicted = model.predict_all(checks[c].archs);
    double overall = 0.0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      overall += sample_accuracy(predicted[i], checks[c].truth[i]);
    }
    accuracy_sum += overall / static_cast<double>(predicted.size());
    if (last[c]) {
      report.check(bit_equal(predicted, last[c]->predict_all(checks[c].archs)),
                   label + ": rounds of the same campaign disagree");
    }
    // Save -> load must reproduce every prediction bit for bit.
    const std::string path = options.work_dir + "/build-" + label;
    esm::save_surrogate(model, path);
    std::unique_ptr<esm::TrainableSurrogate> loaded;
    {
      ScopedSpan span("surrogate.load");
      loaded = esm::load_surrogate(path);
    }
    report.check(bit_equal(predicted, loaded->predict_all(checks[c].archs)),
                 label + ": save/load round trip changed predictions");
  }

  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", rss_mb, "MB");
  report.e2e("ops_per_s", static_cast<double>(op_ms.size()) / elapsed, "1/s");
  report.e2e("op_p50_ms", median(op_ms), "ms");
  report.e2e("op_p99_ms", quantile(op_ms, 0.99), "ms");
  report.e2e("archs_per_s", samples / elapsed, "1/s");
  report.e2e("holdout_acc_pct",
             100.0 * accuracy_sum / static_cast<double>(campaigns.size()),
             "%");
  std::cout << "build: " << rounds << " round(s), " << op_ms.size()
            << " campaigns in " << elapsed << " s\n";
  if (!options.trace) return;

  // Per-layer numbers: spans of the measured window, per round.
  const Tracer& tracer = Tracer::instance();
  const double per_round = 1.0 / static_cast<double>(rounds);
  const Tracer::Totals fit = tracer.totals_of("ml.fit");
  report.layer("ml.fit_s", fit.total_s * per_round, "s");
  report.layer("ml.fit_gflops",
               tracer.counter("ml.fit_flops") / fit.total_s * 1e-9, "GFLOP/s");
  report.layer("ml.fit_minor_faults",
               tracer.counter("ml.fit_minor_faults") * per_round, "count");
  report.layer("esm.framework.iterations", iterations * per_round, "count");
  report.layer("esm.framework.self_s",
               tracer.totals_of("esm.framework.run").self_s * per_round, "s");
  report.layer("esm.dataset_gen.device_s", device_s * per_round, "sim-s");
  report.layer("surrogate.load_ms",
               tracer.totals_of("surrogate.load").total_s * 1e3 /
                   static_cast<double>(campaigns.size()),
               "ms");

  // Probes on the campaigns' own inputs.
  const double gflops = probe_gemm_gflops_b256();
  report.layer("linalg.gemm_gflops.b256", gflops, "GFLOP/s");
  report.layer("linalg.gemm_peak_frac.b256", gflops / esm::gemm_peak_gflops(),
               "ratio");
  double sessions = 0.0;
  double retries = 0.0;
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    // One initial-size batch through a fresh generator, as a campaign's
    // first measure_batch.
    const esm::EsmConfig config = campaigns[c].config();
    esm::SimulatedDevice device(esm::device_by_name(campaigns[c].device),
                                campaigns[c].seed);
    esm::DatasetGenerator generator(config, device, esm::Rng(options.seed));
    const std::vector<esm::ArchConfig> batch(
        checks[c].archs.begin(), checks[c].archs.begin() + config.n_initial);
    ScopedSpan span("esm.dataset_gen.measure_batch");
    const esm::DatasetReport measured = generator.measure_batch(batch).report;
    sessions += measured.sessions;
    retries += measured.retries;
  }
  const Tracer::Totals batches =
      tracer.totals_of("esm.dataset_gen.measure_batch");
  report.layer("esm.dataset_gen.sessions", sessions, "count");
  report.layer("esm.dataset_gen.retries", retries, "count");
  report.layer("esm.dataset_gen.measure_batch_ms",
               batches.total_s * 1e3 / static_cast<double>(batches.count),
               "ms");
  const CheckSet& gpu = checks[0];
  const std::span<const esm::ArchConfig> probe_archs(gpu.archs.data(), 200);
  const esm::DeviceSpec gpu_device =
      esm::device_by_name(campaigns[0].device);
  report.layer("hwsim.measure_us",
               probe_measure_us(gpu.spec, gpu_device, probe_archs), "us");
  report.layer("hwsim.true_latency_us",
               probe_true_latency_us(gpu.spec, gpu_device, probe_archs), "us");
  report.layer("nets.build_graph_us",
               probe_build_graph_us(gpu.spec, probe_archs), "us");
  report.layer("encoding.fcc_encode_ns",
               probe_fcc_encode_ns(gpu.spec, probe_archs), "ns");
}

}  // namespace perfbench
