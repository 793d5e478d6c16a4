// The fixed campaigns and the command that remakes the MLP artifacts.
#include <filesystem>
#include <iostream>

#include "hwsim/faults.hpp"
#include "nets/supernet.hpp"
#include "surrogate/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

esm::EsmConfig Campaign::config() const {
  esm::EsmConfig config;
  config.spec = esm::spec_by_name(space);
  config.strategy = esm::SamplingStrategy::kBalanced;
  config.surrogate = "mlp";
  config.encoder = "fcc";
  config.acc_threshold = 0.95;
  config.faults = esm::parse_fault_profile(faults);
  config.threads = 1;
  config.seed = seed;
  return config;
}

std::string Campaign::artifact_name() const {
  return space + "_" + device + ".esm";
}

std::vector<Campaign> build_campaigns() {
  return {{"resnet", "rtx4090", "none", 42},
          {"mobilenetv3", "rpi4", "flaky", 42}};
}

std::vector<Campaign> artifact_campaigns() {
  return {{"resnet", "rtx4090", "none", 42},
          {"mobilenetv3", "rtx4090", "none", 42},
          {"densenet", "rtx4090", "none", 42},
          {"resnet", "rpi4", "none", 42}};
}

esm::EsmResult run_campaign(const Campaign& campaign,
                            const std::string& surrogate_key) {
  esm::EsmConfig config = campaign.config();
  config.surrogate = surrogate_key;
  esm::SimulatedDevice device(esm::device_by_name(campaign.device),
                              campaign.seed);
  return esm::EsmFramework(config, device).run();
}

int make_artifacts(const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  for (const Campaign& campaign : artifact_campaigns()) {
    const Clock::time_point start = Clock::now();
    const esm::EsmResult result = run_campaign(campaign);
    if (!result.converged) {
      std::cerr << "artifact campaign " << campaign.artifact_name()
                << " did not converge\n";
      return 1;
    }
    const std::string path = out_dir + "/" + campaign.artifact_name();
    esm::save_surrogate_atomic(*result.predictor, path);
    std::cerr << "made " << path << " (" << result.iterations.size()
              << " iterations, " << result.final_train_set_size
              << " samples, " << seconds_since(start) << " s)\n";
  }
  return 0;
}

}  // namespace perfbench
