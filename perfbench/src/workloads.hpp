// The benchmark's workloads and the fixed campaigns they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "esm/config.hpp"
#include "esm/framework.hpp"
#include "hwsim/device.hpp"

namespace perfbench {

/// One ESM train-evaluate-extend campaign at paper defaults (balanced
/// sampling, FCC encoding, the 3x64 MLP, Acc_TH 0.95).
struct Campaign {
  std::string space;   ///< resnet | mobilenetv3 | densenet
  std::string device;  ///< device short name
  std::string faults;  ///< fault profile ("none", "flaky", ...)
  std::uint64_t seed = 42;

  esm::EsmConfig config() const;
  /// Artifact file name, "<space>_<device>.esm".
  std::string artifact_name() const;
};

/// The two campaigns of the `build` workload.
std::vector<Campaign> build_campaigns();
/// The campaigns whose artifacts `search` and `serve` load.
std::vector<Campaign> artifact_campaigns();

/// Runs `campaign` through EsmFramework::run on a fresh simulated device;
/// `surrogate_key` overrides the registry key (the traced run passes the
/// traced MLP kind).
esm::EsmResult run_campaign(const Campaign& campaign,
                            const std::string& surrogate_key = "mlp");

/// Trains every artifact campaign and saves it under `out_dir`. Returns a
/// process exit code.
int make_artifacts(const std::string& out_dir);

void run_build(const Options& options, Report& report);
void run_search(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);

}  // namespace perfbench
