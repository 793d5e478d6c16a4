#include "esm/pipeline.hpp"

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "esm/framework.hpp"
#include "hwsim/device.hpp"
#include "serve/fleet.hpp"
#include "surrogate/registry.hpp"

namespace esm {

void PipelineConfig::validate() const {
  ESM_REQUIRE(serve::valid_model_name(model_name),
              "invalid model name '"
                  << model_name
                  << "' (must match [A-Za-z][A-Za-z0-9_.-]*)");
  ESM_REQUIRE(!manifest_dir.empty(), "pipeline needs a --manifest-dir");
  ESM_REQUIRE(!device.empty(), "pipeline needs a device");
  esm.validate();
}

PipelineResult run_pipeline(const PipelineConfig& config) {
  config.validate();
  make_dirs(config.manifest_dir + "/.pipeline");

  // Stage 1: the journaled campaign. A missing journal is an empty resume,
  // so a first run and a rerun after kill -9 take the same path.
  EsmConfig esm = config.esm;
  esm.journal.path =
      config.manifest_dir + "/.pipeline/" + config.model_name + ".journal";
  esm.journal.resume = true;
  SimulatedDevice device(device_by_name(config.device), esm.seed);
  const EsmResult campaign = EsmFramework(esm, device).run();

  // Stage 2: gate. A model below Acc_TH never reaches the manifest.
  PipelineResult result;
  result.train_measured = campaign.final_train_set_size;
  result.test_measured = campaign.test_set.size();
  result.replayed_batches = campaign.replayed_batches;
  result.eval = campaign.iterations.back().eval;
  result.gate_passed = campaign.converged;
  if (!result.gate_passed) return result;

  // Stage 3: publish, artifact before manifest. Both writes are atomic;
  // a crash between them leaves the manifest referencing the previous
  // artifact state, and the rerun converges to the same final bytes.
  result.artifact_path =
      config.manifest_dir + "/" + config.model_name + ".esm";
  result.artifact_crc32 =
      save_surrogate_atomic(*campaign.predictor, result.artifact_path);

  result.manifest_path = config.manifest_dir + "/manifest.esmf";
  serve::FleetManifest manifest;
  if (path_exists(result.manifest_path)) {
    manifest = serve::FleetManifest::load(result.manifest_path);
  }
  serve::ManifestEntry entry;
  entry.name = config.model_name;
  entry.crc32_hex = result.artifact_crc32;
  entry.path = config.model_name + ".esm";  // relative to the manifest dir
  manifest.upsert(entry);
  serve::write_manifest_atomic(manifest, result.manifest_path);
  result.published = true;
  return result;
}

}  // namespace esm
