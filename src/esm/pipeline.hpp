// The measure -> train -> gate -> publish pipeline behind `esm_cli
// pipeline`: one command that takes a device and a model name to a
// manifest entry the fleet server can serve, crash-safe at every stage.
//
// Stage layout and the resume argument:
//   1. campaign   one journaled EsmFramework run (esm/framework.hpp): the
//                 train-evaluate-extend loop measures the held-out set,
//                 the N_I initial samples and every N_Step extension
//                 through one write-ahead journal (esm/journal.hpp) under
//                 <manifest-dir>/.pipeline/<name>.journal
//   2. gate       the campaign's convergence verdict against Acc_TH; a
//                 model that did not converge is NEVER published
//   3. publish    artifact via save_surrogate_atomic, then the manifest
//                 upserted via write_manifest_atomic
//
// Stage 1 resumes whenever the journal exists: a rerun after kill -9
// replays the accepted batches bit-identically and measures only the
// remainder (the resume invariant of esm/journal.hpp); fits and
// evaluations are pure functions of the measured samples and the config.
// Acc_TH and N_Step shape the extension requests, so a rerun with changed
// loop inputs replays only the matching prefix of the journal and is
// refused (esm::ConfigError) if it needs a record written for a different
// request. Stage 3 writes both files atomically, artifact first: a crash
// between the two leaves the manifest pointing at the OLD artifact bytes
// (the new file only replaces the old after its rename), and the rerun
// converges to the same published state. Rerunning a completed pipeline
// therefore republishes a byte-identical artifact and manifest, no matter
// where (or whether) a previous attempt died.
#pragma once

#include <cstddef>
#include <string>

#include "esm/config.hpp"
#include "esm/evaluator.hpp"

namespace esm {

struct PipelineConfig {
  /// The campaign: space, surrogate/encoder kind, loop inputs (N_I,
  /// N_Step, Acc_TH, iteration budget, test-set size), QC + fault
  /// tolerance, training hyperparameters, seed. `esm.journal.path` and
  /// `esm.journal.resume` are overridden (path derived from the model
  /// name, resume on); `esm.journal.durable` is honoured.
  EsmConfig esm;
  std::string device;        ///< simulated-device name
  std::string model_name;    ///< manifest entry to publish
  std::string manifest_dir;  ///< artifacts + manifest.esmf live here

  /// Throws esm::ConfigError on an invalid name, empty dir, or bad esm
  /// config.
  void validate() const;
};

struct PipelineResult {
  bool gate_passed = false;
  bool published = false;
  std::size_t train_measured = 0;  ///< final training-set size
  std::size_t test_measured = 0;   ///< held-out samples measured
  /// Journal-answered batches; > 0 means this run resumed a previous
  /// attempt.
  std::size_t replayed_batches = 0;
  EvalReport eval;            ///< the gate's evidence (last iteration)
  std::string artifact_path;  ///< written only when published
  std::string artifact_crc32;
  std::string manifest_path;
};

/// Runs the three stages. Throws esm::ConfigError on configuration or I/O
/// failures; a gate failure is NOT an error (returns gate_passed=false,
/// published=false).
PipelineResult run_pipeline(const PipelineConfig& config);

}  // namespace esm
