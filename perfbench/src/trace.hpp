// Span tracing for the traced benchmark run.
//
// A span is one call from the benchmark's own code into a module of the
// program: name, start, end and the span that was open when it began.
// Spans stay in memory and are written out when the run ends; per-layer
// numbers come from them as self time = span duration minus the part of
// it that its child spans cover. Counters recorded at the same call sites
// (archs scored, page faults) give the ratios where the work happens.
//
// Two wrappers put spans on calls the program makes through its public
// extension points, so a black-box call such as EsmFramework::run still
// splits into layers: TracedSurrogate is registered as a surrogate kind and
// spans every fit and predict_all the framework makes, and TracedPredictor
// spans the predict_all calls SearchEngine makes on an objective.
//
// Recording happens only on the thread that enabled tracing; calls from
// other threads pass through unrecorded. With tracing off every call is a
// plain pass-through.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "surrogate/registry.hpp"
#include "surrogate/trainable.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span; -1 = none
  };
  struct Totals {
    double total_s = 0.0;  ///< summed span durations
    double self_s = 0.0;   ///< summed durations minus child coverage
    std::size_t count = 0;
  };

  static Tracer& instance();

  /// Turns recording on for the calling thread.
  void enable();
  /// True when spans from the calling thread are recorded.
  bool recording() const;

  /// Opens a span; returns its index (-1 when not recording).
  int begin(const char* name);
  /// Closes the innermost open span, `index`.
  void end(int index);

  /// Adds `amount` to the named counter (recording thread only).
  void count(const std::string& name, double amount);
  double counter(const std::string& name) const;

  /// Per-name totals, self time computed from direct children.
  std::map<std::string, Totals> totals() const;
  Totals totals_of(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  Tracer() = default;

  bool enabled_ = false;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::instance().begin(name)) {}
  ~ScopedSpan() { Tracer::instance().end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Registry key of the traced MLP surrogate kind.
inline constexpr const char* kTracedMlpKey = "perfbench_traced_mlp";

/// Registers kTracedMlpKey once: an "mlp" surrogate built from the same
/// context, with spans "ml.fit" and "surrogate.predict_all" around its
/// calls and counters for fit page faults, fit FLOPs and archs scored.
void register_traced_mlp();

/// Unwraps a surrogate built under kTracedMlpKey (anything else is
/// returned unchanged), so artifacts and checks see the plain "mlp".
std::unique_ptr<esm::TrainableSurrogate> unwrap_traced(
    std::unique_ptr<esm::TrainableSurrogate> surrogate);

/// Borrowing LatencyPredictor whose predict_all records a
/// "surrogate.predict_all" span and the number of archs scored.
class TracedPredictor final : public esm::LatencyPredictor {
 public:
  explicit TracedPredictor(const esm::LatencyPredictor& inner)
      : inner_(&inner) {}
  double predict_ms(const esm::ArchConfig& arch) const override;
  std::vector<double> predict_all(
      std::span<const esm::ArchConfig> archs) const override;
  std::string name() const override { return inner_->name(); }

 private:
  const esm::LatencyPredictor* inner_;
};

}  // namespace perfbench
