// Shared pieces of the ESM benchmark: run options, the report every
// workload fills, timing and resource helpers, and the independent
// reference computations the output checks use.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;   ///< build | search | serve
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the measured window
  bool trace = false;     ///< traced run: report per-layer metrics
  std::string artifacts;  ///< directory holding the MLP artifacts
  std::string work_dir;   ///< scratch directory for files a run writes
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Checks that fail flip `correct` and are listed on
/// stderr; `failed` counts operations that returned an error.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;

  /// Records a failed output check when `ok` is false.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
};

/// Set-ups per run; `setup_s` reports their median.
inline constexpr int kSetupReps = 5;

/// Runs `setup` kSetupReps times and returns the median wall time in
/// seconds.
template <typename Fn>
double median_setup_seconds(Fn&& setup);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// Minor page faults of this process so far.
long minor_faults();

/// Independent stream seed for (`seed`, `stream`) — a splitmix64 step, so
/// every input a workload draws depends only on the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// The paper's per-sample accuracy, 1 - |pred - truth| / truth clamped at
/// 0, written out here so checks never trust the program's own metric.
double sample_accuracy(double predicted, double truth);

/// Shortest decimal text that reads back to exactly `value`.
std::string json_number(double value);

// --- implementation of the template ------------------------------------

template <typename Fn>
double median_setup_seconds(Fn&& setup) {
  std::vector<double> times;
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

}  // namespace perfbench
