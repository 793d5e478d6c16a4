#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (failures.size() < 20) failures.push_back(what);
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  per_layer.push_back({name, value, unit});
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double sample_accuracy(double predicted, double truth) {
  return std::max(0.0, 1.0 - std::fabs(predicted - truth) / truth);
}

std::string json_number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

}  // namespace perfbench
