// Per-call timings of single layers, taken in the traced run after the
// measured window: the benchmark calls a module's public function on the
// workload's own inputs, under one span per probe, and divides the span by
// the number of calls.
#pragma once

#include <span>
#include <vector>

#include "common.hpp"
#include "hwsim/device.hpp"
#include "nas/accuracy_proxy.hpp"
#include "nets/arch.hpp"
#include "nets/supernet.hpp"
#include "trace.hpp"

namespace perfbench {

/// Runs `pass` (which makes `calls_per_pass` calls) under span `name`
/// until at least `min_seconds` passed; returns nanoseconds per call.
template <typename Fn>
double probe_ns_per_call(const char* name, std::size_t calls_per_pass,
                         Fn&& pass, double min_seconds = 0.05) {
  ScopedSpan span(name);
  std::size_t calls = 0;
  const Clock::time_point start = Clock::now();
  do {
    pass();
    calls += calls_per_pass;
  } while (seconds_since(start) < min_seconds);
  return seconds_since(start) * 1e9 / static_cast<double>(calls);
}

/// encoding: FCC Encoder::encode_into per arch.
double probe_fcc_encode_ns(const esm::SupernetSpec& spec,
                           std::span<const esm::ArchConfig> archs);
/// nets: build_graph per arch.
double probe_build_graph_us(const esm::SupernetSpec& spec,
                            std::span<const esm::ArchConfig> archs);
/// nas: AccuracyProxy::top5_accuracy per arch.
double probe_proxy_us(const esm::AccuracyProxy& proxy,
                      std::span<const esm::ArchConfig> archs);
/// hwsim: LatencyModel::true_latency_ms per arch (graphs prebuilt).
double probe_true_latency_us(const esm::SupernetSpec& spec,
                             const esm::DeviceSpec& device,
                             std::span<const esm::ArchConfig> archs);
/// hwsim: one full SimulatedDevice::measure per arch (graphs prebuilt).
double probe_measure_us(const esm::SupernetSpec& spec,
                        const esm::DeviceSpec& device,
                        std::span<const esm::ArchConfig> archs);

}  // namespace perfbench
