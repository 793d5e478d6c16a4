#include "probes.hpp"

#include "encoding/registry.hpp"
#include "hwsim/latency_model.hpp"
#include "hwsim/measurement.hpp"
#include "nets/builder.hpp"

namespace perfbench {

namespace {

/// Keeps a computed value observable so a probe loop is not folded away.
volatile double g_sink = 0.0;

std::vector<esm::LayerGraph> build_graphs(
    const esm::SupernetSpec& spec, std::span<const esm::ArchConfig> archs) {
  std::vector<esm::LayerGraph> graphs;
  graphs.reserve(archs.size());
  for (const esm::ArchConfig& arch : archs) {
    graphs.push_back(esm::build_graph(spec, arch));
  }
  return graphs;
}

}  // namespace

double probe_fcc_encode_ns(const esm::SupernetSpec& spec,
                           std::span<const esm::ArchConfig> archs) {
  const auto encoder = esm::make_encoder("fcc", spec);
  std::vector<double> buffer(encoder->dimension());
  return probe_ns_per_call("probe.encoding.encode_into", archs.size(), [&] {
    for (const esm::ArchConfig& arch : archs) {
      encoder->encode_into(arch, buffer);
      g_sink = g_sink + buffer[0];
    }
  });
}

double probe_build_graph_us(const esm::SupernetSpec& spec,
                            std::span<const esm::ArchConfig> archs) {
  return 1e-3 *
         probe_ns_per_call("probe.nets.build_graph", archs.size(), [&] {
           for (const esm::ArchConfig& arch : archs) {
             g_sink = g_sink +
                      static_cast<double>(
                          esm::build_graph(spec, arch).layers().size());
           }
         });
}

double probe_proxy_us(const esm::AccuracyProxy& proxy,
                      std::span<const esm::ArchConfig> archs) {
  return 1e-3 * probe_ns_per_call("probe.nas.proxy", archs.size(), [&] {
           for (const esm::ArchConfig& arch : archs) {
             g_sink = g_sink + proxy.top5_accuracy(arch);
           }
         });
}

double probe_true_latency_us(const esm::SupernetSpec& spec,
                             const esm::DeviceSpec& device,
                             std::span<const esm::ArchConfig> archs) {
  const std::vector<esm::LayerGraph> graphs = build_graphs(spec, archs);
  const esm::LatencyModel model(device);
  return 1e-3 *
         probe_ns_per_call("probe.hwsim.true_latency", graphs.size(), [&] {
           for (const esm::LayerGraph& graph : graphs) {
             g_sink = g_sink + model.true_latency_ms(graph);
           }
         });
}

double probe_measure_us(const esm::SupernetSpec& spec,
                        const esm::DeviceSpec& device,
                        std::span<const esm::ArchConfig> archs) {
  const std::vector<esm::LayerGraph> graphs = build_graphs(spec, archs);
  esm::SimulatedDevice sim(device, 7);
  sim.begin_session();
  return 1e-3 * probe_ns_per_call("probe.hwsim.measure", graphs.size(), [&] {
           for (const esm::LayerGraph& graph : graphs) {
             g_sink = g_sink + sim.measure(graph).value;
           }
         });
}

}  // namespace perfbench
