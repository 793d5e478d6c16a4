// Loopback serving harness shared by the serving suites: a PredictionServer
// behind an EventLoop whose reactor runs on a background thread, reached
// through an fd-less loopback listener (optionally wrapped in the chaos
// decorator), plus the request pool and offline ground truth the suites
// compare served answers against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "surrogate/registry.hpp"

namespace esm::test {

/// The first `limit` ResNet depth combinations as request strings, each
/// unit annotated with a rotating kernel/expansion feature so distinct
/// requests map to distinct predictions (depth-only archs share too many
/// tree leaves to tell a misrouted response apart).
inline std::vector<std::string> arch_pool(std::size_t limit) {
  static const char* kFeatures[] = {"",        ":k5",       ":k7",
                                    ":k3e1",   ":k5e0.667", ":k7e1",
                                    ":k3e0.5", ":k5e1",     ":k7e0.667"};
  std::vector<std::string> pool;
  std::size_t n = 0;
  for (int a = 1; a <= 7 && pool.size() < limit; ++a)
    for (int b = 1; b <= 7 && pool.size() < limit; ++b)
      for (int c = 1; c <= 7 && pool.size() < limit; ++c)
        for (int d = 1; d <= 7 && pool.size() < limit; ++d) {
          const int depths[4] = {a, b, c, d};
          std::string request;
          for (std::size_t u = 0; u < 4; ++u) {
            if (u > 0) request += ',';
            request += std::to_string(depths[u]);
            request += kFeatures[(n + u * 3) % 9];
          }
          ++n;
          pool.push_back(std::move(request));
        }
  return pool;
}

/// Offline ground truth: parse each request with the shared parser and
/// price everything through one predict_all on a separately loaded model.
/// Served responses must match these bit for bit.
inline std::map<std::string, double> offline_predictions(
    const std::string& artifact, const std::vector<std::string>& specs) {
  const std::unique_ptr<TrainableSurrogate> model = load_surrogate(artifact);
  std::vector<ArchConfig> archs;
  archs.reserve(specs.size());
  for (const std::string& s : specs) {
    archs.push_back(serve::parse_arch_request(model->spec(), s));
  }
  const std::vector<double> values = model->predict_all(archs);
  std::map<std::string, double> expected;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expected[specs[i]] = values[i];
  }
  return expected;
}

/// A ServeConfig serving `artifact` (a `.esm` file or a fleet manifest)
/// with every other setting at its default.
inline serve::ServeConfig serve_config(const std::string& artifact) {
  serve::ServeConfig config;
  config.artifact_path = artifact;
  return config;
}

/// Server + event loop + loopback listener, the reactor on `thread`.
/// Declaration order is the required destruction order: the loop must
/// drain before the server stops. A test that drains the loop itself
/// (the `shutdown` verb) joins `thread`; the destructor skips the join.
struct LoopbackHarness {
  serve::PredictionServer server;
  serve::EventLoop loop;
  std::shared_ptr<serve::LoopbackListener> listener;
  std::thread thread;

  /// `chaos` wraps the listener in the seeded fault decorator; the
  /// default all-zero profile leaves it untouched.
  explicit LoopbackHarness(serve::ServeConfig config,
                           serve::EventLoopConfig loop_config = {},
                           const serve::ChaosProfile& chaos = {},
                           std::uint64_t chaos_seed = 0)
      : server(std::move(config)),
        loop(server, std::move(loop_config)),
        listener(serve::make_loopback_listener()) {
    loop.add_listener(serve::make_chaos_listener(listener, chaos, chaos_seed));
    thread = std::thread([this] { loop.run(); });
  }

  ~LoopbackHarness() {
    loop.request_stop();
    if (thread.joinable()) thread.join();
    server.request_stop();
    server.wait();
  }

  LoopbackHarness(const LoopbackHarness&) = delete;
  LoopbackHarness& operator=(const LoopbackHarness&) = delete;

  serve::EsmClient client(serve::Protocol protocol = serve::Protocol::esm1) {
    return serve::EsmClient(serve::loopback_channel(listener->connect()),
                            protocol);
  }
};

}  // namespace esm::test
