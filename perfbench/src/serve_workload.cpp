// `serve`: an in-process PredictionServer + EventLoop behind
// make_tcp_listener on 127.0.0.1, serving the ResNet rtx4090 MLP artifact
// with the default cache, over TCP with default socket options — the
// transport esm_serve ships.
//
// Load: a closed loop from this one thread over four connections (two
// esm2, two esm1), each with up to eight requests pipelined. A connection
// is topped up to eight once two of its requests are answered, and each
// pass reads the oldest response of every connection. Each request is,
// with even odds, a repeat from a hot set of 256 archs that fits the cache
// (answered inline on the reactor) or a fresh per-unit-uniform arch that
// misses, goes through the batcher into predict_all, and inserts and
// evicts in the cache. One operation is one request; its latency runs from
// submit to the read of its response.
//
// On this shape most requests are answered in about a millisecond, while
// a minority waits out Nagle's algorithm against the client's delayed ACK
// (no TCP_NODELAY on either side): about 40 ms each, so p99 shows that
// fault and p50 shows the serving path.
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "hwsim/latency_model.hpp"
#include "nas/search/engine.hpp"
#include "nas/search/wire.hpp"
#include "nets/builder.hpp"
#include "probes.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/event_loop.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "surrogate/registry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = esm::serve;

constexpr int kConnections = 4;  ///< 0, 1 speak esm2; 2, 3 speak esm1
constexpr std::size_t kDepth = 8;       ///< pipelined requests per connection
constexpr std::size_t kTopUp = 2;       ///< answers before a connection refills
constexpr std::size_t kHotSet = 256;    ///< well under the 4096-entry cache
constexpr std::uint64_t kWarmupRequests = 2048;
constexpr std::size_t kAccuracySample = 4096;
/// Served values must reach this mean accuracy against hwsim truth.
/// The fresh archs are per-unit-uniform, a distribution the
/// balanced-trained surrogate fits less well than its own depth bins
/// (about 0.89 on this artifact), so the floor sits below that.
constexpr double kAccuracyFloor = 0.85;
constexpr double kSlowRequestMs = 10.0;

/// The deterministic request sequence of a run: each request is, with
/// even odds, a draw from the hot set or a fresh per-unit-uniform arch.
class RequestStream {
 public:
  RequestStream(const esm::SupernetSpec& spec, std::uint64_t seed)
      : spec_(spec), engine_(spec, esm::search::EngineConfig{}), rng_(seed) {
    esm::Rng hot_rng(mix_seed(seed, 1));
    for (std::size_t i = 0; i < kHotSet; ++i) {
      hot_.push_back(engine_.sample(hot_rng));
      hot_wire_.push_back(esm::search::format_arch_request(spec_, hot_.back()));
    }
  }

  /// The next request's arch and its wire text.
  const esm::ArchConfig& next(std::string& wire) {
    if (rng_.bernoulli(0.5)) {
      const std::size_t i = static_cast<std::size_t>(rng_.uniform_u64(kHotSet));
      wire = hot_wire_[i];
      return hot_[i];
    }
    fresh_ = engine_.sample(rng_);
    wire = esm::search::format_arch_request(spec_, fresh_);
    return fresh_;
  }

  const std::vector<esm::ArchConfig>& hot() const { return hot_; }
  const std::vector<std::string>& hot_wire() const { return hot_wire_; }

 private:
  esm::SupernetSpec spec_;
  esm::search::SearchEngine engine_;
  esm::Rng rng_;
  std::vector<esm::ArchConfig> hot_;
  std::vector<std::string> hot_wire_;
  esm::ArchConfig fresh_;
};

/// One server behind a TCP listener, its reactor thread and the client
/// connections. Destruction closes the clients, drains the loop, joins
/// the reactor and stops the server, in that order.
class Service {
 public:
  explicit Service(const std::string& artifact) {
    serve::ServeConfig config;
    config.artifact_path = artifact;
    server_ = std::make_unique<serve::PredictionServer>(config);
    loop_ = std::make_unique<serve::EventLoop>(*server_);
    int port = 0;
    loop_->add_listener(std::shared_ptr<serve::Listener>(
        serve::make_tcp_listener(0, &port)));
    reactor_ = std::thread([this] { loop_->run(); });
    for (int c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<serve::EsmClient>(
          serve::connect_tcp("127.0.0.1", port),
          c < 2 ? serve::Protocol::esm2 : serve::Protocol::esm1));
      clients_.back()->info();  // the connection is accepted and sniffed
    }
  }
  ~Service() {
    for (auto& client : clients_) client->close();
    clients_.clear();
    loop_->request_stop();
    reactor_.join();
    server_->request_stop();
    server_->wait();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  serve::EsmClient& client(int c) {
    return *clients_[static_cast<std::size_t>(c)];
  }

 private:
  std::unique_ptr<serve::PredictionServer> server_;
  std::unique_ptr<serve::EventLoop> loop_;
  std::vector<std::unique_ptr<serve::EsmClient>> clients_;
  std::thread reactor_;
};

/// Closed-loop load generator over the service's connections.
class LoadGenerator {
 public:
  LoadGenerator(Service& service, RequestStream& stream)
      : service_(service), stream_(stream) {}

  /// Keeps up to kDepth requests in flight on every connection until
  /// `count` requests were sent (when `count` > 0) or until `deadline`,
  /// then drains them. Each pass tops up every connection that has had
  /// kTopUp answers since it was last full, then reads the oldest response
  /// of each connection. Latencies of the phase go to `latency_ms` when
  /// non-null.
  void run(std::uint64_t count, Clock::time_point deadline,
           std::vector<double>* latency_ms, Report& report) {
    const std::uint64_t stop_at = sent_ + count;
    std::size_t outstanding = 0;
    for (;;) {
      const bool issue =
          count > 0 ? sent_ < stop_at : Clock::now() < deadline;
      if (!issue && outstanding == 0) break;
      for (int c = 0; c < kConnections && issue; ++c) {
        if (pending_[static_cast<std::size_t>(c)].size() > kDepth - kTopUp) {
          continue;
        }
        while (pending_[static_cast<std::size_t>(c)].size() < kDepth) {
          submit(c);
          ++outstanding;
        }
      }
      for (int c = 0; c < kConnections; ++c) {
        std::deque<Pending>& pending = pending_[static_cast<std::size_t>(c)];
        if (pending.empty()) continue;
        const Pending p = pending.front();
        pending.pop_front();
        --outstanding;
        const serve::EsmClient::Response r = service_.client(c).await(p.id);
        if (latency_ms) {
          latency_ms->push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - p.sent)
                  .count());
          ++report.attempted;
        }
        if (r.ok) {
          values_[p.index] = std::strtod(r.payload.c_str(), nullptr);
        } else {
          ++errors_;
          if (latency_ms) ++report.failed;
        }
      }
    }
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t errors() const { return errors_; }
  const std::vector<double>& values() const { return values_; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    std::uint64_t index = 0;
    Clock::time_point sent;
  };

  void submit(int c) {
    std::string wire;
    stream_.next(wire);
    const Clock::time_point now = Clock::now();
    const std::uint64_t id = service_.client(c).submit("predict", wire);
    pending_[static_cast<std::size_t>(c)].push_back({id, sent_, now});
    values_.push_back(0.0);
    ++sent_;
  }

  Service& service_;
  RequestStream& stream_;
  std::deque<Pending> pending_[kConnections];
  std::vector<double> values_;  ///< served value per request, in send order
  std::uint64_t sent_ = 0;
  std::uint64_t errors_ = 0;
};

std::uint64_t stat(const std::map<std::string, std::string>& stats,
                   const std::string& key) {
  const auto it = stats.find(key);
  return it == stats.end() ? 0 : std::stoull(it->second);
}

volatile double g_sink = 0.0;

}  // namespace

void run_serve(const Options& options, Report& report) {
  const std::string artifact = options.artifacts + "/resnet_rtx4090.esm";
  const esm::SupernetSpec spec = esm::spec_by_name("resnet");

  // Set-up: load the offline reference model, draw the hot set, start the
  // server behind TCP and connect every client (repeated; the last
  // service is kept for the load, the others are torn down untimed).
  std::unique_ptr<esm::TrainableSurrogate> offline;
  std::unique_ptr<RequestStream> stream;
  std::unique_ptr<Service> service;
  std::vector<std::unique_ptr<Service>> retired;
  const double setup_s = median_setup_seconds([&] {
    if (service) retired.push_back(std::move(service));
    {
      ScopedSpan span("surrogate.load");
      offline = esm::load_surrogate(artifact);
    }
    stream = std::make_unique<RequestStream>(spec, options.seed);
    service = std::make_unique<Service>(artifact);
  });
  retired.clear();

  LoadGenerator load(*service, *stream);
  load.run(kWarmupRequests, Clock::now(), nullptr, report);
  const auto before = service->client(2).stats();

  std::vector<double> latency_ms;
  const Clock::time_point start = Clock::now();
  load.run(0, start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(options.seconds)),
           &latency_ms, report);
  const double elapsed = seconds_since(start);
  const double rss_mb = peak_rss_mb();
  const auto after = service->client(2).stats();
  service.reset();

  // Stats identities over the server's whole life.
  const std::uint64_t requests = stat(after, "requests");
  const std::uint64_t hits = stat(after, "hits");
  const std::uint64_t misses = stat(after, "misses");
  const std::uint64_t errors = stat(after, "errors");
  report.check(requests == hits + misses + errors,
               "stats: requests != hits + misses + errors");
  report.check(hits + misses == load.sent() - load.errors(),
               "stats: hits + misses != requests answered ok");
  report.check(errors == load.errors(), "stats: errors differ from client");

  // Every served value equals offline predict_all on the same artifact,
  // bit for bit; replay the request sequence to recover each arch.
  RequestStream replay(spec, options.seed);
  const std::vector<double>& served = load.values();
  const esm::LatencyModel model(esm::device_by_name("rtx4090"));
  double accuracy = 0.0;
  std::size_t mismatches = 0;
  std::vector<esm::ArchConfig> batch;
  std::size_t batch_start = 0;
  std::string wire;
  for (std::size_t i = 0; i <= served.size(); ++i) {
    if (batch.size() == 1024 || (i == served.size() && !batch.empty())) {
      const std::vector<double> expected = offline->predict_all(batch);
      for (std::size_t k = 0; k < batch.size(); ++k) {
        if (std::memcmp(&expected[k], &served[batch_start + k],
                        sizeof(double)) != 0) {
          ++mismatches;
        }
      }
      batch.clear();
      batch_start = i;
    }
    if (i == served.size()) break;
    const esm::ArchConfig& arch = replay.next(wire);
    batch.push_back(arch);
    if (i < kAccuracySample) {
      const double truth = model.true_latency_ms(esm::build_graph(spec, arch));
      accuracy += sample_accuracy(served[i], truth);
    }
  }
  report.check(mismatches == 0, std::to_string(mismatches) +
                                    " served values differ from offline "
                                    "predict_all");
  const double served_accuracy =
      accuracy / static_cast<double>(std::min(served.size(), kAccuracySample));
  report.check(served_accuracy >= kAccuracyFloor,
               "served accuracy " + std::to_string(served_accuracy) +
                   " is below the floor");

  const double n = static_cast<double>(latency_ms.size());
  std::cout << "serve: " << latency_ms.size() << " requests in " << elapsed
            << " s\n";
  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", rss_mb, "MB");
  report.e2e("ops_per_s", n / elapsed, "1/s");
  report.e2e("op_p50_ms", median(latency_ms), "ms");
  report.e2e("op_p99_ms", quantile(latency_ms, 0.99), "ms");
  report.e2e("archs_per_s", n / elapsed, "1/s");
  report.e2e("holdout_acc_pct", 100.0 * served_accuracy, "%");
  if (!options.trace) return;

  const double d_hits = static_cast<double>(hits - stat(before, "hits"));
  const double d_misses = static_cast<double>(misses - stat(before, "misses"));
  report.layer("serve.hit_ratio", d_hits / (d_hits + d_misses), "ratio");
  report.layer("serve.batch_archs_mean",
               static_cast<double>(stat(after, "batched_archs") -
                                   stat(before, "batched_archs")) /
                   static_cast<double>(stat(after, "batches") -
                                       stat(before, "batches")),
               "archs");
  double slow = 0.0;
  for (double ms : latency_ms) slow += ms > kSlowRequestMs ? 1.0 : 0.0;
  report.layer("serve.requests_over_10ms", slow, "count");
  const Tracer::Totals loads = Tracer::instance().totals_of("surrogate.load");
  report.layer("surrogate.load_ms",
               loads.total_s / static_cast<double>(loads.count) * 1e3, "ms");

  // Probes on the workload's own requests.
  const std::vector<esm::ArchConfig>& hot = stream->hot();
  const std::vector<std::string>& wires = stream->hot_wire();
  const auto predict_one_by_one = [&] {
    for (const esm::ArchConfig& arch : hot) {
      g_sink = g_sink + offline->predict_all({&arch, 1})[0];
    }
  };
  report.layer("surrogate.predict_all_us_per_arch.b1",
               1e-3 * probe_ns_per_call("probe.surrogate.predict_all_b1",
                                        hot.size(), predict_one_by_one),
               "us");
  report.layer(
      "serve.frame_codec_ns",
      probe_ns_per_call("probe.serve.frame_codec", wires.size(), [&] {
        std::string buffer;
        serve::Frame frame;
        std::string error;
        for (std::size_t i = 0; i < wires.size(); ++i) {
          buffer +=
              serve::encode_request(i, serve::FrameVerb::predict, wires[i]);
          serve::parse_frame(buffer, frame, error, 1 << 20);
          g_sink = g_sink + static_cast<double>(frame.payload.size());
        }
      }),
      "ns");
  report.layer(
      "serve.esm1_parse_ns",
      probe_ns_per_call("probe.serve.esm1_parse", wires.size(), [&] {
        for (const std::string& w : wires) {
          const serve::ParsedRequest request =
              serve::split_request("predict " + w);
          g_sink = g_sink + static_cast<double>(
                                serve::parse_arch_request(spec, request.payload)
                                    .total_blocks());
        }
      }),
      "ns");
  serve::PredictionCache cache(4096);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    keys.push_back("1|" + hot[i].to_string());
    cache.put(keys.back(), 1.0);
    keys.push_back("1|miss" + std::to_string(i));
  }
  report.layer("serve.cache_lookup_ns",
               probe_ns_per_call("probe.serve.cache_get", keys.size(), [&] {
                 for (const std::string& key : keys) {
                   g_sink = g_sink + cache.get(key).value_or(0.0);
                 }
               }),
               "ns");
  report.layer("encoding.fcc_encode_ns", probe_fcc_encode_ns(spec, hot), "ns");
}

}  // namespace perfbench
