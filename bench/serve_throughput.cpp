// Serving throughput benchmark: drives the online prediction server through
// its event-loop front end over in-process loopback connections and reports
// sustained requests/s plus client-observed latency percentiles for
// synchronous clients (one request in flight each) with a cold vs warm
// cache at 1 and 8 clients, plus a two-model routed fleet scenario with
// per-model warm req/s, plus pipelined clients under 1/8/256/4096
// concurrent connections for each wire protocol (newline esm1 and binary
// esm2, both pipelined eight requests deep per connection so the offered
// load matches and only the wire format differs), plus an overload
// scenario (256 connections offering ~4x the admitted capacity against a
// bounded admission queue) reporting shed rate and retry-converged
// goodput. Writes BENCH_serve.json next to the binary.
//
//   ./serve_throughput [--requests N] [--pool N] [--out PATH]
//
// "cold" runs with the prediction cache disabled, so every request goes
// through the batcher and predict_all; "warm" primes the cache with the
// whole request pool first, so the measured phase is answered from the
// sharded LRU. Both phases issue the same request sequence, so the pair
// isolates the cache's contribution. The fleet scenario serves a two-model
// manifest and alternates routed requests between the models, measuring
// what routing and per-model caches cost relative to single-model warm.
// Every scenario self-checks: any dropped connection, request error, or
// stats identity violation aborts the benchmark with a nonzero exit.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "encoding/registry.hpp"
#include "ml/gbdt.hpp"
#include "nets/builder.hpp"
#include "serve/client.hpp"
#include "serve/event_loop.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "surrogate/gbdt_surrogate.hpp"
#include "surrogate/registry.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Generated bench artifacts land under bench/fixtures/ (gitignored), so
/// running the benchmark from the repo root never litters it.
std::string fixture_path(const std::string& name) {
  static const std::string dir = [] {
    esm::make_dirs("bench/fixtures");
    return std::string("bench/fixtures");
  }();
  return dir + "/" + name;
}

/// Trains a small GBDT on ResNet and saves it where the server can load it.
/// `label_scale` makes fleet variants with genuinely different bytes.
std::string build_artifact(const std::string& name, double label_scale) {
  const esm::SupernetSpec spec = esm::resnet_spec();
  esm::SimulatedDevice device(esm::rtx4090_spec(), 7);
  esm::Rng rng(0x5eed);
  esm::BalancedSampler sampler(spec, 4);
  const std::vector<esm::ArchConfig> archs = sampler.sample_n(64, rng);
  std::vector<double> labels;
  labels.reserve(archs.size());
  for (const esm::ArchConfig& arch : archs) {
    labels.push_back(label_scale *
                     device.true_latency_ms(esm::build_graph(spec, arch)));
  }
  esm::GbdtConfig gbdt;
  gbdt.n_estimators = 30;
  esm::GbdtSurrogate surrogate(esm::make_encoder("fcc", spec), gbdt);
  surrogate.fit(esm::SurrogateDataset{archs, labels});
  esm::save_surrogate(surrogate, name);
  return name;
}

/// A two-model manifest routing "edge" and "cloud" at the two artifacts.
/// Entry paths are basenames: they resolve against the manifest's own
/// directory, and manifest and artifacts share the fixtures directory.
std::string build_fleet_manifest(const std::string& artifact_a,
                                 const std::string& artifact_b) {
  const auto base = [](const std::string& path) {
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  };
  esm::serve::FleetManifest manifest;
  manifest.upsert(
      {"edge", esm::serve::file_crc32_hex(artifact_a), base(artifact_a)});
  manifest.upsert(
      {"cloud", esm::serve::file_crc32_hex(artifact_b), base(artifact_b)});
  const std::string path = fixture_path("serve_bench.esmf");
  esm::serve::write_manifest_atomic(manifest, path);
  return path;
}

/// Deterministic request pool: depth combinations with rotating per-unit
/// kernel/expansion features (same shape tests/serve_test.cpp uses).
std::vector<std::string> arch_pool(std::size_t limit) {
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

struct PerModelResult {
  std::string model;
  std::size_t requests = 0;
  double req_per_s = 0.0;
};

struct ScenarioResult {
  std::string name;
  std::string proto;  ///< event-loop scenarios only: "esm1" or "esm2"
  int clients = 1;
  bool warm = false;
  std::size_t requests = 0;
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::vector<PerModelResult> per_model;  ///< fleet scenarios only
  bool overload = false;   ///< overload scenario: report shed fields
  std::size_t shed = 0;    ///< admission attempts answered `overloaded`
  double shed_rate = 0.0;  ///< shed / (ok + shed) admission attempts
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p / 100.0 *
                               static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

/// One load shape for run_event_loop_scenario.
struct Scenario {
  std::string name;
  std::string source;  ///< artifact or fleet manifest to serve
  int conns = 1;
  std::size_t requests_per_conn = 0;
  esm::serve::Protocol proto = esm::serve::Protocol::esm1;
  /// Requests kept in flight per connection; 1 is a synchronous client
  /// that waits for each answer before sending the next request.
  std::size_t window = 8;
  /// Warm: cache on and primed with the whole pool, so the measured phase
  /// is all hits. Cold: cache off, so every request goes through the
  /// batcher and predict_all.
  bool warm = true;
  /// Fleet models each connection alternates between request by request;
  /// empty sends keyless requests to the default model.
  std::vector<std::string> models;
};

/// The event-loop front end under `scenario.conns` concurrent loopback
/// connections, all multiplexed on one reactor thread. At most eight
/// driver threads round-robin their share of the connections, keeping
/// `window` requests in flight per connection for BOTH protocols (esm1
/// pipelines on the wire too — its responses just must return in order),
/// so at equal windows the wire format and completion order are the only
/// variables. Self-checks drops, errors, and the stats identities before
/// reporting.
ScenarioResult run_event_loop_scenario(const Scenario& scenario,
                                       const std::vector<std::string>& pool) {
  namespace serve = esm::serve;
  const int conns = scenario.conns;
  const std::vector<std::string>& models = scenario.models;

  serve::ServeConfig config;
  config.artifact_path = scenario.source;
  config.cache_capacity = scenario.warm ? 4096 : 0;
  serve::PredictionServer server(config);
  serve::EventLoop loop(server);
  const std::shared_ptr<serve::LoopbackListener> listener =
      serve::make_loopback_listener();
  loop.add_listener(listener);
  std::thread loop_thread([&loop] { loop.run(); });

  if (scenario.warm) {
    // Prime every pool entry (on every routed model) so the measured phase
    // is all cache hits.
    serve::EsmClient primer(serve::loopback_channel(listener->connect()),
                            scenario.proto);
    for (const std::string& arch : pool) {
      if (models.empty()) primer.predict(arch);
      for (const std::string& model : models) primer.predict(model, arch);
    }
    primer.close();
  }

  const int driver_threads = std::min(8, conns);
  std::vector<std::vector<double>> latencies_us(
      static_cast<std::size_t>(driver_threads));
  std::vector<std::atomic<std::size_t>> per_model(models.size());
  std::atomic<std::size_t> request_errors{0};
  const Clock::time_point begin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(driver_threads));
  for (int t = 0; t < driver_threads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t first =
          static_cast<std::size_t>(conns * t / driver_threads);
      const std::size_t local =
          static_cast<std::size_t>(conns * (t + 1) / driver_threads) - first;
      std::vector<serve::EsmClient> clients;
      clients.reserve(local);
      for (std::size_t c = 0; c < local; ++c) {
        clients.emplace_back(serve::loopback_channel(listener->connect()),
                             scenario.proto);
      }
      std::vector<std::deque<std::pair<std::uint64_t, Clock::time_point>>>
          pending(local);
      std::vector<std::size_t> sent(local, 0);
      std::vector<double>& mine = latencies_us[static_cast<std::size_t>(t)];
      mine.reserve(local * scenario.requests_per_conn);
      std::size_t left = local * scenario.requests_per_conn;
      std::size_t outstanding = 0;
      std::size_t counter = 0;
      while (left > 0 || outstanding > 0) {
        // Top every connection's window up, then collect one response per
        // connection; the round-robin keeps all of them in flight at once.
        for (std::size_t c = 0; c < local; ++c) {
          while (pending[c].size() < scenario.window &&
                 sent[c] < scenario.requests_per_conn) {
            std::string payload =
                pool[(counter * 131 + c * 7919 +
                      static_cast<std::size_t>(t)) %
                     pool.size()];
            ++counter;
            if (!models.empty()) {
              const std::size_t which = (first + c + sent[c]) % models.size();
              payload = models[which] + " " + payload;
              ++per_model[which];
            }
            pending[c].emplace_back(clients[c].submit("predict", payload),
                                    Clock::now());
            ++sent[c];
            --left;
            ++outstanding;
          }
        }
        for (std::size_t c = 0; c < local; ++c) {
          if (pending[c].empty()) continue;
          const auto [id, start] = pending[c].front();
          pending[c].pop_front();
          if (!clients[c].await(id).ok) ++request_errors;
          mine.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - start)
                  .count());
          --outstanding;
        }
      }
      for (serve::EsmClient& client : clients) client.close();
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - begin).count();

  // Reconcile before tearing anything down, then drain the loop.
  std::map<std::string, std::string> stats;
  {
    serve::EsmClient auditor(serve::loopback_channel(listener->connect()),
                             scenario.proto);
    stats = auditor.stats();
    auditor.close();
  }
  loop.request_stop();
  loop_thread.join();
  server.request_stop();
  server.wait();

  const serve::EventLoop::Stats loop_stats = loop.stats();
  const auto stat = [&stats](const char* key) {
    return std::stoull(stats.at(key));
  };
  ESM_REQUIRE(loop_stats.dropped == 0,
              scenario.name << " dropped " << loop_stats.dropped
                            << " connection(s)");
  ESM_REQUIRE(request_errors.load() == 0,
              scenario.name << " saw " << request_errors.load()
                            << " request error(s)");
  ESM_REQUIRE(stat("errors") == 0 &&
                  stat("requests") ==
                      stat("hits") + stat("misses") + stat("errors") &&
                  stat("archs") == stat("arch_hits") + stat("arch_misses"),
              scenario.name << " stats do not reconcile");

  std::vector<double> all_us;
  for (const std::vector<double>& per_thread : latencies_us) {
    all_us.insert(all_us.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all_us.begin(), all_us.end());

  ScenarioResult result;
  result.name = scenario.name;
  result.proto =
      scenario.proto == serve::Protocol::esm2 ? "esm2" : "esm1";
  result.clients = conns;
  result.warm = scenario.warm;
  result.requests = all_us.size();
  result.req_per_s =
      elapsed_s > 0.0 ? static_cast<double>(all_us.size()) / elapsed_s : 0.0;
  result.p50_us = percentile(all_us, 50);
  result.p95_us = percentile(all_us, 95);
  result.p99_us = percentile(all_us, 99);
  result.p999_us = percentile(all_us, 99.9);
  for (std::size_t m = 0; m < models.size(); ++m) {
    PerModelResult per;
    per.model = models[m];
    per.requests = per_model[m].load();
    per.req_per_s = elapsed_s > 0.0
                        ? static_cast<double>(per.requests) / elapsed_s
                        : 0.0;
    result.per_model.push_back(std::move(per));
  }
  return result;
}

/// Overload scenario: `conns` connections keep eight-deep pipelines in
/// flight against a server whose admitted concurrency (max_inflight) is a
/// quarter of the offered concurrency, so roughly 4x capacity is offered
/// and the admission gate sheds the excess with the retryable
/// `overloaded` error. Cold cache: every admitted request really spends a
/// batcher slot. The driver resubmits every shed request until it
/// succeeds — the client-side retry story — so goodput converges to 100%
/// of the unique workload; reported are the shed rate over all admission
/// attempts and the goodput (ok responses per second). Self-checks that
/// the server counted exactly the sheds the clients saw and that the
/// stats identities reconcile.
ScenarioResult run_overload_scenario(const std::string& artifact,
                                     const std::vector<std::string>& pool,
                                     int conns,
                                     std::size_t requests_per_conn) {
  namespace serve = esm::serve;
  const std::size_t window = 8;
  const std::size_t offered =
      static_cast<std::size_t>(conns) * window;  // concurrent entries

  serve::ServeConfig config;
  config.artifact_path = artifact;
  config.cache_capacity = 0;
  config.max_inflight = offered / 4;  // offered load = 4x admitted capacity
  serve::PredictionServer server(config);
  serve::EventLoop loop(server);
  const std::shared_ptr<serve::LoopbackListener> listener =
      serve::make_loopback_listener();
  loop.add_listener(listener);
  std::thread loop_thread([&loop] { loop.run(); });

  const int driver_threads = std::min(8, conns);
  std::vector<std::vector<double>> latencies_us(
      static_cast<std::size_t>(driver_threads));
  std::atomic<std::size_t> total_ok{0};
  std::atomic<std::size_t> total_shed{0};
  std::atomic<std::size_t> request_errors{0};
  const Clock::time_point begin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(driver_threads));
  for (int t = 0; t < driver_threads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t local =
          static_cast<std::size_t>(conns * (t + 1) / driver_threads -
                                   conns * t / driver_threads);
      std::vector<serve::EsmClient> clients;
      clients.reserve(local);
      for (std::size_t c = 0; c < local; ++c) {
        clients.emplace_back(serve::loopback_channel(listener->connect()),
                             serve::Protocol::esm2);
      }
      struct Pending {
        std::uint64_t id;
        std::size_t arch;  ///< pool index, for shed resubmission
        Clock::time_point start;
      };
      std::vector<std::deque<Pending>> pending(local);
      std::vector<std::size_t> remaining(local, requests_per_conn);
      std::vector<double>& mine = latencies_us[static_cast<std::size_t>(t)];
      mine.reserve(local * requests_per_conn);
      std::size_t ok = 0;
      std::size_t shed = 0;
      std::size_t left = local * requests_per_conn;
      std::size_t outstanding = 0;
      std::size_t counter = 0;
      while (left > 0 || outstanding > 0) {
        for (std::size_t c = 0; c < local; ++c) {
          while (pending[c].size() < window && remaining[c] > 0) {
            const std::size_t arch = (counter * 131 + c * 7919 +
                                      static_cast<std::size_t>(t)) %
                                     pool.size();
            ++counter;
            pending[c].push_back(
                {clients[c].submit("predict", pool[arch]), arch,
                 Clock::now()});
            --remaining[c];
            --left;
            ++outstanding;
          }
        }
        for (std::size_t c = 0; c < local; ++c) {
          if (pending[c].empty()) continue;
          const Pending head = pending[c].front();
          pending[c].pop_front();
          const serve::EsmClient::Response response =
              clients[c].await(head.id);
          if (response.ok) {
            ++ok;
            mine.push_back(std::chrono::duration<double, std::micro>(
                               Clock::now() - head.start)
                               .count());
            --outstanding;
          } else if (response.verb_or_code == "overloaded") {
            // Shed at admission: retry the same architecture, keeping its
            // original start time so the latency sample charges the
            // retries (the client-visible cost of overload).
            ++shed;
            pending[c].push_back({clients[c].submit("predict", pool[head.arch]),
                                  head.arch, head.start});
          } else {
            ++request_errors;
            --outstanding;
          }
        }
      }
      total_ok.fetch_add(ok);
      total_shed.fetch_add(shed);
      for (serve::EsmClient& client : clients) client.close();
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - begin).count();

  std::map<std::string, std::string> stats;
  {
    serve::EsmClient auditor(serve::loopback_channel(listener->connect()),
                             serve::Protocol::esm2);
    stats = auditor.stats();
    auditor.close();
  }
  loop.request_stop();
  loop_thread.join();
  server.request_stop();
  server.wait();

  const serve::EventLoop::Stats loop_stats = loop.stats();
  const auto stat = [&stats](const char* key) {
    return std::stoull(stats.at(key));
  };
  ESM_REQUIRE(loop_stats.dropped == 0,
              "overload bench dropped " << loop_stats.dropped
                                        << " connection(s)");
  ESM_REQUIRE(request_errors.load() == 0,
              "overload bench saw " << request_errors.load()
                                    << " non-retryable request error(s)");
  ESM_REQUIRE(stat("shed") == total_shed.load() &&
                  stat("errors") == total_shed.load() &&
                  stat("expired") == 0 &&
                  stat("requests") ==
                      stat("hits") + stat("misses") + stat("errors"),
              "overload bench stats do not reconcile");

  std::vector<double> all_us;
  for (const std::vector<double>& per_thread : latencies_us) {
    all_us.insert(all_us.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all_us.begin(), all_us.end());

  ScenarioResult result;
  result.name = "overload_" + std::to_string(conns) + "_conns";
  result.proto = "esm2";
  result.clients = conns;
  result.warm = false;
  result.overload = true;
  result.requests = total_ok.load();
  result.shed = total_shed.load();
  const double attempts =
      static_cast<double>(total_ok.load() + total_shed.load());
  result.shed_rate =
      attempts > 0.0 ? static_cast<double>(total_shed.load()) / attempts : 0.0;
  result.req_per_s = elapsed_s > 0.0
                         ? static_cast<double>(total_ok.load()) / elapsed_s
                         : 0.0;
  result.p50_us = percentile(all_us, 50);
  result.p95_us = percentile(all_us, 95);
  result.p99_us = percentile(all_us, 99);
  result.p999_us = percentile(all_us, 99.9);
  return result;
}

void write_json(const std::string& path,
                const std::vector<ScenarioResult>& results) {
  std::ofstream out(path);
  ESM_REQUIRE(out.good(), "cannot open " << path << " for writing");
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    out << "  {\"name\": \"" << r.name << "\", \"clients\": " << r.clients
        << ", \"warm_cache\": " << (r.warm ? "true" : "false")
        << ", \"requests\": " << r.requests
        << ", \"req_per_s\": " << r.req_per_s << ", \"p50_us\": " << r.p50_us
        << ", \"p95_us\": " << r.p95_us << ", \"p99_us\": " << r.p99_us
        << ", \"p999_us\": " << r.p999_us;
    if (!r.proto.empty()) out << ", \"proto\": \"" << r.proto << "\"";
    if (r.overload) {
      out << ", \"shed\": " << r.shed << ", \"shed_rate\": " << r.shed_rate
          << ", \"goodput_req_per_s\": " << r.req_per_s;
    }
    if (!r.per_model.empty()) {
      out << ", \"per_model\": {";
      for (std::size_t m = 0; m < r.per_model.size(); ++m) {
        const PerModelResult& per = r.per_model[m];
        out << (m > 0 ? ", " : "") << "\"" << per.model
            << "\": {\"requests\": " << per.requests
            << ", \"req_per_s\": " << per.req_per_s << "}";
      }
      out << "}";
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  esm::ArgParser args(
      "serve_throughput: requests/s and latency percentiles of the online "
      "prediction server through its event-loop front end");
  args.add_int("requests", 2000,
               "requests per client in the cold/warm/fleet scenarios");
  args.add_int("pool", 311, "distinct architectures in the request pool");
  args.add_string("out", "BENCH_serve.json", "output JSON path");
  if (!args.parse(argc, argv)) return 0;

  const std::string artifact = build_artifact(fixture_path("serve_bench.esm"), 1.0);
  const std::vector<std::string> pool =
      arch_pool(static_cast<std::size_t>(args.get_int("pool")));
  const std::size_t per_client =
      static_cast<std::size_t>(args.get_int("requests"));

  const auto report = [](const ScenarioResult& r) {
    std::cout << r.name << ": " << r.requests << " requests, "
              << static_cast<long long>(r.req_per_s) << " req/s, p50 "
              << r.p50_us << " us, p95 " << r.p95_us << " us, p99 "
              << r.p99_us << " us, p999 " << r.p999_us << " us";
    for (const PerModelResult& per : r.per_model) {
      std::cout << ", " << per.model << " "
                << static_cast<long long>(per.req_per_s) << " req/s";
    }
    std::cout << "\n";
  };

  // Synchronous clients (one request in flight each), cold vs warm cache.
  std::vector<ScenarioResult> results;
  for (const bool warm : {false, true}) {
    for (const int clients : {1, 8}) {
      Scenario scenario;
      scenario.name = std::string(warm ? "warm" : "cold") + "_" +
                      std::to_string(clients) +
                      (clients == 1 ? "_client" : "_clients");
      scenario.source = artifact;
      scenario.conns = clients;
      scenario.requests_per_conn = per_client;
      scenario.window = 1;
      scenario.warm = warm;
      results.push_back(run_event_loop_scenario(scenario, pool));
      report(results.back());
    }
  }

  // Warm routed two-model workload: every client alternates between the
  // fleet's models request by request, so each batcher round and cache
  // lookup carries mixed routes.
  {
    Scenario scenario;
    scenario.name = "fleet_warm_8_clients";
    scenario.source = build_fleet_manifest(
        artifact, build_artifact(fixture_path("serve_bench_b.esm"), 1.37));
    scenario.conns = 8;
    scenario.requests_per_conn = per_client;
    scenario.window = 1;
    scenario.models = {"edge", "cloud"};
    results.push_back(run_event_loop_scenario(scenario, pool));
    report(results.back());
  }

  // Pipelined clients: both protocols at each concurrency level, the same
  // ~16k-request workload split across the connections.
  for (const int conns : {1, 8, 256, 4096}) {
    for (const esm::serve::Protocol proto :
         {esm::serve::Protocol::esm1, esm::serve::Protocol::esm2}) {
      Scenario scenario;
      scenario.proto = proto;
      scenario.name = std::string(proto == esm::serve::Protocol::esm2
                                      ? "esm2"
                                      : "esm1") +
                      "_" + std::to_string(conns) +
                      (conns == 1 ? "_conn" : "_conns");
      scenario.source = artifact;
      scenario.conns = conns;
      scenario.requests_per_conn =
          std::max<std::size_t>(2, 16384 / static_cast<std::size_t>(conns));
      results.push_back(run_event_loop_scenario(scenario, pool));
      report(results.back());
    }
  }

  // Overload: 256 connections offering ~4x the admitted capacity; every
  // shed request is retried until it lands, so goodput stays at 100% of
  // the unique workload and the shed rate prices the overload.
  {
    const std::size_t per_conn = std::max<std::size_t>(2, 16384 / 256);
    results.push_back(run_overload_scenario(artifact, pool, 256, per_conn));
    const ScenarioResult& r = results.back();
    std::cout << r.name << ": " << r.requests << " ok, " << r.shed
              << " shed (rate " << r.shed_rate << "), goodput "
              << static_cast<long long>(r.req_per_s) << " req/s, p50 "
              << r.p50_us << " us, p99 " << r.p99_us << " us\n";
  }

  write_json(args.get_string("out"), results);
  std::cout << "wrote " << args.get_string("out") << "\n";
  return 0;
}
