// esm_perfbench — the ESM benchmark program (run through perfbench/run.py).
//
//   esm_perfbench run --workload build|search|serve --seed N --seconds S
//                     --trace 0|1 --artifacts DIR --work-dir DIR
//   esm_perfbench make-artifacts --out DIR
//
// `run` prints, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one. A traced run
// also prints its own end-to-end metrics on a line starting with
// "traced_end_to_end " (the tracing overhead is their difference from an
// untraced run) and writes its spans to <work-dir>/trace-<workload>.jsonl.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports
/// all of them; a layer the workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"ml.fit_s", "s"},
      {"ml.fit_gflops", "GFLOP/s"},
      {"ml.fit_minor_faults", "count"},
      {"linalg.gemm_gflops.b256", "GFLOP/s"},
      {"linalg.gemm_peak_frac.b256", "ratio"},
      {"esm.framework.iterations", "count"},
      {"esm.framework.self_s", "s"},
      {"esm.dataset_gen.sessions", "count"},
      {"esm.dataset_gen.retries", "count"},
      {"esm.dataset_gen.measure_batch_ms", "ms"},
      {"esm.dataset_gen.device_s", "sim-s"},
      {"hwsim.measure_us", "us"},
      {"hwsim.true_latency_us", "us"},
      {"nas.proxy_us_per_arch", "us"},
      {"nets.build_graph_us", "us"},
      {"nas.engine_self_us_per_eval", "us"},
      {"surrogate.predict_all_us_per_arch.b64", "us"},
      {"nas.verify_front_ms", "ms"},
      {"nas.evaluations", "count"},
      {"nas.front_size", "count"},
      {"serve.hit_ratio", "ratio"},
      {"serve.batch_archs_mean", "archs"},
      {"surrogate.predict_all_us_per_arch.b1", "us"},
      {"serve.frame_codec_ns", "ns"},
      {"serve.esm1_parse_ns", "ns"},
      {"serve.cache_lookup_ns", "ns"},
      {"serve.requests_over_10ms", "count"},
      {"encoding.fcc_encode_ns", "ns"},
      {"surrogate.load_ms", "ms"},
  };
  return metrics;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           perfbench::json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// The per-layer list in canonical order: what the workload reported, 0
/// for the layers it does not call. Unknown names are a program error.
std::vector<Metric> complete_per_layer(const std::vector<Metric>& reported) {
  std::map<std::string, double> values;
  for (const Metric& m : reported) values[m.name] = m.value;
  std::vector<Metric> out;
  std::set<std::string> known;
  for (const auto& [name, unit] : per_layer_metrics()) {
    known.insert(name);
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const Metric& m : reported) {
    if (!known.count(m.name)) {
      throw std::logic_error("unlisted per-layer metric " + m.name);
    }
  }
  return out;
}

int usage() {
  std::cerr << "usage: esm_perfbench run --workload build|search|serve "
               "--seed N --seconds S --trace 0|1 --artifacts DIR "
               "--work-dir DIR\n"
               "       esm_perfbench make-artifacts --out DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  try {
    if (command == "make-artifacts") {
      if (!flags.count("out")) return usage();
      return perfbench::make_artifacts(flags["out"]);
    }
    if (command != "run") return usage();
    for (const char* required :
         {"workload", "seed", "seconds", "trace", "artifacts", "work-dir"}) {
      if (!flags.count(required)) return usage();
    }
    perfbench::Options options;
    options.workload = flags["workload"];
    options.seed = std::stoull(flags["seed"]);
    options.seconds = std::stod(flags["seconds"]);
    options.trace = flags["trace"] == "1";
    options.artifacts = flags["artifacts"];
    options.work_dir = flags["work-dir"];
    if (options.trace) perfbench::Tracer::instance().enable();

    perfbench::Report report;
    if (options.workload == "build") {
      perfbench::run_build(options, report);
    } else if (options.workload == "search") {
      perfbench::run_search(options, report);
    } else if (options.workload == "serve") {
      perfbench::run_serve(options, report);
    } else {
      std::cerr << "unknown workload " << options.workload << "\n";
      return 2;
    }
    for (const std::string& failure : report.failures) {
      std::cerr << "CHECK FAILED: " << failure << "\n";
    }
    std::vector<Metric> metrics = report.end_to_end;
    if (options.trace) {
      std::cout << "traced_end_to_end " << metrics_json(report.end_to_end)
                << "\n";
      metrics = complete_per_layer(report.per_layer);
      perfbench::Tracer::instance().write(options.work_dir + "/trace-" +
                                          options.workload + ".jsonl");
    }
    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed
              << ", \"metrics\": " << metrics_json(metrics) << "}"
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "esm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
