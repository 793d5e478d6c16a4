// `search`: seeded SearchEngine::run queries against the MLP artifacts,
// each audited with verify_front as `esm_cli search` does. A round is ten
// queries: pareto, best-under-limit and fastest-above-floor in each of the
// three spaces on rtx4090, plus a joint rtx4090 + rpi4 pareto query on
// ResNet. One operation is one query (run + audit); every query gets its
// own seed from the run seed.
#include <iostream>
#include <memory>

#include "nas/accuracy_proxy.hpp"
#include "nas/search/engine.hpp"
#include "nas/search/wire.hpp"
#include "hwsim/latency_model.hpp"
#include "nets/builder.hpp"
#include "probes.hpp"
#include "serve/protocol.hpp"
#include "surrogate/registry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace search = esm::search;

constexpr std::size_t kPopulation = 64;
constexpr int kGenerations = 25;
/// Largest mean pareto_regret over a run's queries (quality lost against
/// the true front, in proxy top-5 accuracy units). One query can lose a
/// whole true-front point when a few percent of surrogate error near a
/// limit hides its cheapest member, so the bound is on the mean; it is
/// about four times what the artifacts show (0.05).
constexpr double kMaxMeanRegret = 0.2;
/// Size and seed of the fixed sample the query limits come from. The
/// limits are the same in every run: a limit drawn from the run seed
/// would shift the cost of every query of its kind in that run at once.
constexpr int kLimitSample = 256;
constexpr std::uint64_t kLimitSeed = 0x1111;
const char* const kSpaces[] = {"resnet", "mobilenetv3", "densenet"};

/// One space's loaded surrogate, quality proxy and query limits.
struct Space {
  esm::SupernetSpec spec;
  std::unique_ptr<esm::TrainableSurrogate> gpu;
  std::unique_ptr<esm::TrainableSurrogate> edge;  ///< ResNet only
  std::unique_ptr<esm::AccuracyProxy> proxy;
  double limit_ms = 0.0;     ///< median true rtx4090 latency of kLimitSample
  double min_quality = 0.0;  ///< median proxy quality of kLimitSample
};

struct Query {
  std::size_t space = 0;
  search::Mode mode = search::Mode::pareto;
  bool joint = false;
};

/// The ten queries of one round.
std::vector<Query> round_queries() {
  std::vector<Query> queries;
  for (std::size_t s = 0; s < 3; ++s) {
    for (search::Mode mode :
         {search::Mode::pareto, search::Mode::best, search::Mode::fastest}) {
      queries.push_back({s, mode, false});
    }
  }
  queries.push_back({0, search::Mode::pareto, true});
  return queries;
}

std::unique_ptr<esm::TrainableSurrogate> load(const std::string& path) {
  ScopedSpan span("surrogate.load");
  return esm::load_surrogate(path);
}

/// Loads the artifacts and computes each space's query limits.
std::vector<Space> set_up(const Options& options) {
  std::vector<Space> spaces;
  for (std::size_t s = 0; s < 3; ++s) {
    Space space;
    space.spec = esm::spec_by_name(kSpaces[s]);
    space.gpu = load(options.artifacts + "/" + kSpaces[s] + "_rtx4090.esm");
    if (s == 0) space.edge = load(options.artifacts + "/resnet_rpi4.esm");
    space.proxy = std::make_unique<esm::AccuracyProxy>(space.spec);
    const search::SearchEngine engine(space.spec, search::EngineConfig{});
    const esm::LatencyModel model(esm::device_by_name("rtx4090"));
    esm::Rng rng(mix_seed(kLimitSeed, s));
    std::vector<double> latency;
    std::vector<double> quality;
    for (int i = 0; i < kLimitSample; ++i) {
      const esm::ArchConfig arch = engine.sample(rng);
      latency.push_back(
          model.true_latency_ms(esm::build_graph(space.spec, arch)));
      quality.push_back(space.proxy->top5_accuracy(arch));
    }
    space.limit_ms = median(latency);
    space.min_quality = median(quality);
    spaces.push_back(std::move(space));
  }
  return spaces;
}

/// What the checks need from one query.
struct Answered {
  Query query;
  search::EngineConfig config;
  std::vector<double> limits;  ///< per objective; 0 = none
  search::SearchOutcome outcome;
  search::FrontCheck audit;
};

/// Brute-force re-check of one query's front; returns the mean accuracy
/// of the front's primary predicted latencies against hwsim truth.
double check_query(const Answered& a, const Space& space, Report& report) {
  const search::SearchOutcome& out = a.outcome;
  const std::string label = std::string(kSpaces[a.query.space]) + " " +
                            search::mode_name(a.query.mode) +
                            (a.query.joint ? " joint" : "") + " seed " +
                            std::to_string(a.config.seed);
  const auto feasible = [&](const search::ScoredArch& c) {
    for (std::size_t o = 0; o < a.limits.size(); ++o) {
      if (a.limits[o] > 0.0 && c.latency_ms[o] > a.limits[o]) return false;
    }
    return c.quality >= a.config.min_quality;
  };
  report.check(out.evaluations == kPopulation * (kGenerations + 1),
               label + ": evaluation count differs from the budget");
  report.check(out.found_feasible && !out.front.empty(),
               label + ": no feasible front");
  for (const search::ScoredArch& c : out.candidates) {
    for (double ms : c.latency_ms) {
      report.check(ms > 0.0, label + ": non-positive predicted latency");
    }
  }
  std::vector<bool> on_front(out.candidates.size(), false);
  for (std::size_t i = 0; i < out.front.size(); ++i) {
    const search::ScoredArch& f = out.candidates[out.front[i]];
    on_front[out.front[i]] = true;
    report.check(feasible(f), label + ": front member violates a limit");
    if (i > 0) {
      report.check(out.candidates[out.front[i - 1]].latency_ms[0] <=
                       f.latency_ms[0],
                   label + ": front not in ascending latency");
    }
    for (std::size_t j = 0; j < out.front.size(); ++j) {
      const search::ScoredArch& g = out.candidates[out.front[j]];
      const bool dominates =
          g.latency_ms[0] <= f.latency_ms[0] && g.quality >= f.quality &&
          (g.latency_ms[0] < f.latency_ms[0] || g.quality > f.quality);
      report.check(!dominates, label + ": front member is dominated");
    }
    const std::string wire = search::format_arch_request(space.spec, f.arch);
    report.check(esm::serve::parse_arch_request(space.spec, wire) == f.arch,
                 label + ": front arch does not round-trip the wire grammar");
  }
  // Completeness: every feasible candidate off the front is weakly
  // dominated by a front member.
  for (std::size_t c = 0; c < out.candidates.size(); ++c) {
    const search::ScoredArch& cand = out.candidates[c];
    if (on_front[c] || !feasible(cand)) continue;
    bool covered = false;
    for (std::size_t f : out.front) {
      covered = covered ||
                (out.candidates[f].latency_ms[0] <= cand.latency_ms[0] &&
                 out.candidates[f].quality >= cand.quality);
    }
    report.check(covered, label + ": feasible candidate missing from front");
  }
  const esm::LatencyModel model(esm::device_by_name("rtx4090"));
  double accuracy = 0.0;
  for (std::size_t f : out.front) {
    const esm::ArchConfig& arch = out.candidates[f].arch;
    const double truth =
        model.true_latency_ms(esm::build_graph(space.spec, arch));
    accuracy += sample_accuracy(out.candidates[f].latency_ms[0], truth);
  }
  return out.front.empty() ? 0.0
                           : accuracy / static_cast<double>(out.front.size());
}

}  // namespace

void run_search(const Options& options, Report& report) {
  std::vector<Space> spaces;
  const double setup_s =
      median_setup_seconds([&] { spaces = set_up(options); });

  const std::vector<Query> queries = round_queries();
  // The last round's answers feed the probes; each answer is checked as
  // soon as its operation ends, outside the operation's time, so memory
  // does not grow with the number of queries.
  std::vector<Answered> last_round(queries.size());
  std::vector<double> op_ms;
  double busy_s = 0.0;
  double engine_s = 0.0;
  double evaluations = 0.0;
  double accuracy = 0.0;
  double regret = 0.0;
  double front_size = 0.0;
  std::uint64_t query_index = 0;
  int rounds = 0;
  const Clock::time_point start = Clock::now();
  while (rounds == 0 || seconds_since(start) < options.seconds) {
    for (std::size_t k = 0; k < queries.size(); ++k) {
      const Query& q = queries[k];
      const Space& space = spaces[q.space];
      Answered& a = last_round[k];
      a = Answered{};
      a.query = q;
      a.config.mode = q.mode;
      a.config.population = kPopulation;
      a.config.generations = kGenerations;
      a.config.seed = mix_seed(options.seed, query_index++);
      if (q.mode == search::Mode::fastest) {
        a.config.min_quality = space.min_quality;
      }
      const double limit = q.mode == search::Mode::best ? space.limit_ms : 0.0;
      const TracedPredictor gpu(*space.gpu);
      std::vector<search::Objective> objectives{{"rtx4090", &gpu, limit}};
      a.limits = {limit};
      std::unique_ptr<TracedPredictor> edge;
      if (q.joint) {
        edge = std::make_unique<TracedPredictor>(*space.edge);
        objectives.push_back({"rpi4", edge.get(), 0.0});
        a.limits.push_back(0.0);
      }
      const search::SearchEngine engine(space.spec, a.config);
      const Clock::time_point op_start = Clock::now();
      {
        ScopedSpan span("nas.engine.run");
        a.outcome = engine.run(objectives, *space.proxy);
      }
      engine_s += seconds_since(op_start);
      {
        ScopedSpan span("nas.verify_front");
        a.audit = search::verify_front(space.spec, a.outcome,
                                       esm::device_by_name("rtx4090"), limit,
                                       a.config.min_quality);
      }
      const double op_s = seconds_since(op_start);
      busy_s += op_s;
      op_ms.push_back(op_s * 1e3);
      ++report.attempted;
      evaluations += static_cast<double>(a.outcome.evaluations);
      accuracy += check_query(a, space, report);
      regret += a.audit.regret;
      front_size += static_cast<double>(a.outcome.front.size());
    }
    ++rounds;
  }
  const double rss_mb = peak_rss_mb();
  const double n = static_cast<double>(op_ms.size());
  report.check(regret / n <= kMaxMeanRegret,
               "mean verify_front regret " + std::to_string(regret / n) +
                   " is above " + std::to_string(kMaxMeanRegret));
  std::cout << "search: " << rounds << " round(s), " << op_ms.size()
            << " queries in " << busy_s << " s, mean regret " << regret / n
            << "\nsearch: median ms per query kind:";
  for (std::size_t k = 0; k < queries.size(); ++k) {
    std::vector<double> kind_ms;
    for (std::size_t i = k; i < op_ms.size(); i += queries.size()) {
      kind_ms.push_back(op_ms[i]);
    }
    std::cout << " " << median(kind_ms);
  }
  std::cout << "\n";

  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", rss_mb, "MB");
  report.e2e("ops_per_s", n / busy_s, "1/s");
  report.e2e("op_p50_ms", median(op_ms), "ms");
  report.e2e("op_p99_ms", quantile(op_ms, 0.99), "ms");
  report.e2e("archs_per_s", evaluations / engine_s, "1/s");
  report.e2e("holdout_acc_pct", 100.0 * accuracy / n, "%");
  if (!options.trace) return;

  const Tracer& tracer = Tracer::instance();
  const Tracer::Totals engine = tracer.totals_of("nas.engine.run");
  report.layer("nas.engine_self_us_per_eval", engine.self_s / evaluations * 1e6,
               "us");
  report.layer("surrogate.predict_all_us_per_arch.b64",
               tracer.totals_of("surrogate.predict_all").total_s /
                   tracer.counter("surrogate.predict_all_archs") * 1e6,
               "us");
  const Tracer::Totals verify = tracer.totals_of("nas.verify_front");
  report.layer("nas.verify_front_ms",
               verify.total_s / static_cast<double>(verify.count) * 1e3, "ms");
  report.layer("nas.evaluations", evaluations / n, "count");
  report.layer("nas.front_size", front_size / n, "count");
  const Tracer::Totals load = tracer.totals_of("surrogate.load");
  report.layer("surrogate.load_ms",
               load.total_s / static_cast<double>(load.count) * 1e3, "ms");

  // Probes on the last round's final candidates, per space, weighted as
  // the round weights the spaces.
  double proxy_us = 0.0;
  double graph_us = 0.0;
  double encode_ns = 0.0;
  for (const Answered& a : last_round) {
    const Space& space = spaces[a.query.space];
    std::vector<esm::ArchConfig> archs;
    for (const search::ScoredArch& c : a.outcome.candidates) {
      archs.push_back(c.arch);
    }
    proxy_us += probe_proxy_us(*space.proxy, archs);
    graph_us += probe_build_graph_us(space.spec, archs);
    encode_ns += probe_fcc_encode_ns(space.spec, archs);
  }
  const double q = static_cast<double>(last_round.size());
  report.layer("nas.proxy_us_per_arch", proxy_us / q, "us");
  report.layer("nets.build_graph_us", graph_us / q, "us");
  report.layer("encoding.fcc_encode_ns", encode_ns / q, "ns");
}

}  // namespace perfbench
