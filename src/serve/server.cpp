#include "serve/server.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "nas/search/wire.hpp"
#include "surrogate/registry.hpp"

namespace esm::serve {
namespace {

using Clock = std::chrono::steady_clock;

Reply ok_reply(std::string verb, std::string payload) {
  Reply reply;
  reply.verb = std::move(verb);
  reply.payload = std::move(payload);
  return reply;
}

Reply error_reply(ErrorCode code, std::string detail) {
  Reply reply;
  reply.ok = false;
  reply.code = code;
  reply.payload = std::move(detail);
  return reply;
}

// Internal signals travelling as exception_ptr from admission, the
// batcher and the search worker to answer_error, which maps them to their
// wire error code and metrics ErrorKind.
struct OverloadedError : std::runtime_error {
  explicit OverloadedError(
      const char* what = "server overloaded: admission queue full")
      : std::runtime_error(what) {}
};

struct DeadlineExceededError : std::runtime_error {
  DeadlineExceededError()
      : std::runtime_error("deadline passed before the request was served") {}
};

struct WireError {
  ErrorCode code;
  ServerMetrics::ErrorKind kind;
  std::string message;
};

/// The one failure-to-wire mapping of prediction and search lines.
WireError classify_failure(std::exception_ptr error, ErrorCode config_code) {
  using Kind = ServerMetrics::ErrorKind;
  try {
    std::rethrow_exception(error);
  } catch (const OverloadedError& e) {
    return {ErrorCode::overloaded, Kind::shed, e.what()};
  } catch (const DeadlineExceededError& e) {
    return {ErrorCode::deadline_exceeded, Kind::expired, e.what()};
  } catch (const search::SearchCancelled&) {
    return {ErrorCode::deadline_exceeded, Kind::expired,
            DeadlineExceededError().what()};
  } catch (const ConfigError& e) {
    return {config_code, Kind::other, e.what()};
  } catch (const std::exception& e) {
    return {ErrorCode::server_error, Kind::other, e.what()};
  } catch (...) {
    return {ErrorCode::server_error, Kind::other, "unknown failure"};
  }
}

bool deadline_passed(Clock::time_point deadline, Clock::time_point now) {
  return deadline != Clock::time_point::max() && now >= deadline;
}

}  // namespace

PredictionServer::PredictionServer(ServeConfig config)
    : config_(std::move(config)) {
  // Throws before any thread starts when the fleet cannot be loaded, so a
  // failed construction needs no teardown.
  install_source(config_.artifact_path);
  batcher_thread_ = std::thread([this] { batcher_loop(); });
  search_thread_ = std::thread([this] { search_loop(); });
  if (config_.summary_period_s > 0.0) {
    summary_thread_ = std::thread([this] { summary_loop(); });
  }
}

PredictionServer::~PredictionServer() {
  request_stop();
  wait();
}

void PredictionServer::install_source(const std::string& path) {
  // Serialized: concurrent reloads must not interleave their generation
  // assignment or race the carry-over inspection of the previous fleet.
  std::lock_guard<std::mutex> install_lock(install_mutex_);
  std::shared_ptr<const ModelFleet> previous = current_fleet();

  // One read serves both routing and parsing: the content decides whether
  // this is a fleet manifest or a bare artifact, and single-artifact loads
  // parse the same buffer instead of re-reading the file.
  const std::string bytes = read_file(path, "artifact or fleet manifest");
  std::shared_ptr<const ModelFleet> next;
  if (FleetManifest::looks_like_manifest(bytes)) {
    next = ModelFleet::load(path, previous.get(), generation_counter_,
                            config_.cache_capacity);
  } else {
    next = ModelFleet::single("default", path, crc32_hex(crc32(bytes)),
                              load_surrogate(path, bytes), generation_counter_,
                              config_.cache_capacity);
  }
  {
    std::lock_guard<std::mutex> lock(fleet_mutex_);
    fleet_ = next;
  }
  // The stats identity shows the served source; kind/encoder/space are the
  // default model's (the one keyless requests hit).
  const FleetModel& def = next->default_model();
  metrics_.set_artifact(path,
                        next->from_manifest() ? next->manifest_crc32()
                                              : def.crc32_hex,
                        def.model->kind(), def.model->encoder_key(),
                        def.model->spec().name);
}

std::shared_ptr<const ModelFleet> PredictionServer::current_fleet() const {
  std::lock_guard<std::mutex> lock(fleet_mutex_);
  return fleet_;
}

std::shared_ptr<const ModelFleet> PredictionServer::fleet() const {
  return current_fleet();
}

std::shared_ptr<const TrainableSurrogate> PredictionServer::model() const {
  return current_fleet()->default_model().model;
}

void PredictionServer::handle_request(const ParsedRequest& request,
                                      std::size_t wire_bytes,
                                      ReplyCallback done) {
  try {
    dispatch_request(request, wire_bytes, done);
  } catch (const std::exception& e) {
    // Backstop: no request, however malformed, may take down its
    // transport. Handlers invoke `done` as their final action, so an
    // exception escaping here means `done` has not fired yet.
    if (done) done(error_reply(ErrorCode::server_error, e.what()));
  }
}

void PredictionServer::dispatch_request(const ParsedRequest& request,
                                        std::size_t wire_bytes,
                                        ReplyCallback& done) {
  const bool is_search = request.verb == "search";
  const bool is_predict = request.verb == "predict" ||
                          request.verb == "predict_batch" || is_search;

  if (wire_bytes > config_.max_line_bytes) {
    is_predict
        ? metrics_.count_predict_error(metrics_.model_section(
              kUnroutedSection))
        : metrics_.count_control_line(true);
    done(error_reply(ErrorCode::oversized,
                     "request of " + std::to_string(wire_bytes) +
                         " bytes exceeds the " +
                         std::to_string(config_.max_line_bytes) +
                         "-byte limit"));
    return;
  }

  if (is_predict) {
    // Deadline sources, most specific first: the esm1 "deadline=<ms>"
    // payload token, the esm2 v2 frame field, then the server default.
    std::string payload = request.payload;
    std::uint32_t deadline_ms = request.deadline_ms;
    std::string deadline_error;
    if (!extract_deadline_token(payload, deadline_ms, deadline_error)) {
      metrics_.count_predict_error(metrics_.model_section(kUnroutedSection));
      done(error_reply(ErrorCode::bad_request, deadline_error));
      return;
    }
    if (deadline_ms == 0) deadline_ms = config_.default_deadline_ms;
    const Clock::time_point deadline =
        deadline_ms == 0 ? Clock::time_point::max()
                         : Clock::now() + std::chrono::milliseconds(
                                              deadline_ms);
    if (is_search) {
      // An empty payload is a valid search (every knob has a default).
      handle_search(payload, deadline, std::move(done));
      return;
    }
    if (payload.empty()) {
      metrics_.count_predict_error(metrics_.model_section(kUnroutedSection));
      done(error_reply(ErrorCode::bad_request,
                       request.verb == "predict"
                           ? "predict needs an architecture"
                           : "predict_batch needs ';'-separated "
                             "architectures"));
      return;
    }
    handle_predict(request.verb == "predict_batch", payload, deadline,
                   std::move(done));
    return;
  }
  if (request.verb == "info") {
    // `info` takes an optional model key; validation happens inside.
    done(handle_info(request.payload));
    return;
  }
  if (request.verb == "models" || request.verb == "stats" ||
      request.verb == "shutdown") {
    if (!request.payload.empty()) {
      metrics_.count_control_line(true);
      done(error_reply(ErrorCode::bad_request,
                       request.verb + " takes no payload"));
      return;
    }
    metrics_.count_control_line(false);
    if (request.verb == "models") {
      done(handle_models());
      return;
    }
    if (request.verb == "stats") {
      done(handle_stats());
      return;
    }
    Reply reply = ok_reply("shutdown", "draining");
    reply.shutdown = true;
    done(std::move(reply));
    return;
  }
  if (request.verb == "reload") {
    if (request.payload.empty()) {
      metrics_.count_control_line(true);
      done(error_reply(ErrorCode::bad_request,
                       "reload needs a manifest or artifact path"));
      return;
    }
    done(handle_reload(request.payload));
    return;
  }
  metrics_.count_control_line(true);
  if (request.verb.empty()) {
    done(error_reply(ErrorCode::bad_request, "empty request line"));
    return;
  }
  done(error_reply(ErrorCode::unknown_verb,
                   "unknown verb '" + request.verb +
                       "' (predict, predict_batch, search, info, models, "
                       "stats, reload, shutdown)"));
}

struct PredictionServer::PredictJoin {
  bool batch = false;
  std::vector<double> values;
  ModelMetrics* section = nullptr;
  ReplyCallback done;
  /// Misses not yet resolved; acq_rel, so the thread resolving the last
  /// one observes every other slot write.
  std::atomic<std::size_t> remaining{0};
  std::mutex error_mutex;
  std::exception_ptr error;  ///< first failure; guarded by error_mutex
};

void PredictionServer::handle_predict(
    bool batch, const std::string& payload,
    std::chrono::steady_clock::time_point deadline, ReplyCallback done) {
  const RoutedPayload routed = split_model_key(payload);
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  const FleetModel* model = routed.model.empty()
                                ? &fleet->default_model()
                                : fleet->find(routed.model);
  if (model == nullptr) {
    metrics_.count_predict_error(metrics_.model_section(kUnroutedSection));
    done(error_reply(ErrorCode::unknown_model,
                     "unknown model '" + routed.model +
                         "' (see the models verb)"));
    return;
  }
  ModelMetrics* section = metrics_.model_section(model->name);
  std::vector<ArchConfig> archs;
  try {
    if (batch) {
      archs = parse_arch_batch(model->model->spec(), routed.rest,
                               config_.max_batch_archs);
    } else {
      archs.push_back(parse_arch_request(model->model->spec(), routed.rest));
    }
  } catch (const ConfigError&) {
    answer_error(section, std::current_exception(), ErrorCode::bad_arch, done);
    return;
  }
  // Admission-time expiry: a dead-on-arrival request must not take a cache
  // or batch slot from live ones.
  if (deadline_passed(deadline, Clock::now())) {
    answer_error(section, std::make_exception_ptr(DeadlineExceededError()),
                 ErrorCode::bad_arch, done);
    return;
  }

  auto join = std::make_shared<PredictJoin>();
  join->batch = batch;
  join->values.assign(archs.size(), 0.0);
  join->section = section;
  join->done = std::move(done);
  std::vector<Pending> misses;
  for (std::size_t i = 0; i < archs.size(); ++i) {
    std::string key =
        std::to_string(model->generation) + '|' + archs[i].to_string();
    if (const std::optional<double> hit = model->cache->get(key)) {
      join->values[i] = *hit;
      continue;
    }
    Pending& miss = misses.emplace_back();
    miss.arch = std::move(archs[i]);
    miss.model = std::shared_ptr<const FleetModel>(fleet, model);
    miss.deadline = deadline;
    miss.join = join;
    miss.index = i;
    miss.key = std::move(key);
  }
  metrics_.count_archs(archs.size() - misses.size(), misses.size(), section);
  if (misses.empty()) {
    finish(*join, /*all_from_cache=*/true);
    return;
  }
  // The counter reaches its full value before any miss can resolve.
  join->remaining.store(misses.size(), std::memory_order_relaxed);
  enqueue(std::move(misses));
}

void PredictionServer::resolve(Pending& entry, double value,
                               std::exception_ptr error) {
  PredictJoin& join = *entry.join;
  if (error == nullptr) {
    join.values[entry.index] = value;
    entry.model->cache->put(entry.key, value);
  } else {
    std::lock_guard<std::mutex> lock(join.error_mutex);
    if (join.error == nullptr) join.error = error;
  }
  if (join.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finish(join, /*all_from_cache=*/false);
  }
}

void PredictionServer::finish(PredictJoin& join, bool all_from_cache) {
  if (join.error != nullptr) {
    answer_error(join.section, join.error, ErrorCode::bad_arch, join.done);
    return;
  }
  metrics_.count_predict_line(all_from_cache, join.section);
  if (!join.batch) {
    join.done(ok_reply("predict", format_latency(join.values.front())));
    return;
  }
  std::ostringstream os;
  os << join.values.size();
  for (double v : join.values) os << ' ' << format_latency(v);
  join.done(ok_reply("predict_batch", os.str()));
}

void PredictionServer::answer_error(ModelMetrics* section,
                                    std::exception_ptr error,
                                    ErrorCode config_code,
                                    const ReplyCallback& done) {
  const WireError wire = classify_failure(std::move(error), config_code);
  metrics_.count_predict_error(section, wire.kind);
  done(error_reply(wire.code, wire.message));
}

void PredictionServer::handle_search(
    const std::string& payload, std::chrono::steady_clock::time_point deadline,
    ReplyCallback done) {
  // Parse + validate inline so malformed queries reject without touching
  // the worker. Anything failing before a model is resolved attributes to
  // the "_unrouted" section, same as predict routing failures.
  search::SearchRequest request;
  try {
    request = search::parse_search_request(payload);
  } catch (const ConfigError&) {
    answer_error(metrics_.model_section(kUnroutedSection),
                 std::current_exception(), ErrorCode::bad_request, done);
    return;
  }
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  SearchJob job;
  job.config = request.config;
  job.limits_ms = request.limits_ms;
  job.deadline = deadline;
  if (request.models.empty()) {
    job.models.push_back(std::shared_ptr<const FleetModel>(
        fleet, &fleet->default_model()));
  } else {
    for (const std::string& name : request.models) {
      const FleetModel* model = fleet->find(name);
      if (model == nullptr) {
        metrics_.count_predict_error(metrics_.model_section(kUnroutedSection));
        done(error_reply(ErrorCode::unknown_model,
                         "unknown model '" + name +
                             "' (see the models verb)"));
        return;
      }
      job.models.push_back(std::shared_ptr<const FleetModel>(fleet, model));
    }
  }
  // The search line is attributed to the primary (first) model's section.
  job.section = metrics_.model_section(job.models.front()->name);
  const std::string& space = job.models.front()->model->spec().name;
  for (const std::shared_ptr<const FleetModel>& model : job.models) {
    if (model->model->spec().name != space) {
      metrics_.count_predict_error(job.section);
      done(error_reply(ErrorCode::bad_request,
                       "search models must share one space; '" +
                           model->name + "' serves " +
                           model->model->spec().name + ", not " + space));
      return;
    }
  }
  const std::size_t budget =
      request.config.population *
      (static_cast<std::size_t>(request.config.generations) + 1);
  if (config_.max_search_evals != 0 && budget > config_.max_search_evals) {
    metrics_.count_predict_error(job.section);
    done(error_reply(ErrorCode::bad_request,
                     "search budget of " + std::to_string(budget) +
                         " evaluations exceeds the server cap of " +
                         std::to_string(config_.max_search_evals)));
    return;
  }
  try {
    // Engine-config validation (probability ranges, fastest-mode floor)
    // happens here so the requester gets bad_request inline, not a
    // server_error from the worker.
    search::SearchEngine(job.models.front()->model->spec(), request.config);
  } catch (const ConfigError&) {
    answer_error(job.section, std::current_exception(),
                 ErrorCode::bad_request, done);
    return;
  }
  // Admission-time expiry, same rule as predictions.
  if (deadline_passed(deadline, Clock::now())) {
    answer_error(job.section,
                 std::make_exception_ptr(DeadlineExceededError()),
                 ErrorCode::bad_request, done);
    return;
  }
  job.done = std::move(done);
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(search_mutex_);
    if (config_.max_search_queue != 0 &&
        search_queue_.size() + search_inflight_ >= config_.max_search_queue) {
      shed = true;
    } else {
      search_queue_.push_back(std::move(job));
    }
  }
  if (shed) {
    answer_error(job.section,
                 std::make_exception_ptr(
                     OverloadedError("server overloaded: search queue full")),
                 ErrorCode::bad_request, job.done);
    return;
  }
  search_cv_.notify_one();
}

void PredictionServer::search_loop() {
  for (;;) {
    SearchJob job;
    {
      std::unique_lock<std::mutex> lock(search_mutex_);
      search_cv_.wait(
          lock, [this] { return !search_queue_.empty() || search_stop_; });
      if (search_queue_.empty()) return;
      job = std::move(search_queue_.front());
      search_queue_.pop_front();
      ++search_inflight_;
    }
    try {
      // Dequeue-time expiry: a search whose deadline lapsed while waiting
      // behind another must not burn the worker.
      if (deadline_passed(job.deadline, Clock::now())) {
        throw DeadlineExceededError();
      }
      const SupernetSpec& spec = job.models.front()->model->spec();
      const search::SearchEngine engine(spec, job.config);
      const AccuracyProxy proxy(spec);
      std::vector<search::Objective> objectives;
      objectives.reserve(job.models.size());
      for (std::size_t i = 0; i < job.models.size(); ++i) {
        search::Objective objective;
        objective.name = job.models[i]->name;
        objective.predictor = job.models[i]->model.get();
        objective.limit_ms =
            job.limits_ms.empty() ? 0.0 : job.limits_ms[i];
        objectives.push_back(std::move(objective));
      }
      // Deadlines keep cutting between generations; a server drain does
      // NOT cancel an admitted search (drain answers everything admitted).
      const search::SearchOutcome outcome = engine.run(
          objectives, proxy, [deadline = job.deadline] {
            return deadline_passed(deadline, Clock::now());
          });
      metrics_.count_search(outcome.evaluations);
      metrics_.count_predict_line(false, job.section);
      job.done(ok_reply(
          "search", search::format_front_payload(spec, job.config, outcome)));
    } catch (...) {
      answer_error(job.section, std::current_exception(),
                   ErrorCode::bad_request, job.done);
    }
    {
      std::lock_guard<std::mutex> lock(search_mutex_);
      --search_inflight_;
    }
  }
}

Reply PredictionServer::handle_info(const std::string& payload) {
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  const FleetModel* model = nullptr;
  if (payload.empty()) {
    model = &fleet->default_model();
  } else {
    model = fleet->find(payload);
    if (model == nullptr) {
      metrics_.count_control_line(true);
      return error_reply(ErrorCode::unknown_model,
                         "unknown model '" + payload +
                             "' (see the models verb)");
    }
  }
  metrics_.count_control_line(false);
  const MetricsSnapshot snap = metrics_.snapshot();
  std::ostringstream os;
  os << "proto=1 model=" << model->name << " kind=" << model->model->kind()
     << " encoder=" << model->model->encoder_key()
     << " space=" << model->model->spec().name
     << " generation=" << model->generation
     << " models=" << fleet->models().size()
     << " default=" << fleet->default_model().name
     << " reloads=" << snap.reloads
     << " cache_capacity=" << config_.cache_capacity
     << " artifact_crc32=" << model->crc32_hex
     << " artifact=" << model->artifact_path;
  if (fleet->from_manifest()) {
    os << " manifest_crc32=" << fleet->manifest_crc32()
       << " manifest=" << fleet->source_path();
  }
  return ok_reply("info", os.str());
}

Reply PredictionServer::handle_models() {
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  std::ostringstream os;
  for (std::size_t i = 0; i < fleet->models().size(); ++i) {
    if (i > 0) os << ' ';
    os << fleet->models()[i].name;
  }
  return ok_reply("models", os.str());
}

Reply PredictionServer::handle_stats() {
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  std::size_t cache_size = 0;
  for (const FleetModel& model : fleet->models()) {
    cache_size += model.cache->size();
  }
  std::string payload = ServerMetrics::stats_payload(metrics_.snapshot());
  payload += " models=" + std::to_string(fleet->models().size()) +
             " cache_size=" + std::to_string(cache_size) +
             " cache_capacity=" + std::to_string(config_.cache_capacity);
  return ok_reply("stats", payload);
}

Reply PredictionServer::handle_reload(const std::string& path) {
  try {
    install_source(path);
  } catch (const std::exception& e) {
    // The old fleet keeps serving; install_source swaps only after every
    // entry of the new fleet loaded (all-or-nothing).
    metrics_.count_control_line(true);
    return error_reply(ErrorCode::reload_failed, e.what());
  }
  metrics_.count_control_line(false);
  metrics_.count_reload();
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  const FleetModel& def = fleet->default_model();
  return ok_reply("reload",
                  "models=" + std::to_string(fleet->models().size()) +
                      " default=" + def.name + " generation=" +
                      std::to_string(def.generation) + " source=" + path);
}

void PredictionServer::enqueue(std::vector<Pending> misses) {
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Admission control: shed instead of queueing unboundedly. The caller
    // gets the rejection inline (never a stall), and nothing of the line
    // was admitted, so the drain guarantee ("every admitted entry is
    // answered") holds and a shed line costs the batcher nothing.
    admitted = config_.max_inflight == 0 ||
               queue_.size() + inflight_ + misses.size() <=
                   config_.max_inflight;
    if (admitted) {
      for (Pending& miss : misses) queue_.push_back(std::move(miss));
    }
  }
  if (!admitted) {
    PredictJoin& join = *misses.front().join;
    join.error = std::make_exception_ptr(OverloadedError());
    finish(join, /*all_from_cache=*/false);
    return;
  }
  queue_cv_.notify_one();
}

void PredictionServer::batcher_loop() {
  for (;;) {
    std::vector<Pending> drained;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || batcher_stop_; });
      if (queue_.empty()) return;  // stop requested and queue drained
      // Everything that accumulated while the previous round was in
      // flight coalesces into this round (bounded by max_batch).
      const std::size_t n = std::min(queue_.size(), config_.max_batch);
      drained.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        drained.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      inflight_ += n;
    }
    // Dequeue-time expiry: entries whose deadline passed while queued are
    // answered without spending a predict_all slot on them.
    const Clock::time_point now = Clock::now();
    std::vector<char> expired(drained.size(), 0);
    for (std::size_t i = 0; i < drained.size(); ++i) {
      if (deadline_passed(drained[i].deadline, now)) {
        expired[i] = 1;
        resolve(drained[i], 0.0,
                std::make_exception_ptr(DeadlineExceededError()));
      }
    }
    // Group by model: each group is one predict_all dispatch against the
    // model instance the requests were routed to. Entries keep their fleet
    // snapshot alive, so a concurrent reload never invalidates a group.
    std::vector<std::pair<const FleetModel*, std::vector<std::size_t>>>
        groups;
    for (std::size_t i = 0; i < drained.size(); ++i) {
      if (expired[i]) continue;
      const FleetModel* key = drained[i].model.get();
      bool found = false;
      for (auto& group : groups) {
        if (group.first == key) {
          group.second.push_back(i);
          found = true;
          break;
        }
      }
      if (!found) groups.push_back({key, {i}});
    }
    for (const auto& [model, indices] : groups) {
      std::vector<ArchConfig> archs;
      archs.reserve(indices.size());
      for (std::size_t i : indices) archs.push_back(drained[i].arch);
      metrics_.count_batch(indices.size());
      try {
        const std::vector<double> values = model->model->predict_all(archs);
        for (std::size_t k = 0; k < indices.size(); ++k) {
          resolve(drained[indices[k]], values[k], nullptr);
        }
      } catch (...) {
        // Per-arch fallback: one failing architecture (e.g. a layer a
        // device-less LUT never profiled) must not poison the coalesced
        // requests of other clients.
        for (std::size_t i : indices) {
          Pending& p = drained[i];
          double value = 0.0;
          std::exception_ptr error;
          try {
            value = model->model->predict_ms(p.arch);
          } catch (...) {
            error = std::current_exception();
          }
          resolve(p, value, error);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      inflight_ -= drained.size();
    }
  }
}

void PredictionServer::summary_loop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  const auto period = std::chrono::duration<double>(config_.summary_period_s);
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, period, [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    std::fprintf(stderr, "%s\n",
                 ServerMetrics::summary_line(metrics_.snapshot()).c_str());
    lock.lock();
  }
}

bool PredictionServer::stopping() const {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  return stop_requested_;
}

void PredictionServer::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void PredictionServer::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_; });
    if (joined_) return;
    if (joining_) {
      stop_cv_.wait(lock, [this] { return joined_; });
      return;
    }
    joining_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    batcher_stop_ = true;
  }
  queue_cv_.notify_all();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  // The search worker finishes every admitted search before exiting, same
  // drain guarantee as the batcher.
  {
    std::lock_guard<std::mutex> lock(search_mutex_);
    search_stop_ = true;
  }
  search_cv_.notify_all();
  if (search_thread_.joinable()) search_thread_.join();
  if (summary_thread_.joinable()) summary_thread_.join();
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    joined_ = true;
  }
  stop_cv_.notify_all();
}

}  // namespace esm::serve
