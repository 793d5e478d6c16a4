#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <utility>

#include "common.hpp"
#include "common/error.hpp"
#include "encoding/registry.hpp"

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  enabled_ = true;
  owner_ = std::this_thread::get_id();
}

bool Tracer::recording() const {
  return enabled_ && std::this_thread::get_id() == owner_;
}

namespace {

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

int Tracer::begin(const char* name) {
  if (!recording()) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = to_ns(Clock::now());
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  // Spans open only through ScopedSpan, so they close innermost first.
  spans_[static_cast<std::size_t>(index)].end_ns = to_ns(Clock::now());
  open_.pop_back();
}

void Tracer::count(const std::string& name, double amount) {
  if (recording()) counters_[name] += amount;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Children of a span run one after another inside it, so their summed
  // durations are the part of the parent they cover.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - covered[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

Tracer::Totals Tracer::totals_of(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin
        << ", \"parent\": " << s.parent << "}\n";
  }
}

namespace {

/// GEMM FLOPs of one training epoch of the paper MLP {dim, 64, 64, 1} on
/// `n` samples, computed from the layer shapes: forward, weight gradient,
/// and input gradient for every layer but the first.
double fit_flops_per_epoch(std::size_t dim, std::size_t n) {
  const double dims[] = {static_cast<double>(dim), 64.0, 64.0, 1.0};
  double per_sample = 0.0;
  for (int l = 0; l < 3; ++l) {
    const double mac = dims[l] * dims[l + 1];
    per_sample += 2.0 * mac * (l == 0 ? 2.0 : 3.0);
  }
  return per_sample * static_cast<double>(n);
}

class TracedSurrogate final : public esm::TrainableSurrogate {
 public:
  TracedSurrogate(std::unique_ptr<esm::TrainableSurrogate> inner,
                  std::size_t input_dim, int epochs)
      : inner_(std::move(inner)), input_dim_(input_dim), epochs_(epochs) {}

  void fit(const esm::SurrogateDataset& data) override {
    Tracer& tracer = Tracer::instance();
    const long faults_before = minor_faults();
    {
      ScopedSpan span("ml.fit");
      inner_->fit(data);
    }
    tracer.count("ml.fit_minor_faults",
                 static_cast<double>(minor_faults() - faults_before));
    tracer.count("ml.fit_flops",
                 fit_flops_per_epoch(input_dim_, data.size()) * epochs_);
  }
  bool fitted() const override { return inner_->fitted(); }
  std::string kind() const override { return inner_->kind(); }
  std::string encoder_key() const override { return inner_->encoder_key(); }
  const esm::SupernetSpec& spec() const override { return inner_->spec(); }
  void save(esm::ArchiveWriter& archive) const override {
    inner_->save(archive);
  }
  double predict_ms(const esm::ArchConfig& arch) const override {
    return inner_->predict_ms(arch);
  }
  std::vector<double> predict_all(
      std::span<const esm::ArchConfig> archs) const override {
    ScopedSpan span("surrogate.predict_all");
    Tracer::instance().count("surrogate.predict_all_archs",
                             static_cast<double>(archs.size()));
    return inner_->predict_all(archs);
  }
  std::string name() const override { return inner_->name(); }

  std::unique_ptr<esm::TrainableSurrogate> release() {
    return std::move(inner_);
  }

 private:
  std::unique_ptr<esm::TrainableSurrogate> inner_;
  std::size_t input_dim_;
  int epochs_;
};

}  // namespace

void register_traced_mlp() {
  esm::SurrogateRegistry& registry = esm::SurrogateRegistry::instance();
  if (registry.has(kTracedMlpKey)) return;
  registry.add(
      kTracedMlpKey,
      [](const esm::SurrogateContext& context)
          -> std::unique_ptr<esm::TrainableSurrogate> {
        const std::size_t dim =
            esm::make_encoder(context.encoder, context.spec)->dimension();
        return std::make_unique<TracedSurrogate>(
            esm::SurrogateRegistry::instance().create("mlp", context), dim,
            context.train.epochs);
      },
      [](const esm::ArchiveReader&, const esm::SurrogateContext&)
          -> std::unique_ptr<esm::TrainableSurrogate> {
        throw esm::ConfigError(
            "traced surrogates are saved as their inner kind");
      });
}

std::unique_ptr<esm::TrainableSurrogate> unwrap_traced(
    std::unique_ptr<esm::TrainableSurrogate> surrogate) {
  if (auto* traced = dynamic_cast<TracedSurrogate*>(surrogate.get())) {
    return traced->release();
  }
  return surrogate;
}

double TracedPredictor::predict_ms(const esm::ArchConfig& arch) const {
  return inner_->predict_ms(arch);
}

std::vector<double> TracedPredictor::predict_all(
    std::span<const esm::ArchConfig> archs) const {
  ScopedSpan span("surrogate.predict_all");
  Tracer::instance().count("surrogate.predict_all_archs",
                           static_cast<double>(archs.size()));
  return inner_->predict_all(archs);
}

}  // namespace perfbench
