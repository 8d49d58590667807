#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "backend/registry.hpp"
#include "data/seismic_synth.hpp"

namespace perfbench {

using namespace qucad;

namespace {

thread_local std::vector<std::uint64_t> open_spans;

void put_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void put_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void put_numbers(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out << ',';
    put_number(out, values[i]);
  }
  out << ']';
}

}  // namespace

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      id_(other.id_),
      parent_(other.parent_),
      start_(other.start_),
      name_(std::move(other.name_)),
      tag_(std::move(other.tag_)),
      count_(other.count_) {
  other.tracer_ = nullptr;
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->finish(*this);
}

Tracer::Span Tracer::span(std::string name) {
  Span span;
  if (!enabled_) return span;
  span.tracer_ = this;
  span.id_ = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent_ = open_spans.empty() ? 0 : open_spans.back();
  span.name_ = std::move(name);
  open_spans.push_back(span.id_);
  span.start_ = Clock::now();
  return span;
}

void Tracer::finish(Span& span) {
  const Clock::time_point end = Clock::now();
  // Spans close in LIFO order on their thread (they are scoped objects).
  if (!open_spans.empty() && open_spans.back() == span.id_) {
    open_spans.pop_back();
  }
  Record record;
  record.id = span.id_;
  record.parent = span.parent_;
  record.name = std::move(span.name_);
  record.tag = std::move(span.tag_);
  record.count = span.count_;
  record.start_us =
      std::chrono::duration<double, std::micro>(span.start_ - origin_).count();
  record.end_us =
      std::chrono::duration<double, std::micro>(end - origin_).count();
  std::lock_guard lock(mutex_);
  records_.push_back(std::move(record));
}

std::vector<Tracer::Record> Tracer::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

void Progress::start(std::uint64_t n) {
  std::lock_guard lock(mutex_);
  attempted_ += n;
  report_locked();
}

void Progress::finish(std::uint64_t n, bool failed) {
  std::lock_guard lock(mutex_);
  completed_ += n;
  if (failed) failed_ += n;
  report_locked();
}

void Progress::report_locked() const {
  // Unbuffered on purpose: the line must reach the runner even if the
  // process aborts right after.
  std::printf("progress %llu %llu %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(completed_),
              static_cast<unsigned long long>(failed_));
  std::fflush(stdout);
}

void Result::check(std::string name, bool ok, std::string detail) {
  checks.push_back(Check{std::move(name), ok, std::move(detail)});
}

void Result::write(const std::string& path, const Options& options,
                   const Progress& progress, const Tracer& tracer) const {
  std::ostringstream out;
  out << "{\"workload\":";
  put_string(out, options.workload);
  out << ",\"seed\":" << options.seed << ",\"trace\":" << options.trace
      << ",\"attempted\":" << progress.attempted()
      << ",\"failed\":" << progress.failed() << ",\"setup_s\":";
  put_numbers(out, setup_s);
  out << ",\"build_s\":";
  if (build_s < 0) {
    out << "null";
  } else {
    put_number(out, build_s);
  }
  out << ",\"timed_s\":";
  put_number(out, timed_s);
  out << ",\"completed_units\":";
  put_number(out, completed_units);
  out << ",\"latency_ms\":";
  put_numbers(out, latency_ms);
  out << ",\"predicted\":" << predicted
      << ",\"predicted_right\":" << predicted_right << ",\"day_accuracy\":";
  put_numbers(out, day_accuracy);
  out << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ',';
    first = false;
    put_string(out, name);
    out << ':';
    put_number(out, value);
  }
  out << "},\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i) out << ',';
    out << "{\"name\":";
    put_string(out, checks[i].name);
    out << ",\"ok\":" << (checks[i].ok ? "true" : "false") << ",\"detail\":";
    put_string(out, checks[i].detail);
    out << '}';
  }
  out << "],\"spans\":[";
  const std::vector<Tracer::Record> spans = tracer.records();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Record& s = spans[i];
    if (i) out << ',';
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":";
    put_string(out, s.name);
    out << ",\"tag\":";
    put_string(out, s.tag);
    out << ",\"count\":";
    put_number(out, s.count);
    out << ",\"start_us\":";
    put_number(out, s.start_us);
    out << ",\"end_us\":";
    put_number(out, s.end_us);
    out << '}';
  }
  out << "]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out.str();
  if (!file.flush()) throw std::runtime_error("cannot write " + path);
}

PipelineConfig table1_config() {
  PipelineConfig config;
  config.constructor_options.kmeans.k = 6;
  config.constructor_options.admm = config.admm;
  config.manager_options.admm = config.admm;
  return config;
}

Prepared set_up(const std::string& topology, const PipelineConfig& config,
                Tracer& tracer) {
  Tracer::Span span = tracer.span("setup");
  Dataset data;
  {
    Tracer::Span synth = tracer.span("data.synth");
    data = make_seismic(1500, 11);
  }
  const bool jakarta = topology == "jakarta";
  StatusOr<fleet::DriftStream> stream = Status::internal("not run");
  {
    Tracer::Span drift = tracer.span("fleet.drift");
    stream = fleet::DriftStream::create(
        jakarta ? fleet::DeviceSpec::jakarta() : fleet::DeviceSpec::belem(),
        CalibrationHistory::kTotalDays);
  }
  if (!stream.ok()) throw std::runtime_error(stream.status().to_string());
  Tracer::Span prepare = tracer.span("core.prepare");
  Environment env = prepare_environment(
      data, jakarta ? CouplingMap::jakarta() : CouplingMap::belem(),
      stream->history().day(0), config);
  return Prepared{std::move(stream).value(), std::move(env)};
}

std::shared_ptr<const ExecutionBackend> backend_for(
    const Environment& env, std::span<const double> theta,
    const Calibration& calibration, const BackendConfig& config) {
  BackendContext context;
  context.model = &env.model;
  context.transpiled = &env.transpiled;
  context.theta = theta;
  context.calibration = &calibration;
  context.noise = env.eval.noise;
  StatusOr<std::shared_ptr<const ExecutionBackend>> backend =
      make_backend(config, context);
  if (!backend.ok()) throw std::runtime_error(backend.status().to_string());
  return std::move(backend).value();
}

const char* action_name(OnlineManager::Decision::Action action) {
  switch (action) {
    case OnlineManager::Decision::Action::Reuse: return "reuse";
    case OnlineManager::Decision::Action::NewModel: return "new";
    case OnlineManager::Decision::Action::Failure: return "failure";
  }
  return "?";
}

int argmax_label(const std::vector<double>& logits) {
  int best = 0;
  for (std::size_t k = 1; k < logits.size(); ++k) {
    if (logits[k] > logits[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(k);
    }
  }
  return best;
}

std::string sci(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", value);
  return buf;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace perfbench
