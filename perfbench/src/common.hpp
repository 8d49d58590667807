#pragma once

// Plumbing shared by the three workloads: seeded input derivation, the
// in-memory span tracer, progress reporting to the runner, and the result
// document the runner turns into metrics. All statistics (medians,
// percentiles, self time) are computed by the runner (stats.py) from the raw
// samples written here, so they are implemented and tested in one place.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "core/qucad.hpp"
#include "fleet/drift_stream.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) {
  return 1e3 * seconds_since(start);
}

/// Independent sub-seed `stream` of the workload seed (splitmix64), so the
/// request order, shot stream and spot-check choice each get their own
/// generator and changing one does not shift the others.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/// Which sub-seed feeds which input.
enum Stream : std::uint64_t {
  kRequestStream = 1,
  kShotStream = 2,
  kSpotCheckStream = 3,
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Set up once, record its time and exit: run.py times set-up across
  // several fresh processes, since a process's first set-up is what a user
  // waits for and its speed varies from process to process with the
  // host's load.
  bool setup_only = false;
  std::string out;      // result document path
  std::string workdir;  // scratch directory (artifact file)
};

/// Spans around calls into the library, kept in memory and written with the
/// result. Parent links follow the calling thread's open spans. Disabled, a
/// span costs nothing and records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Span {
   public:
    Span(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span();

    /// Free-form label, e.g. a repository decision ("reuse", "new").
    void tag(std::string value) { tag_ = std::move(value); }
    /// Units of work the span covers (samples, requests); default 1.
    void count(double n) { count_ = n; }

   private:
    friend class Tracer;
    Span() = default;
    Tracer* tracer_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_{};
    std::string name_;
    std::string tag_;
    double count_ = 1.0;
  };

  Span span(std::string name);
  bool enabled() const { return enabled_; }

  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::string name;
    std::string tag;
    double count = 1.0;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  std::vector<Record> records() const;

 private:
  void finish(Span& span);

  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

/// Operations the timed phase started and finished, streamed to the runner
/// on stdout ("progress <attempted> <completed> <failed>") so that a process
/// that dies on a signal still leaves an exact count of unfinished work.
class Progress {
 public:
  void start(std::uint64_t n);
  void finish(std::uint64_t n, bool failed);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void report_locked() const;

  std::mutex mutex_;
  std::uint64_t attempted_ = 0;  // guarded by mutex_
  std::uint64_t completed_ = 0;  // guarded by mutex_
  std::uint64_t failed_ = 0;     // guarded by mutex_
};

/// What one workload run hands the runner.
struct Result {
  std::vector<double> setup_s;       // this process's set-up time
  double build_s = -1.0;             // <0: the workload builds no repository
  double timed_s = 0.0;              // wall time of the timed phase
  double completed_units = 0.0;      // throughput numerator
  std::vector<double> latency_ms;    // one entry per timed operation
  std::uint64_t predicted = 0;       // accuracy: labels predicted ...
  std::uint64_t predicted_right = 0; // ... and how many were right
  std::vector<double> day_accuracy;  // per device-day, where days exist
  std::map<std::string, double> counters;
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;

  void check(std::string name, bool ok, std::string detail);
  /// Writes the result document (JSON) with the tracer's spans.
  void write(const std::string& path, const Options& options,
             const Progress& progress, const Tracer& tracer) const;
};

/// The seismic detector's pipeline as the paper benches configure it for
/// Table I (bench/bench_common.hpp paper_config("seismic")).
qucad::PipelineConfig table1_config();

/// What every workload's set-up produces.
struct Prepared {
  qucad::fleet::DriftStream stream;
  qucad::Environment env;
};

/// Set-up shared by every workload, under a "setup" span: the paper's
/// seismic dataset (1500 samples, seed 11), the topology's drift stream over
/// the full 389-day window (belem: drift seed 2021, jakarta: 1107), and
/// prepare_environment on its first day.
Prepared set_up(const std::string& topology,
                const qucad::PipelineConfig& config, Tracer& tracer);

/// The workload model's backend for `config` at `theta` under
/// `calibration`, built through the registry as the evaluator builds it.
std::shared_ptr<const qucad::ExecutionBackend> backend_for(
    const qucad::Environment& env, std::span<const double> theta,
    const qucad::Calibration& calibration, const qucad::BackendConfig& config);

/// "reuse", "new" or "failure": the span tag of a repository decision.
const char* action_name(qucad::OnlineManager::Decision::Action action);

/// Index of the largest logit (the predicted class).
int argmax_label(const std::vector<double>& logits);

/// A number in short scientific notation, for check details.
std::string sci(double value);

/// Largest absolute entrywise difference of two logit vectors (infinity on
/// a length mismatch).
double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b);

/// Per-layer probes of the traced run, on the workload's device and model:
/// uncached executor compilation and per-sample cost of each backend.
void run_layer_probes(const qucad::Environment& env,
                      const std::vector<qucad::Calibration>& days,
                      Tracer& tracer);

/// Encode plus decode of one predict request and its response, repeated,
/// under spans (the wire codec's share of a request).
void run_codec_probe(const qucad::Environment& env, Tracer& tracer);

int run_adapt(const Options& options, Tracer& tracer, Progress& progress,
              Result& result);
int run_serve(const Options& options, Tracer& tracer, Progress& progress,
              Result& result);
int run_shots(const Options& options, Tracer& tracer, Progress& progress,
              Result& result);

}  // namespace perfbench
