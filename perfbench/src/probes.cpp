// Per-layer probes of the traced run. Each repeats one call into a layer on
// the workload's own device and model, under spans that stats.py reduces to
// a per-sample (or per-call) median.

#include <memory>

#include "common.hpp"
#include "io/wire.hpp"
#include "qnn/eval_cache.hpp"

namespace perfbench {

using namespace qucad;

namespace {

constexpr int kCompileDays = 5;
constexpr int kSampledShots = 8192;
constexpr int kCodecRounds = 5;
constexpr int kCodecCallsPerRound = 400;

/// Repeats `batch` through `backend` until at least `budget_s` has passed
/// (at least three times, at most `max_reps`), one span per call.
void probe_backend(const ExecutionBackend& backend,
                   const std::vector<std::vector<double>>& batch,
                   const std::string& name, const std::string& tag,
                   double budget_s, int max_reps, Tracer& tracer) {
  (void)backend.run_logits_batch(batch);  // warm per-thread scratch
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < max_reps; ++rep) {
    if (rep >= 3 && seconds_since(start) >= budget_s) break;
    Tracer::Span span = tracer.span(name);
    span.tag(tag);
    span.count(static_cast<double>(batch.size()));
    (void)backend.run_logits_batch(batch);
  }
}

}  // namespace

void run_layer_probes(const Environment& env,
                      const std::vector<Calibration>& days, Tracer& tracer) {
  for (int k = 0; k < kCompileDays; ++k) {
    const Calibration& day = days[static_cast<std::size_t>(k) * days.size() /
                                  kCompileDays];
    Tracer::Span span = tracer.span("transpile.compile");
    (void)build_noisy_executor(env.model, env.transpiled, env.theta_pretrained,
                               day, env.eval.noise);
  }

  const Calibration& day = days.front();
  const std::vector<std::vector<double>>& all = env.test.features;
  const std::vector<std::vector<double>> one(all.begin(), all.begin() + 1);
  const std::vector<std::vector<double>> lanes(all.begin(), all.begin() + 8);

  const auto density =
      backend_for(env, env.theta_pretrained, day, BackendConfig{});
  probe_backend(*density, one, "backend.density", "batch1", 0.5, 40, tracer);
  probe_backend(*density, lanes, "backend.density", "batch8", 0.5, 20, tracer);

  const auto pure =
      backend_for(env, env.theta_pretrained, day,
                  BackendConfig{}.with_kind(BackendKind::kPureStatevector));
  probe_backend(*pure, all, "backend.pure", "", 0.3, 20, tracer);

  const auto sampled = backend_for(env, env.theta_pretrained, day,
                                   BackendConfig{}
                                       .with_kind(BackendKind::kSampled)
                                       .with_shots(kSampledShots));
  probe_backend(*sampled, all, "backend.sampled", "", 0.3, 5, tracer);
}

void run_codec_probe(const Environment& env, Tracer& tracer) {
  const std::vector<double>& features = env.test.features.front();
  Prediction prediction;
  prediction.label = 1;
  prediction.logits = {0.25, -0.5};
  prediction.epoch = 7;
  std::vector<double> decoded;
  for (int round = 0; round < kCodecRounds; ++round) {
    Tracer::Span span = tracer.span("io.codec");
    span.count(kCodecCallsPerRound);
    for (int i = 0; i < kCodecCallsPerRound; ++i) {
      const std::vector<std::uint8_t> request =
          encode_predict_request(features);
      if (!decode_predict_request(request, decoded).ok()) {
        throw std::runtime_error("predict request does not round-trip");
      }
      const std::vector<std::uint8_t> response =
          encode_predict_response(prediction);
      if (!decode_predict_response(response).ok()) {
        throw std::runtime_error("predict response does not round-trip");
      }
    }
  }
}

}  // namespace perfbench
