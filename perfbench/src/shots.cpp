// shots_belem: the Table I baseline row under hardware-like readout. The
// pretrained detector is evaluated over the 146 online days through the
// kSampled backend at 8192 shots per sample. No density engine runs in the
// timed phase, so density optimisations must leave this workload unmoved.

#include <cmath>

#include "backend/registry.hpp"
#include "common.hpp"
#include "qnn/eval_cache.hpp"

namespace perfbench {

using namespace qucad;

namespace {

constexpr int kShots = 8192;
constexpr int kSpotDays = 2;
constexpr int kSpotSamples = 6;
// Sampled <Z> must lie within this many standard errors of the exact
// expectation. Over the 24 spot-checked slots, a correct sampler fails the
// check with probability ~1e-5.
constexpr double kStandardErrors = 5.0;

}  // namespace

int run_shots(const Options& options, Tracer& tracer, Progress& progress,
              Result& result) {
  const PipelineConfig config = table1_config();
  const Clock::time_point setup_start = Clock::now();
  const Prepared prepared = set_up("belem", config, tracer);
  result.setup_s.push_back(seconds_since(setup_start));
  if (options.setup_only) return 0;
  const Environment& env = prepared.env;
  const std::vector<Calibration> online = prepared.stream.history().slice(
      CalibrationHistory::kOfflineDays, CalibrationHistory::kOnlineDays);

  // The evaluator's backend override, as HarnessOptions::backend applies it.
  // The shot stream is the one input this workload draws from the seed.
  NoisyEvalOptions eval = env.eval;
  eval.backend = BackendConfig{}
                     .with_kind(BackendKind::kSampled)
                     .with_shots(kShots)
                     .with_seed(derive(options.seed, kShotStream));
  const std::size_t n = env.test.size();

  // --- timed phase: whole passes over the online window ---------------------
  const EvalCacheStats cache_before = CompiledEvalCache::global().stats();
  std::vector<std::vector<int>> first_pass(online.size());
  int passes = 0;
  const Clock::time_point timed_start = Clock::now();
  do {
    for (std::size_t d = 0; d < online.size(); ++d) {
      progress.start(n);
      const Clock::time_point day_start = Clock::now();
      StatusOr<NoisyEvalResult> day_eval = Status::internal("not run");
      {
        Tracer::Span span = tracer.span("qnn.eval_day");
        span.count(static_cast<double>(n));
        day_eval = noisy_evaluate_or(env.model, env.transpiled,
                                     env.theta_pretrained, env.test,
                                     online[d], eval);
      }
      const double day_ms = ms_since(day_start);
      if (!day_eval.ok()) {
        progress.finish(n, true);
        continue;
      }
      result.latency_ms.push_back(day_ms);
      std::uint64_t right = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (day_eval->predictions[i] == env.test.labels[i]) ++right;
      }
      result.predicted += n;
      result.predicted_right += right;
      result.day_accuracy.push_back(static_cast<double>(right) /
                                    static_cast<double>(n));
      result.completed_units += static_cast<double>(n);
      if (passes == 0) first_pass[d] = day_eval->predictions;
      progress.finish(n, false);
    }
    ++passes;
  } while (seconds_since(timed_start) < options.seconds);
  result.timed_s = seconds_since(timed_start);
  const EvalCacheStats cache_after = CompiledEvalCache::global().stats();
  result.counters["qnn.eval_cache_hits_online"] =
      static_cast<double>(cache_after.hits - cache_before.hits);
  result.counters["qnn.eval_cache_misses_online"] =
      static_cast<double>(cache_after.misses - cache_before.misses);
  result.counters["shots.passes"] = passes;

  // --- correctness: sampled <Z> against the exact expectation --------------
  // Exact: the gate-by-gate StateVector on the logical circuit
  // (forward_logits), mapped through each slot's readout confusion:
  // z' = z (1 - p(1|0) - p(0|1)) + (p(0|1) - p(1|0)).
  Rng spot(derive(options.seed, kSpotCheckStream));
  double worst_se = 0.0;
  int slots_checked = 0;
  bool replay_ok = true;
  for (int k = 0; k < kSpotDays; ++k) {
    const std::size_t d = spot.index(online.size());
    if (first_pass[d].empty()) continue;
    const auto backend =
        backend_for(env, env.theta_pretrained, online[d], eval.backend);
    StatusOr<std::vector<ReadoutError>> readout =
        slot_readout_errors(env.model, &env.transpiled, online[d]);
    if (!readout.ok()) {
      replay_ok = false;
      continue;
    }
    // The same batch the evaluation ran, so sample i draws the same shots.
    const std::vector<std::vector<double>> sampled =
        backend->run_logits_batch(env.test.features);
    for (std::size_t i = 0; i < n; ++i) {
      replay_ok = replay_ok && argmax_label(sampled[i]) == first_pass[d][i];
    }
    for (int s = 0; s < kSpotSamples; ++s) {
      const std::size_t i = spot.index(n);
      const std::vector<double> z =
          forward_logits(env.model, env.theta_pretrained, env.test.features[i]);
      for (std::size_t slot = 0; slot < z.size(); ++slot) {
        const ReadoutError& e = (*readout)[slot];
        const double expected = z[slot] * (1.0 - e.p1_given_0 - e.p0_given_1) +
                                (e.p0_given_1 - e.p1_given_0);
        const double se = std::sqrt(
            std::max(1.0 - expected * expected, 1e-12) / kShots);
        const double deviation = std::abs(sampled[i][slot] - expected) / se;
        worst_se = std::max(worst_se, deviation);
        ++slots_checked;
      }
    }
  }
  result.check("sampled <Z> within " + std::to_string(int(kStandardErrors)) +
                   " standard errors of the exact expectation",
               slots_checked > 0 && worst_se <= kStandardErrors,
               std::to_string(slots_checked) + " slots, worst " +
                   sci(worst_se) + " standard errors");
  result.check("a replay of the spot-check days reproduces the predictions",
               replay_ok, std::to_string(kSpotDays) + " days");

  if (tracer.enabled()) run_layer_probes(env, online, tracer);
  return 0;
}

}  // namespace perfbench
