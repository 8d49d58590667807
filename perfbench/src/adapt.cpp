// adapt_belem: the Table I QuCAD row for the seismic detector on simulated
// belem. Offline: build the repository over the 243 offline days. Timed:
// for each of the 146 online days, OnlineManager::process_day and an exact
// density evaluation of the test set. One caller.

#include "common.hpp"
#include "qnn/eval_cache.hpp"
#include "repo/constructor.hpp"
#include "repo/manager.hpp"

namespace perfbench {

using namespace qucad;

namespace {

constexpr int kSpotDays = 2;
constexpr int kSpotSamples = 3;
constexpr double kReferenceTolerance = 1e-9;

/// What one online day of the first pass served, kept for the checks.
struct DayRecord {
  std::vector<double> theta;
  std::vector<int> predictions;
};

double accuracy_of(const std::vector<int>& predictions,
                   const std::vector<int>& labels, std::uint64_t& right) {
  std::uint64_t day_right = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == labels[i]) ++day_right;
  }
  right += day_right;
  return static_cast<double>(day_right) /
         static_cast<double>(predictions.size());
}

}  // namespace

int run_adapt(const Options& options, Tracer& tracer, Progress& progress,
              Result& result) {
  const PipelineConfig config = table1_config();

  // --- set-up ----------------------------------------------------------------
  const Clock::time_point setup_start = Clock::now();
  const Prepared prepared = set_up("belem", config, tracer);
  result.setup_s.push_back(seconds_since(setup_start));
  if (options.setup_only) return 0;
  const Environment& env = prepared.env;
  const CalibrationHistory& history = prepared.stream.history();
  const std::vector<Calibration> offline =
      history.slice(0, CalibrationHistory::kOfflineDays);
  const std::vector<Calibration> online = history.slice(
      CalibrationHistory::kOfflineDays, CalibrationHistory::kOnlineDays);

  // --- offline repository build ---------------------------------------------
  OfflineBuild build;
  {
    const Clock::time_point start = Clock::now();
    Tracer::Span span = tracer.span("repo.build");
    build = build_repository(env.model, env.transpiled, env.theta_pretrained,
                             offline, env.train, env.profile,
                             env.constructor_options);
    result.build_s = seconds_since(start);
  }
  result.counters["qnn.eval_cache_hits_build"] =
      static_cast<double>(build.diagnostics.eval_cache_hits);
  result.counters["qnn.eval_cache_misses_build"] =
      static_cast<double>(build.diagnostics.eval_cache_misses);

  // --- timed phase: whole passes over the online window ---------------------
  // Each pass starts a fresh manager from the offline repository, so every
  // pass makes the same decisions and does the same work.
  const EvalCacheStats cache_before = CompiledEvalCache::global().stats();
  std::vector<DayRecord> first_pass(online.size());
  bool counts_ok = true;
  bool growth_ok = true;
  std::string counts_detail;
  std::string growth_detail;
  double qucad_first_pass_sum = 0.0;
  int passes = 0;
  const Clock::time_point timed_start = Clock::now();
  do {
    OnlineManager manager(env.model, env.transpiled, env.theta_pretrained,
                          env.train, build.repository, env.manager_options);
    const std::size_t entries_before = manager.repository().size();
    int reuses = 0, new_models = 0, failures = 0, days = 0;
    for (std::size_t d = 0; d < online.size(); ++d) {
      progress.start(1);
      const Clock::time_point day_start = Clock::now();
      Tracer::Span day_span = tracer.span("adapt.day");
      OnlineManager::Decision decision;
      {
        Tracer::Span span = tracer.span("repo.process_day");
        decision = manager.process_day(online[d]);
        span.tag(action_name(decision.action));
      }
      if (decision.entry_index < 0) {
        progress.finish(1, true);
        continue;
      }
      // Table I accounting: a Guidance-2 failure report still serves the
      // matched model.
      const std::vector<double>& theta =
          manager.repository().entry(decision.entry_index).theta;
      StatusOr<NoisyEvalResult> eval = Status::internal("not run");
      {
        Tracer::Span span = tracer.span("qnn.eval_day");
        span.count(static_cast<double>(env.test.size()));
        eval = noisy_evaluate_or(env.model, env.transpiled, theta, env.test,
                                 online[d], env.eval);
      }
      const double day_ms = ms_since(day_start);
      if (!eval.ok()) {
        progress.finish(1, true);
        continue;
      }
      result.latency_ms.push_back(day_ms);
      const double acc = accuracy_of(eval->predictions, env.test.labels,
                                     result.predicted_right);
      result.predicted += eval->predictions.size();
      result.day_accuracy.push_back(acc);
      result.completed_units += 1.0;
      ++days;
      switch (decision.action) {
        case OnlineManager::Decision::Action::Reuse: ++reuses; break;
        case OnlineManager::Decision::Action::NewModel: ++new_models; break;
        case OnlineManager::Decision::Action::Failure: ++failures; break;
      }
      if (passes == 0) {
        first_pass[d] = DayRecord{theta, eval->predictions};
        qucad_first_pass_sum += acc;
      }
      progress.finish(1, false);
    }
    const std::size_t growth = manager.repository().size() - entries_before;
    const bool pass_counts_ok =
        reuses + new_models + failures == days &&
        manager.reuses() == reuses && manager.optimizations_run() == new_models;
    const bool pass_growth_ok = growth == static_cast<std::size_t>(new_models);
    if (passes == 0 || !pass_counts_ok) {
      counts_detail = std::to_string(reuses) + " reuse + " +
                      std::to_string(new_models) + " new + " +
                      std::to_string(failures) + " failure vs " +
                      std::to_string(days) + " days served; manager counts " +
                      std::to_string(manager.reuses()) + " reuses, " +
                      std::to_string(manager.optimizations_run()) +
                      " compressions";
    }
    if (passes == 0 || !pass_growth_ok) {
      growth_detail = "repository grew by " + std::to_string(growth) +
                      " entries for " + std::to_string(new_models) +
                      " new models";
    }
    counts_ok = counts_ok && pass_counts_ok;
    growth_ok = growth_ok && pass_growth_ok;
    if (passes == 0) {
      result.counters["repo.reuses"] = reuses;
      result.counters["repo.new_models"] = new_models;
      result.counters["repo.failures"] = failures;
      result.counters["repo.entries"] =
          static_cast<double>(manager.repository().size());
      result.counters["compress.total_s"] = manager.total_optimize_seconds();
    }
    ++passes;
  } while (seconds_since(timed_start) < options.seconds);
  result.timed_s = seconds_since(timed_start);
  const EvalCacheStats cache_after = CompiledEvalCache::global().stats();
  result.counters["qnn.eval_cache_hits_online"] =
      static_cast<double>(cache_after.hits - cache_before.hits);
  result.counters["qnn.eval_cache_misses_online"] =
      static_cast<double>(cache_after.misses - cache_before.misses);
  result.counters["adapt.passes"] = passes;

  // --- correctness, outside the timed phase ---------------------------------
  result.check("decision counts sum to the days served", counts_ok,
               counts_detail);
  result.check("repository grows by the new-model count", growth_ok,
               growth_detail);

  // Spot checks: the compiled (lane) evaluation against the gate-by-gate
  // density reference on seeded days and samples.
  Rng spot(derive(options.seed, kSpotCheckStream));
  double worst = 0.0;
  bool labels_ok = true;
  int spot_count = 0;
  for (int k = 0; k < kSpotDays; ++k) {
    const std::size_t d = spot.index(online.size());
    const DayRecord& day = first_pass[d];
    if (day.predictions.empty()) continue;
    const auto backend =
        backend_for(env, day.theta, online[d], env.eval.backend);
    const std::vector<std::vector<double>> compiled =
        backend->run_logits_batch(env.test.features);
    const std::shared_ptr<const NoisyExecutor> reference =
        build_noisy_executor(env.model, env.transpiled, day.theta, online[d],
                             env.eval.noise);
    for (int s = 0; s < kSpotSamples; ++s) {
      const std::size_t i = spot.index(env.test.size());
      const std::vector<double> z =
          reference->run_z_reference(env.test.features[i]);
      worst = std::max(worst, max_abs_diff(compiled[i], z));
      labels_ok = labels_ok && argmax_label(z) == day.predictions[i];
      ++spot_count;
    }
  }
  result.check("spot-check logits match the gate-by-gate density reference",
               spot_count > 0 && worst <= kReferenceTolerance,
               std::to_string(spot_count) + " samples, max |diff| " +
                   sci(worst));
  result.check("spot-check labels match the reference", labels_ok,
               std::to_string(spot_count) + " samples");

  // Table I claim: QuCAD is not worse than the unadapted pretrained model
  // on the same days.
  double baseline_sum = 0.0;
  bool baseline_ok = true;
  for (const Calibration& day : online) {
    StatusOr<NoisyEvalResult> eval =
        noisy_evaluate_or(env.model, env.transpiled, env.theta_pretrained,
                          env.test, day, env.eval);
    if (!eval.ok()) {
      baseline_ok = false;
      break;
    }
    std::uint64_t unused = 0;
    baseline_sum += accuracy_of(eval->predictions, env.test.labels, unused);
  }
  const double days = static_cast<double>(online.size());
  const double qucad_mean = qucad_first_pass_sum / days;
  const double baseline_mean = baseline_sum / days;
  result.counters["adapt.baseline_accuracy"] = baseline_mean;
  result.check("QuCAD mean accuracy >= unadapted baseline (Table I)",
               baseline_ok && qucad_mean >= baseline_mean,
               "QuCAD " + sci(qucad_mean) + " vs baseline " +
                   sci(baseline_mean));

  if (tracer.enabled()) run_layer_probes(env, online, tracer);
  return 0;
}

}  // namespace perfbench
