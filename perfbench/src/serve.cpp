// serve_jakarta: the Fig. 8 detector (4 qubits routed on 7-qubit jakarta)
// deployed the way qucad_serve runs it: the repository is saved as an
// artifact, the service cold-starts from it, and a WireServer fronts it on
// loopback. Closed-loop traffic: three WireClients predict test samples in
// a seeded order while a fourth connection pushes the next calibration of a
// walk through the online window after every kPushEvery completed
// predictions.

#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "common.hpp"
#include "io/artifacts.hpp"
#include "io/wire.hpp"
#include "qnn/eval_cache.hpp"
#include "repo/constructor.hpp"
#include "serve/inference_service.hpp"

namespace perfbench {

using namespace qucad;

namespace {

constexpr int kClients = 3;
constexpr std::uint64_t kPushEvery = 100;
// Each push advances the walk through the online window by this many days,
// so that a run reaches the days (from ~258 on) where the repository first
// has to compress, while compressions stay a minority of pushes.
constexpr int kDayStride = 4;
// Offline window: every 12th of the 243 offline days. A 7-qubit density
// replay costs ~16x belem's, so the full window would not fit a run.
constexpr int kOfflineStride = 12;
constexpr int kOverheadPairs = 40;
constexpr int kSpotChecks = 3;
constexpr double kReferenceTolerance = 1e-9;

/// The Fig. 8 detector (Table I's seismic pipeline) with qucad_serve's
/// deployment knobs: 4 clusters, a 0.55 accuracy requirement and fast
/// online-compression rounds. Fewer profiling samples keep the 7-qubit
/// offline build within a run.
PipelineConfig serve_config() {
  PipelineConfig config = table1_config();
  config.profile_samples = 24;
  config.constructor_options.profile_samples = 24;
  config.constructor_options.kmeans.k = 4;
  config.constructor_options.accuracy_requirement = 0.55;
  config.admm.iterations = 2;
  config.admm.epochs_per_iteration = 1;
  config.admm.finetune_epochs = 0;
  config.manager_options.admm = config.admm;
  return config;
}

struct Served {
  std::size_t sample = 0;
  Prediction prediction;
  double ms = 0.0;
};

struct EpochInfo {
  std::vector<double> theta;
  Calibration calibration;
};

}  // namespace

int run_serve(const Options& options, Tracer& tracer, Progress& progress,
              Result& result) {
  const PipelineConfig config = serve_config();

  // --- set-up part 1: data, drift, environment -----------------------------
  const Clock::time_point setup_start = Clock::now();
  const Prepared prepared = set_up("jakarta", config, tracer);
  const double setup_env_s = seconds_since(setup_start);
  const Environment& env = prepared.env;
  const CalibrationHistory& history = prepared.stream.history();
  std::vector<Calibration> offline;
  for (int d = 0; d < CalibrationHistory::kOfflineDays; d += kOfflineStride) {
    offline.push_back(history.day(d));
  }

  // --- offline build + artifact ---------------------------------------------
  // The artifact stays in the work directory: run.py's set-up-only processes
  // cold-start from it, then run.py removes it.
  const std::string path = options.workdir + "/serve_jakarta-" +
                           std::to_string(options.seed) + ".qcd";
  if (!options.setup_only) {
    Artifacts artifacts;
    {
      const Clock::time_point start = Clock::now();
      Tracer::Span span = tracer.span("repo.build");
      OfflineBuild build =
          build_repository(env.model, env.transpiled, env.theta_pretrained,
                           offline, env.train, env.profile,
                           env.constructor_options);
      result.build_s = seconds_since(start);
      result.counters["qnn.eval_cache_hits_build"] =
          static_cast<double>(build.diagnostics.eval_cache_hits);
      result.counters["qnn.eval_cache_misses_build"] =
          static_cast<double>(build.diagnostics.eval_cache_misses);
      artifacts.repository = std::move(build.repository);
    }
    artifacts.calibration_history = offline;
    artifacts.config = ServiceConfig::from_environment(env)
                           .with_num_shards(2)
                           .with_queue_capacity(256);
    Tracer::Span span = tracer.span("io.save");
    if (Status s = save_artifacts(artifacts, path); !s.ok()) {
      throw std::runtime_error(s.to_string());
    }
    result.counters["io.artifact_bytes"] =
        static_cast<double>(std::filesystem::file_size(path));
  }

  // --- set-up part 2: cold start + server start -----------------------------
  std::optional<InferenceService> service;
  std::optional<WireServer> server;
  std::optional<Artifacts> loaded;
  {
    const Clock::time_point start = Clock::now();
    Tracer::Span span = tracer.span("setup");
    {
      Tracer::Span load = tracer.span("io.load");
      StatusOr<Artifacts> read = load_artifacts(path);
      if (!read.ok()) throw std::runtime_error(read.status().to_string());
      loaded.emplace(std::move(read).value());
    }
    {
      Tracer::Span cold = tracer.span("io.cold_start");
      StatusOr<InferenceService> started = cold_start_service(env, *loaded);
      if (!started.ok()) throw std::runtime_error(started.status().to_string());
      service.emplace(std::move(started).value());
    }
    {
      Tracer::Span listen = tracer.span("serve.server_start");
      StatusOr<WireServer> started = WireServer::start(*service);
      if (!started.ok()) throw std::runtime_error(started.status().to_string());
      server.emplace(std::move(started).value());
    }
    result.setup_s.push_back(setup_env_s + seconds_since(start));
  }
  if (options.setup_only) {
    server->stop();
    return 0;
  }

  std::map<std::uint64_t, EpochInfo> epochs;
  epochs[service->active_epoch()] =
      EpochInfo{service->active_theta(), loaded->calibration_history.back()};

  // --- timed phase: closed loop over the wire -------------------------------
  const std::uint16_t port = server->port();
  const EvalCacheStats cache_before = CompiledEvalCache::global().stats();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> client_failures{0};
  std::vector<std::vector<Served>> served(kClients);
  std::uint64_t pushes = 0;
  std::uint64_t push_failures = 0;
  const Clock::time_point timed_start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng order(derive(derive(options.seed, kRequestStream),
                       static_cast<std::uint64_t>(c)));
      StatusOr<WireClient> client = WireClient::connect("127.0.0.1", port);
      while (!stop.load()) {
        const std::size_t i = order.index(env.test.size());
        progress.start(1);
        const Clock::time_point t0 = Clock::now();
        StatusOr<Prediction> p = Status::unavailable("not connected");
        {
          Tracer::Span span = tracer.span("serve.request");
          if (client.ok()) p = client->predict(env.test.features[i]);
        }
        const double ms = ms_since(t0);
        if (p.ok()) {
          served[static_cast<std::size_t>(c)].push_back(
              Served{i, std::move(p).value(), ms});
        } else {
          client_failures.fetch_add(1);
        }
        progress.finish(1, !p.ok());
        completed.fetch_add(1);
        if (!client.ok()) break;
      }
    });
  }
  std::thread pusher([&] {
    StatusOr<WireClient> client = WireClient::connect("127.0.0.1", port);
    int day = CalibrationHistory::kOfflineDays;
    while (!stop.load() && day < history.days()) {
      if (completed.load() < (pushes + 1) * kPushEvery) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const Calibration& calibration = history.day(day);
      day += kDayStride;
      progress.start(1);
      StatusOr<WireCalibrationAck> ack = Status::unavailable("not connected");
      {
        Tracer::Span span = tracer.span("serve.push");
        if (client.ok()) ack = client->push_calibration(calibration);
        if (ack.ok()) span.tag(action_name(ack->action));
      }
      ++pushes;
      if (ack.ok() && ack->swapped) {
        // Only this thread installs epochs, so the active theta read after
        // the ack is the one the new epoch serves.
        epochs[ack->epoch] = EpochInfo{service->active_theta(), calibration};
      }
      if (!ack.ok()) ++push_failures;
      progress.finish(1, !ack.ok());
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  result.timed_s = seconds_since(timed_start);
  pusher.join();
  const ServingStats stats = service->stats();
  const RepositorySnapshot snapshot = service->repository_snapshot();
  const EvalCacheStats cache_after = CompiledEvalCache::global().stats();

  for (const std::vector<Served>& list : served) {
    for (const Served& s : list) {
      result.latency_ms.push_back(s.ms);
      ++result.predicted;
      if (s.prediction.label == env.test.labels[s.sample]) {
        ++result.predicted_right;
      }
    }
  }
  result.completed_units = static_cast<double>(result.predicted);
  result.counters["serve.requests"] = static_cast<double>(stats.requests);
  result.counters["serve.batches"] = static_cast<double>(stats.batches);
  result.counters["serve.coalesced"] = static_cast<double>(stats.coalesced);
  result.counters["serve.shed"] = static_cast<double>(stats.shed);
  result.counters["serve.deadline_misses"] =
      static_cast<double>(stats.deadline_misses);
  result.counters["serve.pushes"] = static_cast<double>(pushes);
  result.counters["repo.reuses"] = static_cast<double>(stats.reuses);
  result.counters["repo.new_models"] = static_cast<double>(stats.compressions);
  result.counters["repo.failures"] = static_cast<double>(stats.failures);
  result.counters["repo.entries"] = static_cast<double>(snapshot.entries);
  result.counters["compress.total_s"] = snapshot.total_optimize_seconds;
  result.counters["qnn.eval_cache_hits_online"] =
      static_cast<double>(cache_after.hits - cache_before.hits);
  result.counters["qnn.eval_cache_misses_online"] =
      static_cast<double>(cache_after.misses - cache_before.misses);

  // Wire overhead, traced run only: at the same concurrency and on the same
  // (final) epoch, each thread alternates a wire predict and an in-process
  // InferenceService::submit of the same sample.
  if (tracer.enabled()) {
    std::vector<std::thread> pairs;
    for (int c = 0; c < kClients; ++c) {
      pairs.emplace_back([&, c] {
        Rng order(derive(derive(options.seed, kRequestStream),
                         static_cast<std::uint64_t>(kClients + c)));
        StatusOr<WireClient> client = WireClient::connect("127.0.0.1", port);
        if (!client.ok()) return;
        for (int k = 0; k < kOverheadPairs; ++k) {
          const std::vector<double>& x =
              env.test.features[order.index(env.test.size())];
          // Both halves of a pair carry the same tag, so run.py can take
          // the median of the per-pair differences.
          const std::string pair =
              std::to_string(c) + "." + std::to_string(k);
          {
            Tracer::Span span = tracer.span("serve.wire_pair");
            span.tag(pair);
            (void)client->predict(x);
          }
          Tracer::Span span = tracer.span("serve.submit");
          span.tag(pair);
          (void)service->submit(x);
        }
      });
    }
    for (std::thread& t : pairs) t.join();
  }
  server->stop();

  // --- correctness, outside the timed phase ---------------------------------
  std::uint64_t unknown_epoch = 0;
  std::vector<const Served*> all;
  for (const std::vector<Served>& list : served) {
    for (const Served& s : list) {
      all.push_back(&s);
      if (!epochs.contains(s.prediction.epoch)) ++unknown_epoch;
    }
  }
  result.check("every prediction names an installed epoch",
               unknown_epoch == 0,
               std::to_string(all.size()) + " predictions, " +
                   std::to_string(epochs.size()) + " epochs installed, " +
                   std::to_string(unknown_epoch) + " unknown");

  Rng spot(derive(options.seed, kSpotCheckStream));
  double worst = 0.0;
  bool labels_ok = true;
  int spot_count = 0;
  for (int k = 0; k < kSpotChecks && !all.empty(); ++k) {
    const Served& s = *all[spot.index(all.size())];
    const auto it = epochs.find(s.prediction.epoch);
    if (it == epochs.end()) continue;
    const std::shared_ptr<const NoisyExecutor> reference =
        build_noisy_executor(env.model, env.transpiled, it->second.theta,
                             it->second.calibration, env.eval.noise);
    const std::vector<double> z =
        reference->run_z_reference(env.test.features[s.sample]);
    worst = std::max(worst, max_abs_diff(s.prediction.logits, z));
    labels_ok = labels_ok && argmax_label(z) == s.prediction.label;
    ++spot_count;
  }
  result.check(
      "spot-check logits match the reference executor of their epoch",
      spot_count > 0 && worst <= kReferenceTolerance,
      std::to_string(spot_count) + " predictions, max |diff| " +
          sci(worst));
  result.check("spot-check labels match the reference", labels_ok,
               std::to_string(spot_count) + " predictions");
  result.check("every failed request was shed or expired",
               client_failures.load() == stats.shed + stats.deadline_misses &&
                   push_failures == 0,
               std::to_string(client_failures.load()) + " failed requests, " +
                   std::to_string(stats.shed) + " shed, " +
                   std::to_string(stats.deadline_misses) + " expired, " +
                   std::to_string(push_failures) + " failed pushes");

  if (tracer.enabled()) {
    run_codec_probe(env, tracer);
    std::vector<Calibration> online_days;
    for (int d = CalibrationHistory::kOfflineDays; d < history.days(); ++d) {
      online_days.push_back(history.day(d));
    }
    run_layer_probes(env, online_days, tracer);
  }
  return 0;
}

}  // namespace perfbench
