// eval_context.hpp — the shared, reference-counted evaluation state behind
// one or more engines.
//
// Building an engine used to mean building everything it evaluates with:
// the synthetic dataset, the weight-sharing supernet, the calibrated device
// model and — for evaluator "predictor" — collecting ~hundreds of labelled
// architectures and fitting the GNN latency predictor, by far the most
// expensive step. Benches that run several searches against the same device
// (Fig. 8 / Fig. 9a) paid that cost once per search.
//
// An EvalContext owns that state once:
//
//   auto ctx = EvalContext::create(cfg);             // one predictor fit
//   auto a = Engine::create(cfg, ctx.value());       // shares it
//   cfg.evaluator = "measured";
//   auto b = Engine::create(cfg, ctx.value());       // same data/supernet
//
// Evaluator bundles are memoized by registry name — the predictor is
// fitted on the first request and every engine on the context reuses it.
// The context also owns the candidate-score memo cache (hgnas::EvalCache),
// so searches sharing a context never re-evaluate a genome the cache has
// already scored under the same evaluator/objective/supernet-weight scope.
//
// Config fields that shape this owned state must match across every engine
// on a context (see context_compatible in api/config.hpp); per-engine
// fields (evaluator, strategy, objective, constraints, search scale) may
// differ.
//
// Concurrency contract (what serve::Service builds on):
//  * Read-only state — device model, dataset, workloads, reference
//    numbers — is immutable after create() and safe from any thread.
//  * evaluator() is thread-safe (the memo sits behind a mutex); a fitted
//    predictor's predict paths only read trained weights and may run
//    concurrently.
//  * eval_cache() is internally synchronized and scope-checked (see
//    hgnas::EvalCache).
//  * supernet() and rng() are shared MUTABLE state with no internal locks:
//    anything that trains the supernet or draws from the context RNG
//    (Engine::search / train / train_baseline) must hold external
//    exclusion — serve::Service runs exactly one such request at a time,
//    in submission order, on its runner lane (a run's steps may move
//    from the lane's stepper thread to the runner, never overlapping).
//    So does the "measured"
//    evaluator's noise stream, which its predictions advance.
//  * Nothing else needs exclusion. Engine::predict_latency /
//    predict_batch (oracle or fitted predictor), profile and
//    profile_baseline read only the state above, so serve::Service runs
//    them on its workers concurrently with each other and with a running
//    search or training.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/registry.hpp"
#include "api/status.hpp"
#include "core/annotations.hpp"

namespace hg::api {

class EvalContext {
 public:
  /// Validate `cfg`, size the execution pool, build the owned state and
  /// eagerly resolve cfg.evaluator (so a predictor fit failure surfaces
  /// here, not at first use). Loads the memo cache from
  /// cfg.eval_cache_path when set.
  static Result<std::shared_ptr<EvalContext>> create(const EngineConfig& cfg);

  /// Build one context per config — a device fleet — sharding the dominant
  /// startup cost: every "predictor" config's labelled-architecture
  /// collection is routed through ONE pooled measurement queue
  /// (predictor::collect_labeled_archs_multi) instead of M sequential
  /// passes. Each resulting context is identical to a lone create() of its
  /// config. All configs must agree on num_threads (the pool is
  /// process-wide).
  static Result<std::vector<std::shared_ptr<EvalContext>>> create_many(
      std::span<const EngineConfig> cfgs);

  /// Writes the memo cache back to config().eval_cache_path when set.
  ~EvalContext();

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// The context-shaping config snapshot this context was built from.
  const EngineConfig& config() const { return cfg_; }

  const hw::Device& device() const { return *device_; }
  const pointcloud::Dataset& data() const { return *data_; }
  hgnas::SuperNet& supernet() { return *supernet_; }
  Rng& rng() { return *rng_; }
  hgnas::EvalCache& eval_cache() { return eval_cache_; }

  /// Deployment-side workload (cost models, predictor).
  const hgnas::Workload& deploy_workload() const { return deploy_workload_; }
  /// Training-side workload (dataset, materialised models).
  const hgnas::Workload& train_workload() const { return train_workload_; }

  /// DGCNN reference latency / memory on the target device (Table II).
  double reference_latency_ms() const { return reference_ms_; }
  double reference_memory_mb() const { return reference_mb_; }

  /// Evaluator bundle for a registry name, memoized: the first request
  /// builds it (fitting the predictor for "predictor"), later requests —
  /// from any engine on this context, from any thread — return the same
  /// bundle. Builds run outside the memo mutex, so a cheap evaluator
  /// never waits behind another thread's predictor fit; should two
  /// threads race the SAME name's first build, the first insert wins and
  /// everyone gets that bundle (builds are deterministic, so the
  /// discarded duplicate was identical anyway).
  Result<EvaluatorBundle> evaluator(const std::string& name);

  /// How many evaluator bundles have actually been built (observability:
  /// "one predictor fit per device" is this staying at 1).
  std::int64_t evaluator_builds() const {
    core::MutexLock lock(evaluators_mutex_);
    return evaluator_builds_;
  }

 private:
  EvalContext() = default;

  /// Everything create() does except the eager evaluator resolution (so
  /// create_many can interpose the fleet-wide label collection).
  static Result<std::shared_ptr<EvalContext>> build_base(
      const EngineConfig& cfg);

  EngineConfig cfg_;
  hgnas::Workload deploy_workload_;
  hgnas::Workload train_workload_;
  std::unique_ptr<hw::Device> device_;
  std::unique_ptr<pointcloud::Dataset> data_;
  std::unique_ptr<hgnas::SuperNet> supernet_;
  std::unique_ptr<Rng> rng_;
  hgnas::EvalCache eval_cache_;
  double reference_ms_ = 0.0;
  double reference_mb_ = 0.0;
  // Guards the evaluator memo (and its build counter); everything else is
  // immutable after creation or internally synchronized.
  mutable core::Mutex evaluators_mutex_;
  // By normalized name.
  std::map<std::string, EvaluatorBundle> evaluators_
      HG_GUARDED_BY(evaluators_mutex_);
  std::int64_t evaluator_builds_ HG_GUARDED_BY(evaluators_mutex_) = 0;
  // Labels pre-collected by create_many for this context's "predictor"
  // evaluator; consumed (and released) by the first build. create_many
  // writes it under the lock too, even though no other thread can see the
  // context yet — the analysis (rightly) has no notion of "not yet
  // published".
  std::shared_ptr<const std::vector<predictor::LabeledArch>>
      prefetched_labels_ HG_GUARDED_BY(evaluators_mutex_);
};

}  // namespace hg::api
