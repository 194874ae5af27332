// config.hpp — declarative configuration of an hg::api::Engine.
//
// One plain-data struct describes everything an engine run needs: which
// device model to target (by registry name), how latency is evaluated, which
// search strategy runs, the deployment workload, the training-side scale,
// and the hardware constraint set C as explicit optional bounds (no magic
// sentinels). Consumers fill a handful of fields and hand the struct to
// `Engine::create`; `validate()` reports problems as a Status instead of
// throwing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/status.hpp"

namespace hg::api {

struct EngineConfig {
  // ---- registry selections (see api/registry.hpp for the built-ins) ----
  std::string device = "rtx3080";      // e.g. "rtx3080", "jetson-tx2"
  std::string evaluator = "oracle";    // "oracle" | "measured" | "predictor"
  std::string strategy = "multistage"; // "multistage" | "onestage" | "random"

  // ---- deployment workload (drives cost models and the predictor) ----
  std::int64_t num_points = 1024;
  std::int64_t k = 20;
  std::int64_t num_classes = 40;

  // ---- design space ----
  std::int64_t num_positions = 12;

  // ---- training-side scale (dataset, supernet, materialised training) ----
  // The accuracy side runs scaled-down on one CPU core (see DESIGN.md);
  // cost-model latencies always use the deployment workload above.
  std::int64_t samples_per_class = 10;
  std::int64_t train_points = 32;
  std::int64_t train_k = 6;
  std::uint64_t dataset_seed = 3;
  std::int64_t supernet_hidden = 16;
  std::int64_t supernet_head_hidden = 32;
  std::int64_t train_epochs = 10;  // Engine::train() on a materialised arch
  float train_lr = 1e-3f;          // learning rate for Engine::train()

  // ---- search scale ----
  /// When false, search() assumes the context's supernet was already
  /// trained (by an earlier search on the same shared EvalContext) and
  /// skips every warmup / re-init / pretrain phase. Supernet training is
  /// device-independent, so one trained supernet can serve several
  /// per-device or per-objective searches — and their candidate scores can
  /// then meet in the context's shared memo cache.
  bool train_supernet = true;
  std::int64_t population = 16;
  std::int64_t parents = 8;
  std::int64_t iterations = 12;
  double alpha = 1.0;  // accuracy weight in Eq. (3)
  double beta = 0.5;   // latency weight
  std::int64_t eval_val_samples = 20;
  std::int64_t function_paths_per_eval = 3;
  std::int64_t stage1_epochs = 1;
  std::int64_t stage2_epochs = 2;

  // ---- hardware constraint set C (unset bound = unconstrained) ----
  std::optional<double> latency_budget_ms;
  std::optional<double> memory_budget_mb;
  std::optional<double> model_size_budget_mb;
  /// Constrain latency to the DGCNN reference latency on the target device
  /// (the paper's usual choice of C). Applied only when latency_budget_ms
  /// is unset.
  bool constrain_to_reference = false;

  /// Normaliser for the latency term of Eq. (3); unset: the DGCNN reference
  /// latency on the target device (makes alpha : beta dimensionless).
  std::optional<double> latency_scale_ms;

  // ---- "predictor" evaluator knobs ----
  std::int64_t predictor_samples = 600;  // labelled archs collected
  std::int64_t predictor_epochs = 50;

  /// When non-empty, the context's candidate-score memo cache
  /// (hgnas::EvalCache) is loaded from this file at EvalContext creation
  /// and written back at context destruction, so repeated runs (benches,
  /// service restarts) start warm. Entries survive only while the cache
  /// scope — evaluator tag, objective, supernet weight version — still
  /// matches; a stale file is simply a cold start. The file sits wherever
  /// the caller points it (benches: next to their BENCH_*.json). One file
  /// belongs to one context: point each context (e.g. each device of a
  /// fleet) at its own path — EvalContext::create_many rejects duplicates.
  std::string eval_cache_path;

  // ---- simulated wall-clock bookkeeping (V100-equivalents) ----
  double sim_train_s_per_sample = 0.004;
  double sim_eval_s_per_sample = 0.0015;

  std::uint64_t seed = 2024;  // master seed for every stochastic component

  /// Width of the process-wide execution pool (kernels, concurrent
  /// candidate evaluation). 0 = hardware concurrency; 1 runs every pooled
  /// loop inline on the caller. The width sets speed only: every result is
  /// bit-identical at every width. Applied process-wide by Engine::create
  /// (the pool is shared, like a BLAS thread setting).
  std::int64_t num_threads = 0;

  /// Tiny preset: everything shrunk so a full engine lifecycle (create,
  /// search, train, profile) completes in seconds — the scale used by
  /// tests/test_api.cpp and CI smoke runs.
  static EngineConfig tiny();
};

/// Field-level sanity checks (positivity, ranges, cross-field relations).
/// Registry-name resolution happens later, in Engine::create.
Status validate(const EngineConfig& cfg);

/// Whether `cfg` can run on an EvalContext built from `ctx_cfg`: every
/// field that shapes the context's owned state must match. Those fields
/// are, exhaustively: device; the deployment workload (num_points, k,
/// num_classes); num_positions; the dataset (samples_per_class,
/// train_points, train_k, dataset_seed); the supernet (supernet_hidden,
/// supernet_head_hidden); the predictor knobs (predictor_samples,
/// predictor_epochs); the master seed; num_threads; and eval_cache_path.
/// Per-engine fields — evaluator, strategy, objective weights, constraint
/// set, search scale — are free to differ; that is the point of sharing a
/// context. Returns INVALID_ARGUMENT naming the first mismatch. Anything
/// that dispatches requests across engines on one context
/// (serve::Service) relies on this check as its admission gate.
Status context_compatible(const EngineConfig& ctx_cfg,
                          const EngineConfig& cfg);

}  // namespace hg::api
