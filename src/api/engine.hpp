// engine.hpp — hg::api::Engine, the stable entry point of this library.
//
// One facade over the whole HGNAS pipeline (paper: supernet -> hierarchical
// evolutionary search -> GNN latency predictor -> edge deployment). An
// Engine is constructed from a declarative EngineConfig naming a device, a
// latency evaluator and a search strategy (resolved through the registry),
// owns the dataset / supernet / device model / predictor, and exposes
// coherent verbs:
//
//   search()           run the configured NAS strategy, return the winner
//                      (with the run's accuracy–latency Pareto frontier)
//   predict_latency(a) latency of an architecture via the configured
//                      evaluator (oracle, measurement, or GNN predictor)
//   profile(a)         deterministic deployment report on the target device
//                      (latency, memory, energy, Fig. 3 breakdown)
//   profile_baseline(name [, workload])  the same report for a named
//                      reference network ("dgcnn", "li", "tailor", zoo)
//   train(a) / train_baseline(name)      materialise and train on the
//                      engine's dataset
//   export_arch(a) / import_arch(text)   persistence round-trip
//
// The owned evaluation state (dataset, supernet, device model, fitted
// predictor, candidate-score memo) lives in a shared EvalContext: build one
// engine per config with Engine::create(cfg), or several engines on one
// context with Engine::create(cfg, ctx) so e.g. one fitted predictor serves
// every search on a device (see api/eval_context.hpp).
//
// Every verb reports failure as Status/Result — user input never throws
// across this boundary. Module-level headers (hgnas/, hw/, predictor/)
// remain public for callers that need internals; new code should start
// here.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/eval_context.hpp"
#include "api/registry.hpp"
#include "api/status.hpp"
#include "hgnas/model.hpp"
#include "hgnas/search.hpp"
#include "hgnas/serialize_arch.hpp"
#include "hw/profiler.hpp"
#include "obs/metrics.hpp"

namespace hg::api {

// Vocabulary types re-exported so facade consumers need only this header.
using Arch = hgnas::Arch;
using Workload = hgnas::Workload;
using SearchResult = hgnas::SearchResult;
using ParetoPoint = hgnas::ParetoPoint;

/// One latency answer from the configured evaluator.
struct LatencyReport {
  double latency_ms = 0.0;
  double peak_memory_mb = 0.0;  // 0 = evaluator cannot report memory
  bool oom = false;
};

/// Deterministic deployment report on the target device's cost model.
struct ProfileReport {
  double latency_ms = 0.0;
  double peak_memory_mb = 0.0;
  double energy_mj = 0.0;
  double param_mb = 0.0;
  bool oom = false;
  std::string breakdown;     // one-line Fig. 3 category summary
  std::string per_op_table;  // full per-op profiler table
  /// Per-category latency shares in hw::OpCategory order (Sample /
  /// Aggregate / Combine / Others) — the Fig. 3 bars, numerically.
  std::array<double, hw::kNumCategories> category_fraction{};
  // DGCNN reference on the same device / workload:
  double reference_latency_ms = 0.0;
  double reference_memory_mb = 0.0;
  double speedup_vs_reference = 0.0;
  // Candidate memo-cache traffic of this engine's most recent search()
  // (0/0 before any search; a miss is one full candidate evaluation).
  std::int64_t search_cache_hits = 0;
  std::int64_t search_cache_misses = 0;
};

/// Final metrics after materialising and training an architecture.
struct TrainReport {
  double overall_acc = 0.0;
  double balanced_acc = 0.0;
  double mean_loss = 0.0;
  double param_mb = 0.0;
};

struct SearchReport {
  hgnas::SearchResult result;  // includes result.frontier (Fig. 6)
  std::string visualization;   // Fig. 10-style rendering of the winner
  /// result.frontier as a printable "latency_ms  accuracy" table.
  std::string frontier_table;
};

class SearchRun;
class TrainBaselineRun;

/// Shape of the predictor's architecture-graph abstraction (§III-D).
struct ArchGraphInfo {
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
  std::int64_t feature_dim = 0;
};

/// Held-out accuracy of the engine's trained latency predictor.
struct PredictorReport {
  double mape = 0.0;
  double within_10pct = 0.0;
  double rmse_ms = 0.0;
  double train_mape = 0.0;  // from the fit at engine creation
  /// A few (measured, predicted) pairs from the held-out set — the Fig. 8
  /// scatter sample. Parallel arrays, at most 8 entries.
  std::vector<double> sample_measured_ms;
  std::vector<double> sample_predicted_ms;
};

class Engine {
 public:
  /// Validate the config and build a fresh EvalContext for this engine
  /// alone (for evaluator "predictor" this collects labelled architectures
  /// and fits the predictor).
  static Result<Engine> create(const EngineConfig& cfg);

  /// Build an engine on an existing shared context: the dataset, supernet,
  /// device model, fitted predictors and candidate-score memo are reused.
  /// Context-shaping config fields must match the context's (see
  /// context_compatible); evaluator / strategy / objective / constraints /
  /// search scale may differ per engine.
  static Result<Engine> create(const EngineConfig& cfg,
                               std::shared_ptr<EvalContext> ctx);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run the configured search strategy end to end: begin_search() driven
  /// to completion.
  Result<SearchReport> search();

  /// The configured search as a run advanced one step at a time; driving
  /// it to completion is search(). serve::Service checks cancel and
  /// deadline at this granularity. The run keeps the engine's EvalContext
  /// alive, so it may outlive this Engine.
  Result<std::unique_ptr<SearchRun>> begin_search();

  /// Latency of one architecture through the configured evaluator. Noisy
  /// for "measured", learned for "predictor", exact for "oracle". For
  /// "predictor" this is predict_batch at batch size 1 (same code path as
  /// a coalesced batch).
  Result<LatencyReport> predict_latency(const Arch& arch);

  /// Latency of N architectures in one evaluator pass. For "predictor" the
  /// batch packs into block-diagonal tape-free GCN forwards, one per pool
  /// thread (predictor::LatencyPredictor::predict_batch_ms) — element i is
  /// bit-identical to predict_latency(archs[i]), just cheaper per query;
  /// serve::Service coalesces queued predictions onto this. Other
  /// evaluators answer with a per-architecture loop in order (so "measured"
  /// consumes its noise stream exactly as N predict_latency calls would).
  Result<std::vector<LatencyReport>> predict_batch(
      std::span<const Arch> archs);

  /// Materialise the architecture at training scale and train it for
  /// config().train_epochs on the engine's dataset.
  Result<TrainReport> train(const Arch& arch);

  /// Deterministic deployment report on the target device.
  Result<ProfileReport> profile(const Arch& arch) const;

  // ---- named reference networks (registry "baselines") ----
  /// The profile() report for a named baseline ("dgcnn", "li", "tailor",
  /// "dgcnn-reuse2/3", zoo entries) at the deployment workload — or at an
  /// explicit one (Fig. 1's point-count sweep). Reference numbers inside
  /// the report are recomputed at the same workload, so speedup columns
  /// stay comparable.
  Result<ProfileReport> profile_baseline(const std::string& name) const;
  Result<ProfileReport> profile_baseline(const std::string& name,
                                         const Workload& workload) const;
  /// Train a CPU-scale instance of a named baseline on the engine's
  /// dataset (config().train_epochs / train_lr) — the accuracy columns of
  /// Table II / Fig. 2 / Fig. 6. mean_loss is 0 (baseline training loops
  /// report accuracy only). begin_train_baseline() driven to completion.
  Result<TrainReport> train_baseline(const std::string& name);
  /// The baseline training as a run advanced one epoch at a time; driving
  /// it to completion is train_baseline().
  Result<std::unique_ptr<TrainBaselineRun>> begin_train_baseline(
      const std::string& name);

  // ---- persistence (serialize_arch v1 text format) ----
  Result<std::string> export_arch(const Arch& arch) const;
  Result<Arch> import_arch(const std::string& text) const;
  Status save_arch(const std::string& path, const Arch& arch) const;
  Result<Arch> load_arch(const std::string& path) const;

  // ---- introspection ----
  /// Snapshot of the process-wide engine instrumentation
  /// (obs::Registry::global()): engine.* counters bumped by the heavy
  /// verbs across every Engine in the process. Per-service serving
  /// metrics live in serve::Service::metrics_snapshot() instead.
  static obs::Snapshot metrics();
  /// Fig. 10-style multi-line rendering at the deployment workload.
  std::string visualize(const Arch& arch) const;
  /// Node/edge/feature counts of the predictor's graph abstraction.
  ArchGraphInfo arch_graph_info(const Arch& arch) const;
  /// Held-out accuracy of the trained predictor (FAILED_PRECONDITION
  /// unless the engine was created with evaluator "predictor").
  Result<PredictorReport> evaluate_predictor(std::int64_t test_count,
                                             std::uint64_t seed);
  /// Uniformly random architecture from the configured design space.
  Arch sample_arch();

  const EngineConfig& config() const { return cfg_; }
  /// The shared evaluation state this engine runs on.
  const std::shared_ptr<EvalContext>& context() const { return ctx_; }
  const hw::Device& device() const { return ctx_->device(); }
  /// Deployment-side workload (cost models, predictor).
  const Workload& deploy_workload() const { return ctx_->deploy_workload(); }
  /// Training-side workload (dataset, materialised models).
  const Workload& train_workload() const { return ctx_->train_workload(); }
  /// DGCNN reference latency / memory on the target device (Table II).
  double reference_latency_ms() const { return ctx_->reference_latency_ms(); }
  double reference_memory_mb() const { return ctx_->reference_memory_mb(); }

 private:
  Engine() = default;

  /// profile() / profile_baseline() share this: cost-model numbers for one
  /// lowered trace against an explicit reference workload.
  ProfileReport profile_trace(const hw::Trace& trace,
                              const Workload& reference_workload) const;

  EngineConfig cfg_;
  hgnas::SearchConfig search_cfg_;
  std::shared_ptr<EvalContext> ctx_;
  EvaluatorBundle evaluator_;
  // Memo-cache counters of the most recent search(), surfaced in
  // ProfileReport.
  std::int64_t last_cache_hits_ = 0;
  std::int64_t last_cache_misses_ = 0;
};

/// An in-flight search advanced one step at a time — one supernet
/// mini-batch or one validation-sample round (hgnas::SearchStepper), the
/// unit between which serve::Service checks cancel and deadline. Obtained
/// from Engine::begin_search(). step() never throws: failures are captured
/// and surface from take_report(), exactly as Engine::search() would have
/// reported them.
class SearchRun {
 public:
  SearchRun(const SearchRun&) = delete;
  SearchRun& operator=(const SearchRun&) = delete;

  /// Advance one step (a mini-batch or a validation-sample round). False
  /// once the search has finished — successfully or not.
  bool step();
  bool done() const { return finished_; }
  /// Live progress view (phase, step count, simulated time, best
  /// objective).
  const hgnas::SearchProgress& progress() const {
    return stepper_->progress();
  }
  /// FAILED_PRECONDITION until done(); afterwards the report (or error
  /// Status) Engine::search() would have produced. Consumes the result.
  Result<SearchReport> take_report();

 private:
  friend class Engine;
  SearchRun() = default;

  std::shared_ptr<EvalContext> ctx_;  // keeps the stepper's borrows alive
  Workload deploy_workload_;
  std::unique_ptr<hgnas::SearchStepper> stepper_;
  hgnas::SearchResult result_;
  Status error_;
  bool finished_ = false;
};

/// An in-flight baseline training run advanced one epoch at a time — the
/// train_baseline() counterpart of SearchRun, with the same step() /
/// take_report() contract.
class TrainBaselineRun {
 public:
  TrainBaselineRun(const TrainBaselineRun&) = delete;
  TrainBaselineRun& operator=(const TrainBaselineRun&) = delete;

  /// One training epoch (or the final evaluation). False once finished;
  /// never throws.
  bool step();
  bool done() const { return finished_; }
  /// FAILED_PRECONDITION until done(); afterwards the report (or error
  /// Status) Engine::train_baseline() would have produced.
  Result<TrainReport> take_report();

 private:
  friend class Engine;
  TrainBaselineRun() = default;

  std::shared_ptr<EvalContext> ctx_;
  std::unique_ptr<Lowerable> baseline_;  // the stepper refers into it
  std::unique_ptr<TrainStepper> stepper_;
  TrainReport report_;
  Status error_;
  bool finished_ = false;
};

}  // namespace hg::api
