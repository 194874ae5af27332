// registry.hpp — string-keyed extension points of the API layer.
//
// Devices, latency evaluators and search strategies are selected by name in
// an EngineConfig and resolved here, so adding a platform or a strategy is
// one `register_*` call instead of a new overload set on every consumer.
// Built-ins installed at startup:
//
//   devices    : "rtx3080" ("rtx"), "i7-8700k" ("i7"),
//                "jetson-tx2" ("tx2"), "raspberry-pi-3b" ("pi")
//   evaluators : "oracle"     — deterministic analytical model, free queries
//                "measured"   — simulated on-device measurement (refused
//                               with FAILED_PRECONDITION on devices without
//                               online measurement: TX2, Pi)
//                "predictor"  — GNN latency predictor trained on labelled
//                               random architectures at engine creation
//   strategies : "multistage" — the paper's hierarchical Alg. 1
//                "onestage"   — joint EA over the full fine-grained space
//                "random"     — random sampling at the same query budget
//                A strategy is a factory of hgnas::SearchStepper:
//                Engine::search() and serve::Service both drive that
//                stepper, so one registration is the whole strategy.
//   baselines  : "dgcnn" ("dgcnn-reuse4"), "dgcnn-reuse3", "dgcnn-reuse2",
//                "li" ("dgcnn-reuse1"), "tailor" — the paper's comparison
//                networks — plus the zoo's Fig. 10 designs "rtx-fast",
//                "i7-fast" ("intel-fast"), "tx2-fast", "pi-fast"; all
//                resolve to the common Lowerable interface
//
// Lookup of an unknown name returns NOT_FOUND listing the known names; the
// facade never throws on user-provided strings.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/lowerable.hpp"
#include "api/status.hpp"
#include "hgnas/search.hpp"
#include "predictor/predictor.hpp"

namespace hg::api {

/// Inputs an evaluator factory may use. `device` must outlive the returned
/// evaluator (the engine owns both and guarantees this).
struct EvaluatorRequest {
  const hw::Device* device = nullptr;
  hgnas::SpaceConfig space;
  hgnas::Workload workload;
  std::uint64_t seed = 0;
  // "predictor" knobs (ignored by the other evaluators):
  std::int64_t predictor_samples = 600;
  std::int64_t predictor_epochs = 50;
  /// Pre-collected labelled architectures for "predictor" (borrowed for the
  /// duration of the factory call). Null: the factory collects its own.
  /// EvalContext::create_many passes labels collected for a whole device
  /// fleet through one pooled measurement queue; the caller must have
  /// collected them on `device` with the same space/workload/seed.
  const std::vector<predictor::LabeledArch>* labeled = nullptr;
};

/// An evaluator plus whatever heavyweight state backs it. `predictor` is
/// non-null only for the "predictor" evaluator; the engine exposes it for
/// accuracy reporting (Engine::evaluate_predictor).
struct EvaluatorBundle {
  hgnas::LatencyFn fn;
  std::shared_ptr<predictor::LatencyPredictor> predictor;
  double predictor_train_mape = 0.0;
};

/// Inputs a search strategy is built over. All pointers are borrowed from
/// the engine and must outlive the stepper the strategy returns.
struct StrategyRequest {
  hgnas::SuperNet* supernet = nullptr;
  const pointcloud::Dataset* data = nullptr;
  hgnas::SearchConfig cfg;
  hgnas::LatencyFn latency;
  Rng* rng = nullptr;
  /// Optional shared candidate-score memo (the engine passes its
  /// EvalContext's cache so searches sharing a context pool their scores).
  hgnas::EvalCache* eval_cache = nullptr;
};

/// Lowercase canonical form of a registry key. Every lookup in the
/// Registry resolves through this, and anything that caches by registry
/// name (EvalContext's evaluator memo) must key on the same form.
std::string normalize_key(const std::string& name);

class Registry {
 public:
  using DeviceFactory = std::function<hw::Device()>;
  using EvaluatorFactory =
      std::function<Result<EvaluatorBundle>(const EvaluatorRequest&)>;
  /// A strategy builds a stepper over the request (see
  /// hgnas::HgnasSearch::run_stepwise for the step unit); Engine::search()
  /// and serve::Service both run a search by driving it.
  using StrategyFactory = std::function<
      Result<std::unique_ptr<hgnas::SearchStepper>>(const StrategyRequest&)>;
  using BaselineFactory = std::function<std::unique_ptr<Lowerable>()>;

  /// The process-wide registry, with the built-ins installed.
  static Registry& global();

  // Registration: names are case-insensitive; re-registering an existing
  // name returns INVALID_ARGUMENT (built-ins cannot be shadowed silently).
  Status register_device(const std::string& name, DeviceFactory factory);
  Status register_evaluator(const std::string& name, EvaluatorFactory factory);
  Status register_strategy(const std::string& name, StrategyFactory factory);
  /// `alias` may be empty; like devices, aliases resolve but are not
  /// listed in baseline_names().
  Status register_baseline(const std::string& name, const std::string& alias,
                           BaselineFactory factory);

  Result<hw::Device> make_device(const std::string& name) const;
  Result<EvaluatorBundle> make_evaluator(const std::string& name,
                                         const EvaluatorRequest& req) const;
  Result<std::unique_ptr<hgnas::SearchStepper>> make_strategy_stepper(
      const std::string& name, const StrategyRequest& req) const;
  Result<std::unique_ptr<Lowerable>> make_baseline(
      const std::string& name) const;

  bool has_strategy(const std::string& name) const;

  /// Canonical device names only (aliases like "rtx" resolve but are not
  /// listed) — the one source of truth for "iterate all devices".
  std::vector<std::string> device_names() const;
  std::vector<std::string> evaluator_names() const;
  std::vector<std::string> strategy_names() const;
  std::vector<std::string> baseline_names() const;

 private:
  Registry();  // installs the built-ins

  std::map<std::string, DeviceFactory> devices_;  // canonical + aliases
  std::vector<std::string> canonical_devices_;
  std::map<std::string, EvaluatorFactory> evaluators_;
  std::map<std::string, StrategyFactory> strategies_;
  std::map<std::string, BaselineFactory> baselines_;  // canonical + aliases
  std::vector<std::string> canonical_baselines_;
};

}  // namespace hg::api
