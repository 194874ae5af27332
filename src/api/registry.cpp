#include "api/registry.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <utility>

namespace hg::api {

std::string normalize_key(const std::string& name) {
  std::string out = name;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

namespace {

template <typename Map>
std::string known_names(const Map& map) {
  std::string out;
  for (const auto& [key, unused] : map) {
    if (!out.empty()) out += ", ";
    out += key;
  }
  return out;
}

template <typename Map>
std::vector<std::string> sorted_keys(const Map& map) {
  std::vector<std::string> out;
  out.reserve(map.size());
  for (const auto& [key, unused] : map) out.push_back(key);
  return out;
}

// ---- built-in evaluators ---------------------------------------------------

Result<EvaluatorBundle> make_oracle(const EvaluatorRequest& req) {
  EvaluatorBundle bundle;
  bundle.fn = hgnas::make_oracle_evaluator(*req.device, req.workload);
  return bundle;
}

Result<EvaluatorBundle> make_measured(const EvaluatorRequest& req) {
  if (!req.device->spec().supports_online_measurement)
    return Status::FailedPrecondition(
        "device '" + req.device->name() +
        "' does not support online measurement (paper §IV-D); use "
        "evaluator \"predictor\" instead");
  EvaluatorBundle bundle;
  bundle.fn =
      hgnas::make_measurement_evaluator(*req.device, req.workload, req.seed);
  return bundle;
}

Result<EvaluatorBundle> make_predictor(const EvaluatorRequest& req) {
  std::vector<predictor::LabeledArch> collected;
  if (req.labeled == nullptr)
    collected = predictor::collect_labeled_archs(*req.device, req.space,
                                                 req.workload,
                                                 req.predictor_samples,
                                                 req.seed);
  const std::vector<predictor::LabeledArch>& labeled =
      req.labeled != nullptr ? *req.labeled : collected;
  if (labeled.empty())
    return Status::Internal("no measurable architectures collected on '" +
                            req.device->name() + "'");
  predictor::PredictorConfig pcfg;
  pcfg.epochs = req.predictor_epochs;
  // The MAPE loss over the softplus-sum head has a seed-dependent failure
  // mode: early pressure from over-predicted small-latency samples can push
  // every per-node contribution into the softplus dead zone, after which
  // predictions stick at 0 and the train MAPE at exactly 1. A collapsed fit
  // is useless to search, so refit from a different initialisation.
  constexpr int kMaxFits = 4;
  constexpr double kCollapsedMape = 0.95;
  EvaluatorBundle bundle;
  for (int attempt = 0; attempt < kMaxFits; ++attempt) {
    Rng rng(req.seed ^ (0x9e3779b97f4a7c15ULL *
                        static_cast<std::uint64_t>(attempt + 1)));
    bundle.predictor = std::make_shared<predictor::LatencyPredictor>(
        pcfg, req.workload, rng);
    bundle.predictor_train_mape = bundle.predictor->fit(labeled, rng);
    if (bundle.predictor_train_mape < kCollapsedMape) break;
  }
  if (bundle.predictor_train_mape >= kCollapsedMape)
    return Status::Internal("latency predictor failed to converge on '" +
                            req.device->name() + "' (train MAPE " +
                            std::to_string(bundle.predictor_train_mape) +
                            " after " + std::to_string(kMaxFits) + " fits)");
  bundle.fn = predictor::make_predictor_evaluator(bundle.predictor);
  return bundle;
}

}  // namespace

Registry::Registry() {
  auto add_device = [this](const std::string& name, const std::string& alias,
                           hw::DeviceKind kind) {
    DeviceFactory factory = [kind]() { return hw::make_device(kind); };
    devices_[name] = factory;
    canonical_devices_.push_back(name);
    if (!alias.empty()) devices_[alias] = factory;
  };
  add_device("rtx3080", "rtx", hw::DeviceKind::Rtx3080);
  add_device("i7-8700k", "i7", hw::DeviceKind::IntelI7_8700K);
  add_device("jetson-tx2", "tx2", hw::DeviceKind::JetsonTx2);
  add_device("raspberry-pi-3b", "pi", hw::DeviceKind::RaspberryPi3B);

  evaluators_["oracle"] = make_oracle;
  evaluators_["measured"] = make_measured;
  evaluators_["predictor"] = make_predictor;

  auto stepper_for = [](hgnas::SearchStrategy strategy) {
    return [strategy](const StrategyRequest& req)
               -> Result<std::unique_ptr<hgnas::SearchStepper>> {
      try {
        return std::make_unique<hgnas::SearchStepper>(
            *req.supernet, *req.data, req.cfg, req.latency, strategy,
            *req.rng, req.eval_cache);
      } catch (const std::invalid_argument& e) {
        return Status::InvalidArgument(e.what());
      }
    };
  };
  strategies_["multistage"] = stepper_for(hgnas::SearchStrategy::kMultistage);
  strategies_["onestage"] = stepper_for(hgnas::SearchStrategy::kOnestage);
  strategies_["random"] = stepper_for(hgnas::SearchStrategy::kRandom);

  install_builtin_baselines(*this);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Status Registry::register_device(const std::string& name,
                                 DeviceFactory factory) {
  const std::string key = normalize_key(name);
  if (key.empty()) return Status::InvalidArgument("device name is empty");
  if (!devices_.emplace(key, std::move(factory)).second)
    return Status::InvalidArgument("device '" + key + "' already registered");
  canonical_devices_.push_back(key);
  return Status::Ok();
}

Status Registry::register_evaluator(const std::string& name,
                                    EvaluatorFactory factory) {
  const std::string key = normalize_key(name);
  if (key.empty()) return Status::InvalidArgument("evaluator name is empty");
  if (!evaluators_.emplace(key, std::move(factory)).second)
    return Status::InvalidArgument("evaluator '" + key +
                                   "' already registered");
  return Status::Ok();
}

Status Registry::register_strategy(const std::string& name,
                                   StrategyFactory factory) {
  const std::string key = normalize_key(name);
  if (key.empty()) return Status::InvalidArgument("strategy name is empty");
  if (!strategies_.emplace(key, std::move(factory)).second)
    return Status::InvalidArgument("strategy '" + key +
                                   "' already registered");
  return Status::Ok();
}

Status Registry::register_baseline(const std::string& name,
                                   const std::string& alias,
                                   BaselineFactory factory) {
  const std::string key = normalize_key(name);
  if (key.empty()) return Status::InvalidArgument("baseline name is empty");
  if (!baselines_.emplace(key, factory).second)
    return Status::InvalidArgument("baseline '" + key +
                                   "' already registered");
  canonical_baselines_.push_back(key);
  if (!alias.empty()) {
    const std::string alias_key = normalize_key(alias);
    if (!baselines_.emplace(alias_key, std::move(factory)).second)
      return Status::InvalidArgument("baseline alias '" + alias_key +
                                     "' already registered");
  }
  return Status::Ok();
}

Result<hw::Device> Registry::make_device(const std::string& name) const {
  const auto it = devices_.find(normalize_key(name));
  if (it == devices_.end())
    return Status::NotFound("unknown device '" + name +
                            "' (known: " + known_names(devices_) + ")");
  return it->second();
}

Result<EvaluatorBundle> Registry::make_evaluator(
    const std::string& name, const EvaluatorRequest& req) const {
  const auto it = evaluators_.find(normalize_key(name));
  if (it == evaluators_.end())
    return Status::NotFound("unknown evaluator '" + name +
                            "' (known: " + known_names(evaluators_) + ")");
  if (req.device == nullptr)
    return Status::Internal("EvaluatorRequest.device is null");
  return it->second(req);
}

Result<std::unique_ptr<hgnas::SearchStepper>> Registry::make_strategy_stepper(
    const std::string& name, const StrategyRequest& req) const {
  const auto it = strategies_.find(normalize_key(name));
  if (it == strategies_.end())
    return Status::NotFound("unknown strategy '" + name +
                            "' (known: " + known_names(strategies_) + ")");
  if (req.supernet == nullptr || req.data == nullptr || req.rng == nullptr)
    return Status::Internal("StrategyRequest has null borrows");
  if (!req.latency)
    return Status::InvalidArgument("strategy requires a latency evaluator");
  return it->second(req);
}

Result<std::unique_ptr<Lowerable>> Registry::make_baseline(
    const std::string& name) const {
  const auto it = baselines_.find(normalize_key(name));
  if (it == baselines_.end())
    return Status::NotFound("unknown baseline '" + name +
                            "' (known: " + known_names(baselines_) + ")");
  return it->second();
}

bool Registry::has_strategy(const std::string& name) const {
  return strategies_.count(normalize_key(name)) > 0;
}

std::vector<std::string> Registry::device_names() const {
  return canonical_devices_;
}
std::vector<std::string> Registry::evaluator_names() const {
  return sorted_keys(evaluators_);
}
std::vector<std::string> Registry::strategy_names() const {
  return sorted_keys(strategies_);
}
std::vector<std::string> Registry::baseline_names() const {
  return canonical_baselines_;
}

}  // namespace hg::api
