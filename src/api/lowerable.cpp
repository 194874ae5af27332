#include "api/lowerable.hpp"

#include <utility>

#include "api/registry.hpp"
#include "baselines/baselines.hpp"
#include "core/stepwise.hpp"
#include "hgnas/model.hpp"
#include "hgnas/zoo.hpp"

namespace hg::api {

namespace {

/// Epoch stepper over the baselines' shared training loop: owns the
/// materialised model and drives the train_baseline_stepwise coroutine.
/// The model is built in the constructor, so RNG consumption matches
/// baselines::train_baseline (model init first, then training draws per
/// step).
template <typename ModelT, typename ConfigT>
class ModelTrainStepper final : public TrainStepper {
 public:
  ModelTrainStepper(const ConfigT& cfg, const pointcloud::Dataset& data,
                    std::int64_t epochs, float lr, Rng& rng)
      : model_(cfg, rng),
        run_(baselines::train_baseline_stepwise(model_, data, epochs, lr, rng,
                                                &eval_)) {}

  bool step() override {
    if (run_.done()) return false;
    return run_.step();
  }
  bool done() const override { return run_.done(); }
  BaselineTrainResult result() const override {
    return {eval_.overall_acc, eval_.balanced_acc, model_.param_mb()};
  }

 private:
  ModelT model_;  // declared before run_: the coroutine frame refers to it
  baselines::BaselineEval eval_;
  core::Stepper run_;
};

/// Same shape over hgnas::train_model_stepwise for zoo architectures.
class ZooTrainStepper final : public TrainStepper {
 public:
  ZooTrainStepper(const hgnas::Arch& arch, const hgnas::Workload& train_w,
                  const pointcloud::Dataset& data, hgnas::TrainConfig cfg,
                  Rng& rng)
      : model_(arch, train_w, rng),
        run_(hgnas::train_model_stepwise(model_, data, cfg, rng, &eval_)) {}

  bool step() override {
    if (run_.done()) return false;
    return run_.step();
  }
  bool done() const override { return run_.done(); }
  BaselineTrainResult result() const override {
    return {eval_.overall_acc, eval_.balanced_acc, model_.param_mb()};
  }

 private:
  hgnas::GnnModel model_;
  hgnas::EvalResult eval_;
  core::Stepper run_;
};

/// DGCNN and its sampling-reuse ladder: reuse_from_layer = 4 is the
/// original network, 1 is the Li et al. [6] single-sample optimisation
/// (Fig. 2's x-axis).
class DgcnnBaseline final : public Lowerable {
 public:
  DgcnnBaseline(std::string name, std::int64_t reuse_from_layer)
      : name_(std::move(name)), reuse_from_layer_(reuse_from_layer) {}

  std::string name() const override { return name_; }

  hw::Trace lower(const hgnas::Workload& w) const override {
    baselines::DgcnnConfig cfg;  // paper-scale widths
    cfg.k = w.k;
    cfg.num_classes = w.num_classes;
    cfg.reuse_from_layer = reuse_from_layer_;
    return baselines::Dgcnn::trace(cfg, w.num_points);
  }

  std::unique_ptr<TrainStepper> train_stepper(
      const pointcloud::Dataset& data, const hgnas::Workload& train_w,
      std::int64_t epochs, float lr, Rng& rng) const override {
    baselines::DgcnnConfig cfg =
        baselines::DgcnnConfig::scaled(train_w.num_classes, train_w.k);
    cfg.reuse_from_layer = reuse_from_layer_;
    return std::make_unique<
        ModelTrainStepper<baselines::Dgcnn, baselines::DgcnnConfig>>(
        cfg, data, epochs, lr, rng);
  }

 private:
  std::string name_;
  std::int64_t reuse_from_layer_;
};

/// Tailor et al. [7]: single spatial graph, simplified latter layers.
class TailorBaseline final : public Lowerable {
 public:
  std::string name() const override { return "tailor"; }

  hw::Trace lower(const hgnas::Workload& w) const override {
    baselines::TailorConfig cfg;
    cfg.k = w.k;
    cfg.num_classes = w.num_classes;
    return baselines::TailorGnn::trace(cfg, w.num_points);
  }

  std::unique_ptr<TrainStepper> train_stepper(
      const pointcloud::Dataset& data, const hgnas::Workload& train_w,
      std::int64_t epochs, float lr, Rng& rng) const override {
    return std::make_unique<
        ModelTrainStepper<baselines::TailorGnn, baselines::TailorConfig>>(
        baselines::TailorConfig::scaled(train_w.num_classes, train_w.k), data,
        epochs, lr, rng);
  }
};

/// A fixed architecture from the zoo (the paper's Fig. 10 Device_Fast
/// networks), lowered and trained exactly like any searched design.
class ZooBaseline final : public Lowerable {
 public:
  ZooBaseline(std::string name, hgnas::Arch arch)
      : name_(std::move(name)), arch_(std::move(arch)) {}

  std::string name() const override { return name_; }

  hw::Trace lower(const hgnas::Workload& w) const override {
    return hgnas::lower_to_trace(arch_, w);
  }

  std::unique_ptr<TrainStepper> train_stepper(
      const pointcloud::Dataset& data, const hgnas::Workload& train_w,
      std::int64_t epochs, float lr, Rng& rng) const override {
    hgnas::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.lr = lr;
    return std::make_unique<ZooTrainStepper>(arch_, train_w, data, cfg, rng);
  }

 private:
  std::string name_;
  hgnas::Arch arch_;
};

}  // namespace

void install_builtin_baselines(Registry& registry) {
  auto dgcnn = [](std::string name, std::int64_t reuse) {
    return [name = std::move(name), reuse]() -> std::unique_ptr<Lowerable> {
      return std::make_unique<DgcnnBaseline>(name, reuse);
    };
  };
  registry.register_baseline("dgcnn", "dgcnn-reuse4", dgcnn("dgcnn", 4));
  registry.register_baseline("dgcnn-reuse3", "", dgcnn("dgcnn-reuse3", 3));
  registry.register_baseline("dgcnn-reuse2", "", dgcnn("dgcnn-reuse2", 2));
  registry.register_baseline("li", "dgcnn-reuse1", dgcnn("li", 1));
  registry.register_baseline("tailor", "", []() -> std::unique_ptr<Lowerable> {
    return std::make_unique<TailorBaseline>();
  });

  auto zoo = [](std::string name, hgnas::Arch (*make)()) {
    return [name = std::move(name), make]() -> std::unique_ptr<Lowerable> {
      return std::make_unique<ZooBaseline>(name, make());
    };
  };
  registry.register_baseline("rtx-fast", "", zoo("rtx-fast",
                                                 hgnas::zoo::rtx_fast));
  registry.register_baseline("i7-fast", "intel-fast",
                             zoo("i7-fast", hgnas::zoo::intel_fast));
  registry.register_baseline("tx2-fast", "", zoo("tx2-fast",
                                                 hgnas::zoo::tx2_fast));
  registry.register_baseline("pi-fast", "", zoo("pi-fast",
                                                hgnas::zoo::pi_fast));
}

}  // namespace hg::api
