// lowerable.hpp — the facade's common interface over every named reference
// network.
//
// The paper's comparisons pit HGNAS designs against hand-designed baselines
// (DGCNN, Li et al. [6], Tailor et al. [7]) and against the Fig. 10
// Device_Fast networks from the zoo. Each of those previously required its
// own lowering plumbing in every bench; behind `Lowerable` they all answer
// the same two questions:
//
//   lower(workload)   cost-model trace at an arbitrary deployment workload
//                     (drives Table II / Fig. 1 / Fig. 2 / Fig. 3 numbers)
//   train_stepper(..) materialise a CPU-scale instance and train it on a
//                     dataset, one epoch per step (the accuracy columns of
//                     Table II / Fig. 6)
//
// Instances are produced by name through the registry ("dgcnn", "li",
// "tailor", "dgcnn-reuse2/3", "rtx-fast", "i7-fast", "tx2-fast",
// "pi-fast") and consumed through Engine::profile_baseline /
// Engine::train_baseline — benches never touch baselines:: or zoo::
// directly.
#pragma once

#include <memory>
#include <string>

#include "hgnas/arch.hpp"
#include "hw/device.hpp"
#include "pointcloud/pointcloud.hpp"

namespace hg::api {

class Registry;

/// Accuracy metrics plus model size of one trained baseline instance.
struct BaselineTrainResult {
  double overall_acc = 0.0;
  double balanced_acc = 0.0;
  double param_mb = 0.0;  // of the CPU-scale instance that was trained
};

/// A baseline training run advanced one epoch at a time — the unit between
/// which serve::Service checks cancel and deadline. Obtained
/// from Lowerable::train_stepper; driving step() to completion produces the
/// same result as the baselines' train_baseline / hgnas::train_model loop.
class TrainStepper {
 public:
  virtual ~TrainStepper() = default;
  /// One epoch (or the final evaluation). False once finished; exceptions
  /// from the training loop propagate out of the step that hit them.
  virtual bool step() = 0;
  virtual bool done() const = 0;
  /// Valid once step() has returned false.
  virtual BaselineTrainResult result() const = 0;
};

/// A named reference network: lowers to a cost-model trace at any workload
/// and can materialise a trainable CPU-scale instance.
class Lowerable {
 public:
  virtual ~Lowerable() = default;

  /// Registry name this instance resolves (canonical form).
  virtual std::string name() const = 0;

  /// Cost-model lowering at a deployment workload. Deterministic.
  virtual hw::Trace lower(const hgnas::Workload& workload) const = 0;

  /// Build a fresh instance scaled to `train_workload` (classes, k) and
  /// return a run that trains it on `data`: the model is built here
  /// (consuming `rng` before any training draw), each step() runs one
  /// epoch, and the final step evaluates — bit-identical to the baselines'
  /// train_baseline / hgnas::train_model loop. Throws on internal error
  /// (the engine converts to Status at the facade boundary). All
  /// references must outlive the stepper.
  virtual std::unique_ptr<TrainStepper> train_stepper(
      const pointcloud::Dataset& data, const hgnas::Workload& train_workload,
      std::int64_t epochs, float lr, Rng& rng) const = 0;
};

/// Register the built-in baselines and zoo networks (called once by the
/// Registry constructor).
void install_builtin_baselines(Registry& registry);

}  // namespace hg::api
