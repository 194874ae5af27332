// model.hpp — materialised (finalised) network for an architecture.
//
// Builds the real, deployable network for an `Arch`: natural channel flow
// from the 3-D input, no supernet alignment layers (they are "disposed of
// in the finalized architecture", §III-B). Used for final training and for
// the accuracy columns of Table II / Fig. 6.
#pragma once

#include <memory>
#include <vector>

#include "core/stepwise.hpp"
#include "hgnas/arch.hpp"
#include "nn/nn.hpp"
#include "pointcloud/pointcloud.hpp"

namespace hg::hgnas {

/// Execution-ready network for one architecture.
///
/// forward() runs one point cloud [n, 3] -> logits [1, classes], mirroring
/// lower_to_trace() exactly: lazy initial KNN, adjacent-sample merging
/// (naturally free: re-sampling unchanged features yields the same graph),
/// weightless aggregation, Linear+BN+LeakyReLU combines, and skip-connects
/// that degrade to identity on channel mismatch.
class GnnModel final : public nn::Module {
 public:
  GnnModel(Arch arch, Workload workload, Rng& rng);

  /// points: [n, 3] tensor of one cloud. `rng` drives Random-sample ops.
  Tensor forward(const Tensor& points, Rng& rng);

  std::vector<Tensor> parameters() const override;
  void set_training(bool training) override;
  /// Every BatchNorm1d layer in forward order: their running statistics
  /// are training state that parameters() leaves out.
  std::vector<const nn::BatchNorm1d*> batch_norms() const;

  const Arch& arch() const { return arch_; }
  const Workload& workload() const { return workload_; }
  double param_mb() const;

 private:
  Arch arch_;
  Workload workload_;
  // One entry per position; null when the position carries no weights.
  std::vector<std::unique_ptr<nn::Linear>> combine_lin_;
  std::vector<std::unique_ptr<nn::BatchNorm1d>> combine_bn_;
  std::unique_ptr<nn::Linear> head1_, head2_;
};

/// Training / evaluation results for a materialised model.
struct EvalResult {
  double overall_acc = 0.0;   // OA
  double balanced_acc = 0.0;  // mAcc
  double mean_loss = 0.0;
};

struct TrainConfig {
  std::int64_t epochs = 30;
  std::int64_t batch_size = 8;  // gradient accumulation over clouds
  float lr = 1e-3f;
  float weight_decay = 1e-4f;
  bool cosine_schedule = true;
  std::int64_t log_every = 0;  // 0: silent
};

/// Train on the dataset's train split with Adam; returns final test metrics.
/// Each mini-batch is one nn::DataParallelStep. `rng` draws each epoch's
/// shuffle and then one seed per sample, in sample order, so the result is
/// the same at every pool width.
EvalResult train_model(GnnModel& model, const pointcloud::Dataset& data,
                       const TrainConfig& cfg, Rng& rng);

/// The same loop with one suspension per epoch; the final step runs the
/// test-set evaluation into *out. train_model drives this coroutine to
/// completion, so stepped and monolithic runs are bit-identical (the
/// step / total_steps cosine-schedule bookkeeping lives in the frame).
/// `cfg` is taken by value: the caller's copy may die before the last step.
core::Stepper train_model_stepwise(GnnModel& model,
                                   const pointcloud::Dataset& data,
                                   TrainConfig cfg, Rng& rng, EvalResult* out);

/// Evaluate (eval mode, no grad) on a set of samples.
EvalResult evaluate_model(GnnModel& model,
                          const std::vector<pointcloud::Sample>& samples,
                          std::int64_t num_classes, Rng& rng);

}  // namespace hg::hgnas
