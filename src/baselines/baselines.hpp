// baselines.hpp — DGCNN and the two manually-optimised comparison points.
//
// The paper compares HGNAS against:
//  * DGCNN (Wang et al., ACM TOG 2019): four dynamic EdgeConv layers, each
//    rebuilding a KNN graph in feature space, concat skip head.
//  * Li et al. [6] (ICCV 2021): eliminates the redundant per-layer graph
//    construction by *reusing the sampled results* across layers.
//  * Tailor et al. [7] (ICCV 2021): architectural simplification — a single
//    spatial graph plus simplified latter layers (the representational
//    power of front layers matters most, paper Observation ②).
//
// Every baseline provides (a) a trainable model over this repo's synthetic
// dataset and (b) a cost-model lowering at arbitrary workloads so the
// paper-scale latency/memory numbers (Table II, Fig. 1, Fig. 2) can be
// reproduced on the device models.
#pragma once

#include <memory>
#include <vector>

#include "core/stepwise.hpp"
#include "gnn/gnn.hpp"
#include "hw/device.hpp"
#include "nn/nn.hpp"
#include "pointcloud/pointcloud.hpp"

namespace hg::baselines {

struct DgcnnConfig {
  std::vector<std::int64_t> dims = {64, 64, 128, 256};  // EdgeConv widths
  std::int64_t emb = 1024;          // embedding conv after concat
  std::int64_t head_hidden1 = 512;  // classifier MLP
  std::int64_t head_hidden2 = 256;
  std::int64_t k = 20;
  std::int64_t num_classes = 40;
  /// Layers 1..reuse_from_layer build their own KNN graph (layer 1 over
  /// raw points, deeper ones over features); layers beyond reuse the last
  /// built graph. 4 = original DGCNN (all dynamic); 1 = Li et al. [6]
  /// (single sample, fully reused). Drives the Fig. 2(b) sweep.
  std::int64_t reuse_from_layer = 4;

  /// CPU-sized configuration for actual training in tests/benches.
  static DgcnnConfig scaled(std::int64_t num_classes, std::int64_t k);
};

/// DGCNN and its sampling-reuse variants.
class Dgcnn final : public nn::Module {
 public:
  Dgcnn(DgcnnConfig cfg, Rng& rng);

  /// One cloud [n, 3] -> logits [1, classes].
  Tensor forward(const Tensor& points);

  std::vector<Tensor> parameters() const override;
  void set_training(bool training) override;
  /// Every BatchNorm1d layer in forward order: their running statistics
  /// are training state that parameters() leaves out.
  std::vector<const nn::BatchNorm1d*> batch_norms() const;

  const DgcnnConfig& config() const { return cfg_; }
  double param_mb() const;

  /// Cost-model lowering at a given point count (mirrors forward exactly,
  /// including graph reuse).
  static hw::Trace trace(const DgcnnConfig& cfg, std::int64_t num_points);

 private:
  DgcnnConfig cfg_;
  std::vector<std::unique_ptr<gnn::EdgeConv>> convs_;
  std::unique_ptr<nn::Linear> emb_lin_;
  std::unique_ptr<nn::BatchNorm1d> emb_bn_;
  std::unique_ptr<nn::Linear> head1_, head2_, head3_;
};

/// Li et al. [6]: DGCNN with the sampling reused across all layers.
DgcnnConfig li_optimized_config(const DgcnnConfig& base);

struct TailorConfig {
  std::int64_t dim1 = 64;  // two full EdgeConv layers kept
  std::int64_t dim2 = 64;
  std::int64_t dim3 = 128;  // simplified latter layers: plain combines
  std::int64_t dim4 = 256;
  std::int64_t emb = 1024;
  std::int64_t head_hidden1 = 512;
  std::int64_t head_hidden2 = 256;
  std::int64_t k = 20;
  std::int64_t num_classes = 40;

  static TailorConfig scaled(std::int64_t num_classes, std::int64_t k);
};

/// Tailor et al. [7]: single spatial KNN graph; the two latter EdgeConvs
/// are replaced by aggregate-free linear combines.
class TailorGnn final : public nn::Module {
 public:
  TailorGnn(TailorConfig cfg, Rng& rng);

  Tensor forward(const Tensor& points);

  std::vector<Tensor> parameters() const override;
  void set_training(bool training) override;
  /// Every BatchNorm1d layer in forward order: their running statistics
  /// are training state that parameters() leaves out.
  std::vector<const nn::BatchNorm1d*> batch_norms() const;

  const TailorConfig& config() const { return cfg_; }
  double param_mb() const;

  static hw::Trace trace(const TailorConfig& cfg, std::int64_t num_points);

 private:
  TailorConfig cfg_;
  std::unique_ptr<gnn::EdgeConv> conv1_, conv2_;
  std::unique_ptr<nn::Linear> lin3_, lin4_;
  std::unique_ptr<nn::BatchNorm1d> bn3_, bn4_;
  std::unique_ptr<nn::Linear> emb_lin_;
  std::unique_ptr<nn::BatchNorm1d> emb_bn_;
  std::unique_ptr<nn::Linear> head1_, head2_, head3_;
};

/// Test-split metrics of a trained baseline.
struct BaselineEval {
  double overall_acc = 0.0;
  double balanced_acc = 0.0;
};

/// Train a baseline with Adam on the train split in mini-batches of 8
/// clouds, each batch one nn::DataParallelStep, then evaluate on the test
/// split. `rng` draws only the epoch shuffles.
template <typename ModelT>
BaselineEval train_baseline(ModelT& model, const pointcloud::Dataset& data,
                            std::int64_t epochs, float lr, Rng& rng);

/// The same training loop with one suspension per epoch (the final step runs
/// the test-set evaluation into *out). train_baseline drives this coroutine
/// to completion, so stepped and monolithic runs are bit-identical. All
/// references must outlive the returned stepper.
template <typename ModelT>
core::Stepper train_baseline_stepwise(ModelT& model,
                                      const pointcloud::Dataset& data,
                                      std::int64_t epochs, float lr, Rng& rng,
                                      BaselineEval* out);

}  // namespace hg::baselines
