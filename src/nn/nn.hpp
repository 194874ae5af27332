// nn.hpp — neural-network layers built on the tensor/autograd engine.
//
// A Module owns parameter Tensors and exposes them for optimisers and
// checkpointing. Layers are deliberately minimal: exactly what DGCNN, the
// HGNAS supernet and the latency predictor need.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/init.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace hg::nn {

/// Base class: parameter registration + train/eval mode.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters (shared handles — mutating them updates the
  /// module). Default implementation returns the registered list.
  virtual std::vector<Tensor> parameters() const { return params_; }

  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Total number of scalar parameters.
  std::int64_t num_parameters() const;

 protected:
  Tensor& register_parameter(Tensor t);

  std::vector<Tensor> params_;
  bool training_ = true;
};

/// Fully-connected layer: y = x W + b, Kaiming-initialised.
class Linear final : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);

  Tensor forward(const Tensor& x) const;

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  /// Trained parameters, for tape-free inference that reads them in place.
  const Tensor& weight() const { return weight_; }  // [in, out]
  const Tensor& bias() const { return bias_; }      // [out]; only with bias

 private:
  std::int64_t in_features_, out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out] (empty handle if bias == false)
  bool has_bias_;
};

/// Batch normalisation over the row dimension of a [N, C] tensor
/// (momentum 0.1, eps 1e-5 like PyTorch).
///
/// In this library the "batch" is almost always the nodes/edges of a
/// single point cloud, whose statistics vary strongly between clouds
/// (random rotation/scale). Normalisation therefore always uses the
/// current batch statistics when the batch has more than one row —
/// graph-instance normalisation, deterministic at inference — and falls
/// back to the running estimates only for degenerate single-row batches.
/// Running statistics are updated in training mode only, through
/// detail::update_shared, so inside nn::DataParallelStep they move in
/// sample order after the step. A single-row training forward there throws
/// std::logic_error: it would read statistics that earlier samples of the
/// step have not applied yet.
class BatchNorm1d final : public Module {
 public:
  explicit BatchNorm1d(std::int64_t num_features);

  Tensor forward(const Tensor& x);

  std::span<const float> running_mean() const { return running_mean_; }
  std::span<const float> running_var() const { return running_var_; }

 private:
  std::int64_t num_features_;
  Tensor gamma_, beta_;
  std::vector<float> running_mean_, running_var_;
  float momentum_ = 0.1f;
  float eps_ = 1e-5f;
};

enum class Activation { None, Relu, LeakyRelu };

/// Multi-layer perceptron: Linear (+ optional BatchNorm) + activation per
/// hidden layer; the final layer is linear with no activation by default.
class Mlp final : public Module {
 public:
  /// dims = {in, h1, ..., out}. `hidden_act` applies after every layer but
  /// the last; `final_act` after the last.
  Mlp(std::vector<std::int64_t> dims, Rng& rng,
      Activation hidden_act = Activation::Relu,
      Activation final_act = Activation::None, bool batch_norm = false);

  Tensor forward(const Tensor& x);

  std::vector<Tensor> parameters() const override;
  void set_training(bool training) override;

  std::size_t num_layers() const { return linears_.size(); }
  const Linear& layer(std::size_t i) const { return *linears_[i]; }

 private:
  std::vector<std::unique_ptr<Linear>> linears_;
  std::vector<std::unique_ptr<BatchNorm1d>> norms_;  // empty if !batch_norm
  Activation hidden_act_, final_act_;
};

/// LeakyRelu uses leaky_relu's default slope.
Tensor apply_activation(const Tensor& x, Activation act);

// ---- training ----------------------------------------------------------------

/// The gradients of one optimiser step over n independent samples,
/// computed across the pool and applied exactly as a serial loop applies
/// them.
///
/// run(n, sample_loss) calls sample_loss(i), the sample's forward pass
/// returning its scalar loss, and backward() on that loss for each i in
/// [0, n). The samples run on the pool, each under its own
/// detail::GradSink. Then the sinks are replayed in sample order, so every
/// parameter receives the same accumulate_grad calls, with the same
/// floats in the same order, as from a serial loop that calls backward()
/// on each sample_loss(i) in turn.
/// That holds at every pool width, 1 included, and also when a sample
/// uses a parameter more than once. Returns the n loss values in sample
/// order.
///
/// Samples run concurrently, so sample_loss may read shared weights but
/// must write shared state only through detail::update_shared, which logs
/// the write in the sample's sink; the replay applies those writes in
/// sample order too (BatchNorm1d's running statistics). A sample that
/// needs random draws takes its own Rng, seeded from the caller's stream
/// before run().
///
/// If a sample throws, no contribution is applied and the exception
/// propagates. The logs and their buffers belong to this object, so one
/// object reused across a run's steps stops allocating them after its
/// first step. Calling run() from inside a sample throws std::logic_error.
class DataParallelStep {
 public:
  std::vector<float> run(std::int64_t n,
                         const std::function<Tensor(std::int64_t)>& sample_loss);

 private:
  std::vector<detail::GradSink> sinks_;  // one per sample, reused
};

// ---- metrics -----------------------------------------------------------------

/// Overall accuracy (fraction of correct predictions).
double overall_accuracy(std::span<const std::int64_t> pred,
                        std::span<const std::int64_t> label);

/// Balanced (macro-averaged per-class) accuracy — the paper's "mAcc".
double balanced_accuracy(std::span<const std::int64_t> pred,
                         std::span<const std::int64_t> label,
                         std::int64_t num_classes);

}  // namespace hg::nn
