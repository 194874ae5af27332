#include "nn/nn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"

namespace hg::nn {

std::int64_t Module::num_parameters() const {
  std::int64_t n = 0;
  for (const auto& p : parameters()) n += p.numel();
  return n;
}

Tensor& Module::register_parameter(Tensor t) {
  params_.push_back(std::move(t));
  return params_.back();
}

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("Linear: feature counts must be positive");
  weight_ = register_parameter(kaiming_normal(in_features, out_features, rng));
  if (has_bias_) bias_ = register_parameter(zeros_bias(out_features));
}

Tensor Linear::forward(const Tensor& x) const {
  if (x.dim() != 2 || x.shape()[1] != in_features_)
    throw std::invalid_argument(
        "Linear: input shape " + shape_to_string(x.shape()) +
        " incompatible with in_features=" + std::to_string(in_features_));
  Tensor y = matmul(x, weight_);
  if (has_bias_) y = add(y, bias_);
  return y;
}

BatchNorm1d::BatchNorm1d(std::int64_t num_features)
    : num_features_(num_features) {
  if (num_features <= 0)
    throw std::invalid_argument("BatchNorm1d: num_features must be positive");
  gamma_ = register_parameter(
      Tensor::ones({num_features}, /*requires_grad=*/true));
  beta_ = register_parameter(
      Tensor::zeros({num_features}, /*requires_grad=*/true));
  running_mean_.assign(static_cast<std::size_t>(num_features), 0.f);
  running_var_.assign(static_cast<std::size_t>(num_features), 1.f);
}

Tensor BatchNorm1d::forward(const Tensor& x) {
  if (x.dim() != 2 || x.shape()[1] != num_features_)
    throw std::invalid_argument(
        "BatchNorm1d: input shape " + shape_to_string(x.shape()) +
        " incompatible with num_features=" + std::to_string(num_features_));
  const std::int64_t n = x.shape()[0];
  if (n > 1) {
    Tensor mean = mean_axis(x, 0);                       // [C]
    Tensor centered = sub(x, mean);                      // [N,C]
    Tensor var = mean_axis(square(centered), 0);         // [C] (biased)
    Tensor std_ = sqrt_op(add(var, eps_));
    Tensor norm = div(centered, std_);
    if (training_) {
      // Update running stats outside the tape; inside a data-parallel
      // step the update waits for the step's in-order replay.
      std::vector<float> md(mean.data().begin(), mean.data().end());
      std::vector<float> vd(var.data().begin(), var.data().end());
      detail::update_shared([this, md = std::move(md), vd = std::move(vd)] {
        for (std::size_t c = 0; c < md.size(); ++c) {
          running_mean_[c] =
              (1.f - momentum_) * running_mean_[c] + momentum_ * md[c];
          running_var_[c] =
              (1.f - momentum_) * running_var_[c] + momentum_ * vd[c];
        }
      });
    }
    return add(mul(norm, gamma_), beta_);
  }
  // Degenerate single-row batch: use running statistics. Inside a
  // data-parallel step those may still lack earlier samples' updates.
  if (training_ && detail::installed_grad_sink() != nullptr)
    throw std::logic_error(
        "BatchNorm1d: single-row training forward inside a data-parallel "
        "step");
  std::vector<float> inv_std(static_cast<std::size_t>(num_features_));
  for (std::int64_t c = 0; c < num_features_; ++c)
    inv_std[static_cast<std::size_t>(c)] =
        1.f / std::sqrt(running_var_[static_cast<std::size_t>(c)] + eps_);
  Tensor mean_t = Tensor::from_vector(
      {num_features_},
      std::vector<float>(running_mean_.begin(), running_mean_.end()));
  Tensor inv_t = Tensor::from_vector({num_features_}, std::move(inv_std));
  Tensor norm = mul(sub(x, mean_t), inv_t);
  return add(mul(norm, gamma_), beta_);
}

Tensor apply_activation(const Tensor& x, Activation act) {
  switch (act) {
    case Activation::None: return x;
    case Activation::Relu: return relu(x);
    case Activation::LeakyRelu: return leaky_relu(x);
  }
  return x;
}

Mlp::Mlp(std::vector<std::int64_t> dims, Rng& rng, Activation hidden_act,
         Activation final_act, bool batch_norm)
    : hidden_act_(hidden_act), final_act_(final_act) {
  if (dims.size() < 2)
    throw std::invalid_argument("Mlp: need at least {in, out} dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    linears_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    const bool is_last = (i + 2 == dims.size());
    if (batch_norm && !is_last)
      norms_.push_back(std::make_unique<BatchNorm1d>(dims[i + 1]));
  }
}

Tensor Mlp::forward(const Tensor& x) {
  Tensor h = x;
  for (std::size_t i = 0; i < linears_.size(); ++i) {
    h = linears_[i]->forward(h);
    const bool is_last = (i + 1 == linears_.size());
    if (!is_last && i < norms_.size()) h = norms_[i]->forward(h);
    h = apply_activation(h, is_last ? final_act_ : hidden_act_);
  }
  return h;
}

std::vector<Tensor> Mlp::parameters() const {
  std::vector<Tensor> out;
  for (const auto& l : linears_)
    for (auto& p : l->parameters()) out.push_back(p);
  for (const auto& n : norms_)
    for (auto& p : n->parameters()) out.push_back(p);
  return out;
}

void Mlp::set_training(bool training) {
  Module::set_training(training);
  for (auto& l : linears_) l->set_training(training);
  for (auto& n : norms_) n->set_training(training);
}

double overall_accuracy(std::span<const std::int64_t> pred,
                        std::span<const std::int64_t> label) {
  if (pred.size() != label.size())
    throw std::invalid_argument("overall_accuracy: size mismatch");
  if (pred.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == label[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(pred.size());
}

double balanced_accuracy(std::span<const std::int64_t> pred,
                         std::span<const std::int64_t> label,
                         std::int64_t num_classes) {
  if (pred.size() != label.size())
    throw std::invalid_argument("balanced_accuracy: size mismatch");
  if (num_classes <= 0)
    throw std::invalid_argument("balanced_accuracy: bad num_classes");
  std::vector<std::int64_t> correct(static_cast<std::size_t>(num_classes), 0);
  std::vector<std::int64_t> total(static_cast<std::size_t>(num_classes), 0);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const auto y = label[i];
    if (y < 0 || y >= num_classes)
      throw std::invalid_argument("balanced_accuracy: label out of range");
    ++total[static_cast<std::size_t>(y)];
    if (pred[i] == y) ++correct[static_cast<std::size_t>(y)];
  }
  double acc = 0.0;
  std::int64_t present = 0;
  for (std::int64_t c = 0; c < num_classes; ++c) {
    if (total[static_cast<std::size_t>(c)] == 0) continue;
    ++present;
    acc += static_cast<double>(correct[static_cast<std::size_t>(c)]) /
           static_cast<double>(total[static_cast<std::size_t>(c)]);
  }
  return present > 0 ? acc / static_cast<double>(present) : 0.0;
}

std::vector<float> DataParallelStep::run(
    std::int64_t n, const std::function<Tensor(std::int64_t)>& sample_loss) {
  if (detail::installed_grad_sink() != nullptr)
    throw std::logic_error("DataParallelStep::run called from inside a sample");
  const auto count = static_cast<std::size_t>(std::max<std::int64_t>(n, 0));
  if (sinks_.size() < count) sinks_.resize(count);
  std::vector<float> losses(count);
  try {
    core::parallel_invoke(n, [&](std::int64_t i) {
      const auto u = static_cast<std::size_t>(i);
      detail::GradSinkGuard divert(sinks_[u]);
      Tensor loss = sample_loss(i);
      loss.backward();
      losses[u] = loss.item();
    });
  } catch (...) {
    for (detail::GradSink& sink : sinks_) sink.clear();
    throw;
  }
  for (std::size_t i = 0; i < count; ++i) sinks_[i].replay();
  return losses;
}

}  // namespace hg::nn
