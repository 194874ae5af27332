#include "baselines/baselines.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/check.hpp"
#include "tensor/optim.hpp"

namespace hg::baselines {

namespace {

constexpr char kCheckScope[] = "baselines: ";

}  // namespace

DgcnnConfig DgcnnConfig::scaled(std::int64_t num_classes, std::int64_t k) {
  DgcnnConfig c;
  c.dims = {24, 24, 32, 48};
  c.emb = 128;
  c.head_hidden1 = 64;
  c.head_hidden2 = 32;
  c.k = k;
  c.num_classes = num_classes;
  return c;
}

Dgcnn::Dgcnn(DgcnnConfig cfg, Rng& rng) : cfg_(std::move(cfg)) {
  HG_CHECK(cfg_.dims.size() >= 1, "Dgcnn: need at least one EdgeConv layer");
  HG_CHECK(cfg_.reuse_from_layer >= 1 &&
               cfg_.reuse_from_layer <=
                   static_cast<std::int64_t>(cfg_.dims.size()),
           "Dgcnn: reuse_from_layer must be in [1, num_layers]");
  std::int64_t in = 3;
  std::int64_t concat_dim = 0;
  for (auto out : cfg_.dims) {
    convs_.push_back(std::make_unique<gnn::EdgeConv>(in, out, rng));
    concat_dim += out;
    in = out;
  }
  emb_lin_ = std::make_unique<nn::Linear>(concat_dim, cfg_.emb, rng);
  emb_bn_ = std::make_unique<nn::BatchNorm1d>(cfg_.emb);
  head1_ = std::make_unique<nn::Linear>(cfg_.emb, cfg_.head_hidden1, rng);
  head2_ =
      std::make_unique<nn::Linear>(cfg_.head_hidden1, cfg_.head_hidden2, rng);
  head3_ =
      std::make_unique<nn::Linear>(cfg_.head_hidden2, cfg_.num_classes, rng);
}

Tensor Dgcnn::forward(const Tensor& points) {
  HG_CHECK(points.dim() == 2 && points.shape()[1] == 3,
           "Dgcnn: points must be [n, 3]");
  const std::int64_t n = points.shape()[0];
  HG_CHECK(n > 1, "Dgcnn: need at least 2 points");
  const std::int64_t kk = std::min<std::int64_t>(cfg_.k, n - 1);

  Tensor h = points;
  graph::EdgeList g;
  std::vector<Tensor> layer_outs;
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    if (static_cast<std::int64_t>(l) < cfg_.reuse_from_layer) {
      // Dynamic graph: layer 1 over raw points, deeper over features
      // (detached — graph construction is not differentiable).
      if (l == 0) {
        g = graph::knn_graph(points.data(), n, kk);
      } else {
        Tensor feats = h.detach();
        g = graph::knn_graph_features(feats.data(), n, feats.shape()[1], kk);
      }
    }
    h = convs_[l]->forward(h, g);
    layer_outs.push_back(h);
  }
  Tensor cat = concat(layer_outs, 1);
  Tensor emb = leaky_relu(emb_bn_->forward(emb_lin_->forward(cat)), 0.2f);
  Tensor pooled = gnn::global_max_pool(emb);
  Tensor z = leaky_relu(head1_->forward(pooled), 0.2f);
  z = leaky_relu(head2_->forward(z), 0.2f);
  return head3_->forward(z);
}

std::vector<Tensor> Dgcnn::parameters() const {
  std::vector<Tensor> out;
  for (const auto& c : convs_)
    for (auto& p : c->parameters()) out.push_back(p);
  for (auto& p : emb_lin_->parameters()) out.push_back(p);
  for (auto& p : emb_bn_->parameters()) out.push_back(p);
  for (auto& p : head1_->parameters()) out.push_back(p);
  for (auto& p : head2_->parameters()) out.push_back(p);
  for (auto& p : head3_->parameters()) out.push_back(p);
  return out;
}

void Dgcnn::set_training(bool training) {
  Module::set_training(training);
  for (auto& c : convs_) c->set_training(training);
  emb_bn_->set_training(training);
}

std::vector<const nn::BatchNorm1d*> Dgcnn::batch_norms() const {
  std::vector<const nn::BatchNorm1d*> out;
  out.reserve(convs_.size() + 1);
  for (const auto& c : convs_) out.push_back(&c->batch_norm());
  out.push_back(emb_bn_.get());
  return out;
}

double Dgcnn::param_mb() const {
  return static_cast<double>(num_parameters()) * 4.0 / 1e6;
}

hw::Trace Dgcnn::trace(const DgcnnConfig& cfg, std::int64_t num_points) {
  HG_CHECK(num_points > 1, "Dgcnn::trace: need at least 2 points");
  const std::int64_t n = num_points;
  const std::int64_t kk = std::min<std::int64_t>(cfg.k, n - 1);
  const std::int64_t e = n * kk;
  hw::TraceBuilder tb;
  double params = 0.0;
  std::int64_t in = 3;
  std::int64_t concat_dim = 0;
  for (std::size_t l = 0; l < cfg.dims.size(); ++l) {
    const std::int64_t out = cfg.dims[l];
    if (static_cast<std::int64_t>(l) < cfg.reuse_from_layer)
      tb.knn(n, in, kk);
    tb.edge_mlp_aggregate(e, in, out);  // fused message MLP + max reduce
    tb.other(n, out, "bn_act");
    params += static_cast<double>(2 * in * out + out) + 2.0 * out;
    concat_dim += out;
    in = out;
  }
  tb.combine(n, concat_dim, cfg.emb);
  params += static_cast<double>(concat_dim * cfg.emb + cfg.emb) +
            2.0 * static_cast<double>(cfg.emb);
  tb.other(n, cfg.emb, "global_max_pool");
  tb.combine(1, cfg.emb, cfg.head_hidden1);
  tb.combine(1, cfg.head_hidden1, cfg.head_hidden2);
  tb.combine(1, cfg.head_hidden2, cfg.num_classes);
  params += static_cast<double>(cfg.emb * cfg.head_hidden1 +
                                cfg.head_hidden1 * cfg.head_hidden2 +
                                cfg.head_hidden2 * cfg.num_classes +
                                cfg.head_hidden1 + cfg.head_hidden2 +
                                cfg.num_classes);
  tb.other(1, cfg.head_hidden2, "head_act");
  tb.set_param_mb(params * 4.0 / 1e6);
  return tb.build();
}

DgcnnConfig li_optimized_config(const DgcnnConfig& base) {
  DgcnnConfig c = base;
  c.reuse_from_layer = 1;  // single sample, reused everywhere [6]
  return c;
}

TailorConfig TailorConfig::scaled(std::int64_t num_classes, std::int64_t k) {
  TailorConfig c;
  c.dim1 = 24;
  c.dim2 = 24;
  c.dim3 = 32;
  c.dim4 = 48;
  c.emb = 128;
  c.head_hidden1 = 64;
  c.head_hidden2 = 32;
  c.k = k;
  c.num_classes = num_classes;
  return c;
}

TailorGnn::TailorGnn(TailorConfig cfg, Rng& rng) : cfg_(std::move(cfg)) {
  conv1_ = std::make_unique<gnn::EdgeConv>(3, cfg_.dim1, rng);
  conv2_ = std::make_unique<gnn::EdgeConv>(cfg_.dim1, cfg_.dim2, rng);
  lin3_ = std::make_unique<nn::Linear>(cfg_.dim2, cfg_.dim3, rng);
  bn3_ = std::make_unique<nn::BatchNorm1d>(cfg_.dim3);
  lin4_ = std::make_unique<nn::Linear>(cfg_.dim3, cfg_.dim4, rng);
  bn4_ = std::make_unique<nn::BatchNorm1d>(cfg_.dim4);
  const std::int64_t concat_dim =
      cfg_.dim1 + cfg_.dim2 + cfg_.dim3 + cfg_.dim4;
  emb_lin_ = std::make_unique<nn::Linear>(concat_dim, cfg_.emb, rng);
  emb_bn_ = std::make_unique<nn::BatchNorm1d>(cfg_.emb);
  head1_ = std::make_unique<nn::Linear>(cfg_.emb, cfg_.head_hidden1, rng);
  head2_ =
      std::make_unique<nn::Linear>(cfg_.head_hidden1, cfg_.head_hidden2, rng);
  head3_ =
      std::make_unique<nn::Linear>(cfg_.head_hidden2, cfg_.num_classes, rng);
}

Tensor TailorGnn::forward(const Tensor& points) {
  HG_CHECK(points.dim() == 2 && points.shape()[1] == 3,
           "TailorGnn: points must be [n, 3]");
  const std::int64_t n = points.shape()[0];
  HG_CHECK(n > 1, "TailorGnn: need at least 2 points");
  const std::int64_t kk = std::min<std::int64_t>(cfg_.k, n - 1);

  // Single spatial graph for the whole network [7].
  graph::EdgeList g = graph::knn_graph(points.data(), n, kk);
  Tensor h1 = conv1_->forward(points, g);
  Tensor h2 = conv2_->forward(h1, g);
  // Simplified latter layers: plain per-node combines, no edge messages.
  Tensor h3 = leaky_relu(bn3_->forward(lin3_->forward(h2)), 0.2f);
  Tensor h4 = leaky_relu(bn4_->forward(lin4_->forward(h3)), 0.2f);
  Tensor cat = concat({h1, h2, h3, h4}, 1);
  Tensor emb = leaky_relu(emb_bn_->forward(emb_lin_->forward(cat)), 0.2f);
  Tensor pooled = gnn::global_max_pool(emb);
  Tensor z = leaky_relu(head1_->forward(pooled), 0.2f);
  z = leaky_relu(head2_->forward(z), 0.2f);
  return head3_->forward(z);
}

std::vector<Tensor> TailorGnn::parameters() const {
  std::vector<Tensor> out;
  auto push_all = [&out](const nn::Module& m) {
    for (auto& p : m.parameters()) out.push_back(p);
  };
  push_all(*conv1_);
  push_all(*conv2_);
  push_all(*lin3_);
  push_all(*bn3_);
  push_all(*lin4_);
  push_all(*bn4_);
  push_all(*emb_lin_);
  push_all(*emb_bn_);
  push_all(*head1_);
  push_all(*head2_);
  push_all(*head3_);
  return out;
}

void TailorGnn::set_training(bool training) {
  Module::set_training(training);
  conv1_->set_training(training);
  conv2_->set_training(training);
  bn3_->set_training(training);
  bn4_->set_training(training);
  emb_bn_->set_training(training);
}

std::vector<const nn::BatchNorm1d*> TailorGnn::batch_norms() const {
  return {&conv1_->batch_norm(), &conv2_->batch_norm(), bn3_.get(), bn4_.get(),
          emb_bn_.get()};
}

double TailorGnn::param_mb() const {
  return static_cast<double>(num_parameters()) * 4.0 / 1e6;
}

hw::Trace TailorGnn::trace(const TailorConfig& cfg, std::int64_t num_points) {
  HG_CHECK(num_points > 1, "TailorGnn::trace: need at least 2 points");
  const std::int64_t n = num_points;
  const std::int64_t kk = std::min<std::int64_t>(cfg.k, n - 1);
  const std::int64_t e = n * kk;
  hw::TraceBuilder tb;
  double params = 0.0;
  tb.knn(n, 3, kk);  // single spatial sample
  // Two full EdgeConv layers.
  tb.edge_mlp_aggregate(e, 3, cfg.dim1);
  tb.other(n, cfg.dim1, "bn_act");
  params += static_cast<double>(6 * cfg.dim1 + 3 * cfg.dim1);
  tb.edge_mlp_aggregate(e, cfg.dim1, cfg.dim2);
  tb.other(n, cfg.dim2, "bn_act");
  params += static_cast<double>(2 * cfg.dim1 * cfg.dim2 + 3 * cfg.dim2);
  // Simplified latter layers.
  tb.combine(n, cfg.dim2, cfg.dim3);
  tb.other(n, cfg.dim3, "bn_act");
  params += static_cast<double>(cfg.dim2 * cfg.dim3 + 3 * cfg.dim3);
  tb.combine(n, cfg.dim3, cfg.dim4);
  tb.other(n, cfg.dim4, "bn_act");
  params += static_cast<double>(cfg.dim3 * cfg.dim4 + 3 * cfg.dim4);
  const std::int64_t concat_dim = cfg.dim1 + cfg.dim2 + cfg.dim3 + cfg.dim4;
  tb.combine(n, concat_dim, cfg.emb);
  params += static_cast<double>(concat_dim * cfg.emb + 3 * cfg.emb);
  tb.other(n, cfg.emb, "global_max_pool");
  tb.combine(1, cfg.emb, cfg.head_hidden1);
  tb.combine(1, cfg.head_hidden1, cfg.head_hidden2);
  tb.combine(1, cfg.head_hidden2, cfg.num_classes);
  params += static_cast<double>(cfg.emb * cfg.head_hidden1 +
                                cfg.head_hidden1 * cfg.head_hidden2 +
                                cfg.head_hidden2 * cfg.num_classes +
                                cfg.head_hidden1 + cfg.head_hidden2 +
                                cfg.num_classes);
  tb.other(1, cfg.head_hidden2, "head_act");
  tb.set_param_mb(params * 4.0 / 1e6);
  return tb.build();
}

template <typename ModelT>
core::Stepper train_baseline_stepwise(ModelT& model,
                                      const pointcloud::Dataset& data,
                                      std::int64_t epochs, float lr, Rng& rng,
                                      BaselineEval* out) {
  HG_CHECK(epochs > 0, "train_baseline: epochs must be positive");
  Adam opt(model.parameters(), lr);
  model.set_training(true);
  const auto& train = data.train();
  const std::size_t batch = 8;
  nn::DataParallelStep step;
  for (std::int64_t e = 0; e < epochs; ++e) {
    auto order = pointcloud::shuffled_indices(train.size(), rng);
    for (std::size_t oi = 0; oi < order.size(); oi += batch) {
      const std::size_t n = std::min(batch, order.size() - oi);
      step.run(static_cast<std::int64_t>(n), [&](std::int64_t i) {
        const auto& s = train[order[oi + static_cast<std::size_t>(i)]];
        Tensor logits = model.forward(pointcloud::Dataset::to_tensor(s));
        const std::int64_t label[1] = {s.label};
        return cross_entropy(logits, label);
      });
      opt.step();
      opt.zero_grad();
    }
    co_await std::suspend_always{};
  }
  // Evaluate.
  NoGradGuard ng;
  model.set_training(false);
  std::vector<std::int64_t> preds, labels;
  for (const auto& s : data.test()) {
    Tensor pts = pointcloud::Dataset::to_tensor(s);
    preds.push_back(argmax_rows(model.forward(pts))[0]);
    labels.push_back(s.label);
  }
  model.set_training(true);
  out->overall_acc = nn::overall_accuracy(preds, labels);
  out->balanced_acc =
      nn::balanced_accuracy(preds, labels, data.num_classes());
}

template <typename ModelT>
BaselineEval train_baseline(ModelT& model, const pointcloud::Dataset& data,
                            std::int64_t epochs, float lr, Rng& rng) {
  BaselineEval out;
  core::Stepper run =
      train_baseline_stepwise(model, data, epochs, lr, rng, &out);
  while (run.step()) {
  }
  return out;
}

// Explicit instantiations for the two baseline model types.
template BaselineEval train_baseline<Dgcnn>(Dgcnn&, const pointcloud::Dataset&,
                                            std::int64_t, float, Rng&);
template BaselineEval train_baseline<TailorGnn>(TailorGnn&,
                                                const pointcloud::Dataset&,
                                                std::int64_t, float, Rng&);
template core::Stepper train_baseline_stepwise<Dgcnn>(
    Dgcnn&, const pointcloud::Dataset&, std::int64_t, float, Rng&,
    BaselineEval*);
template core::Stepper train_baseline_stepwise<TailorGnn>(
    TailorGnn&, const pointcloud::Dataset&, std::int64_t, float, Rng&,
    BaselineEval*);

}  // namespace hg::baselines
