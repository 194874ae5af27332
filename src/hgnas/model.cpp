#include "hgnas/model.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/check.hpp"
#include "tensor/optim.hpp"

namespace hg::hgnas {

namespace {

constexpr char kCheckScope[] = "GnnModel: ";

constexpr std::int64_t kMaxChannels = 8192;  // guard against Full-message blowup

}  // namespace

GnnModel::GnnModel(Arch arch, Workload workload, Rng& rng)
    : arch_(std::move(arch)), workload_(workload) {
  HG_CHECK(!arch_.genes.empty(), "empty architecture");
  const auto flow = channel_flow(arch_, workload_);
  for (auto d : flow)
    HG_CHECK(d > 0 && d <= kMaxChannels,
             "channel count " + std::to_string(d) +
                 " out of range (aggregate message blowup?)");

  combine_lin_.resize(arch_.genes.size());
  combine_bn_.resize(arch_.genes.size());
  for (std::size_t i = 0; i < arch_.genes.size(); ++i) {
    const auto& g = arch_.genes[i];
    if (g.op == OpType::Combine) {
      const std::int64_t in = flow[i], out = g.fn.combine_dim();
      combine_lin_[i] = std::make_unique<nn::Linear>(in, out, rng);
      combine_bn_[i] = std::make_unique<nn::BatchNorm1d>(out);
    }
  }
  const std::int64_t d_final = flow.back();
  head1_ = std::make_unique<nn::Linear>(d_final, 128, rng);
  head2_ = std::make_unique<nn::Linear>(128, workload_.num_classes, rng);
}

Tensor GnnModel::forward(const Tensor& points, Rng& rng) {
  HG_CHECK(points.dim() == 2 && points.shape()[1] == workload_.in_dim,
           "forward: points must be [n, " + std::to_string(workload_.in_dim) +
               "], got " + shape_to_string(points.shape()));
  const std::int64_t n = points.shape()[0];
  HG_CHECK(n > 1, "forward: need at least 2 points");
  const std::int64_t kk = std::min<std::int64_t>(workload_.k, n - 1);

  Tensor h = points;
  Tensor skip = h;
  graph::EdgeList g;
  bool graph_built = false, graph_fresh = false;
  const std::vector<bool> dead = dead_sample_mask(arch_);

  auto ensure_graph = [&]() {
    if (!graph_built) {
      g = graph::knn_graph(points.data(), n, kk);
      graph_built = true;
      graph_fresh = true;
    }
  };

  for (std::size_t i = 0; i < arch_.genes.size(); ++i) {
    const auto& gene = arch_.genes[i];
    switch (gene.op) {
      case OpType::Sample:
        if (!graph_fresh && !dead[i]) {
          if (gene.fn.sample == SampleFunc::Knn) {
            g = graph::knn_graph_features(h.data(), n, h.shape()[1], kk);
          } else {
            g = graph::random_graph(n, kk, rng);
          }
          graph_built = true;
          graph_fresh = true;
        }
        break;
      case OpType::Aggregate:
        ensure_graph();
        h = gnn::aggregate(h, g, gene.fn.msg, to_reduce(gene.fn.aggr));
        graph_fresh = false;
        break;
      case OpType::Combine:
        h = combine_lin_[i]->forward(h);
        h = combine_bn_[i]->forward(h);
        h = leaky_relu(h, 0.2f);
        graph_fresh = false;
        break;
      case OpType::Connect:
        if (gene.fn.connect == ConnectFunc::SkipConnect &&
            skip.shape() == h.shape()) {
          h = add(h, skip);
          graph_fresh = false;
        }
        skip = h;  // both variants record a new checkpoint
        break;
    }
  }

  Tensor pooled = gnn::global_max_pool(h);  // [1, d]
  Tensor z = leaky_relu(head1_->forward(pooled), 0.2f);
  return head2_->forward(z);
}

std::vector<Tensor> GnnModel::parameters() const {
  std::vector<Tensor> out;
  for (const auto& l : combine_lin_)
    if (l)
      for (auto& p : l->parameters()) out.push_back(p);
  for (const auto& b : combine_bn_)
    if (b)
      for (auto& p : b->parameters()) out.push_back(p);
  for (auto& p : head1_->parameters()) out.push_back(p);
  for (auto& p : head2_->parameters()) out.push_back(p);
  return out;
}

void GnnModel::set_training(bool training) {
  Module::set_training(training);
  for (auto& l : combine_lin_)
    if (l) l->set_training(training);
  for (auto& b : combine_bn_)
    if (b) b->set_training(training);
  head1_->set_training(training);
  head2_->set_training(training);
}

std::vector<const nn::BatchNorm1d*> GnnModel::batch_norms() const {
  std::vector<const nn::BatchNorm1d*> out;
  for (const auto& b : combine_bn_)
    if (b) out.push_back(b.get());
  return out;
}

double GnnModel::param_mb() const {
  return static_cast<double>(num_parameters()) * 4.0 / 1e6;
}

core::Stepper train_model_stepwise(GnnModel& model,
                                   const pointcloud::Dataset& data,
                                   TrainConfig cfg, Rng& rng,
                                   EvalResult* out) {
  HG_CHECK(cfg.epochs > 0 && cfg.batch_size > 0, "train_model: bad config");
  Adam opt(model.parameters(), cfg.lr, 0.9f, 0.999f, 1e-8f,
           cfg.weight_decay);
  const auto& train = data.train();
  const std::int64_t total_steps =
      cfg.epochs * static_cast<std::int64_t>(train.size());
  std::int64_t step = 0;

  model.set_training(true);
  // Each sample's seed comes off `rng` in sample order before the batch
  // fans out; its forward draws Random-sample graphs from its own stream.
  const auto batch = static_cast<std::size_t>(cfg.batch_size);
  nn::DataParallelStep parallel_step;
  std::vector<std::uint64_t> seeds;
  for (std::int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    auto order = pointcloud::shuffled_indices(train.size(), rng);
    double epoch_loss = 0.0;
    for (std::size_t oi = 0; oi < order.size(); oi += batch) {
      const std::size_t n = std::min(batch, order.size() - oi);
      seeds.resize(n);
      for (std::uint64_t& seed : seeds) seed = rng.next();
      const std::vector<float> losses = parallel_step.run(
          static_cast<std::int64_t>(n), [&](std::int64_t i) {
            const auto u = static_cast<std::size_t>(i);
            const auto& s = train[order[oi + u]];
            Rng sample_rng(seeds[u]);
            Tensor logits =
                model.forward(pointcloud::Dataset::to_tensor(s), sample_rng);
            const std::int64_t label[1] = {s.label};
            return cross_entropy(logits, label);
          });
      for (const float loss : losses) epoch_loss += loss;
      step += static_cast<std::int64_t>(n);
      if (cfg.cosine_schedule)
        opt.set_lr(cosine_lr(cfg.lr, cfg.lr * 0.01f, step, total_steps));
      opt.step();
      opt.zero_grad();
    }
    if (cfg.log_every > 0 && (epoch + 1) % cfg.log_every == 0) {
      std::printf("  epoch %3lld  loss %.4f\n",
                  static_cast<long long>(epoch + 1),
                  epoch_loss / static_cast<double>(train.size()));
    }
    co_await std::suspend_always{};
  }
  *out = evaluate_model(model, data.test(), data.num_classes(), rng);
}

EvalResult train_model(GnnModel& model, const pointcloud::Dataset& data,
                       const TrainConfig& cfg, Rng& rng) {
  EvalResult out;
  core::Stepper run = train_model_stepwise(model, data, cfg, rng, &out);
  while (run.step()) {
  }
  return out;
}

EvalResult evaluate_model(GnnModel& model,
                          const std::vector<pointcloud::Sample>& samples,
                          std::int64_t num_classes, Rng& rng) {
  NoGradGuard ng;
  model.set_training(false);
  std::vector<std::int64_t> preds, labels;
  double loss_sum = 0.0;
  for (const auto& s : samples) {
    Tensor pts = pointcloud::Dataset::to_tensor(s);
    Tensor logits = model.forward(pts, rng);
    const std::int64_t label[1] = {s.label};
    loss_sum += cross_entropy(logits, label).item();
    preds.push_back(argmax_rows(logits)[0]);
    labels.push_back(s.label);
  }
  model.set_training(true);
  EvalResult r;
  r.overall_acc = nn::overall_accuracy(preds, labels);
  r.balanced_acc = nn::balanced_accuracy(preds, labels, num_classes);
  r.mean_loss = samples.empty()
                    ? 0.0
                    : loss_sum / static_cast<double>(samples.size());
  return r;
}

}  // namespace hg::hgnas
