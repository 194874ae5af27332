#include "hgnas/supernet.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/check.hpp"

namespace hg::hgnas {

namespace {

constexpr char kCheckScope[] = "SuperNet: ";

}  // namespace

SuperNet::SuperNet(const SpaceConfig& space, const SupernetConfig& cfg,
                   Rng& rng)
    : space_(space), cfg_(cfg) {
  HG_CHECK(space_.num_positions > 0, "num_positions must be positive");
  HG_CHECK(cfg_.hidden > 0, "hidden width must be positive");
  const std::int64_t H = cfg_.hidden;
  input_proj_ = std::make_unique<nn::Linear>(3, H, rng);
  const auto P = static_cast<std::size_t>(space_.num_positions);
  combine_in_.resize(P);
  combine_out_.resize(P);
  aggr_align_.resize(P);
  for (std::size_t p = 0; p < P; ++p) {
    combine_in_[p].resize(static_cast<std::size_t>(kNumCombineDims));
    combine_out_[p].resize(static_cast<std::size_t>(kNumCombineDims));
    for (std::size_t c = 0; c < static_cast<std::size_t>(kNumCombineDims);
         ++c) {
      const std::int64_t dim = kCombineDims[c];
      combine_in_[p][c] = std::make_unique<nn::Linear>(H, dim, rng);
      combine_out_[p][c] = std::make_unique<nn::Linear>(dim, H, rng);
    }
    aggr_align_[p].resize(static_cast<std::size_t>(gnn::kNumMessageTypes));
    for (std::size_t m = 0; m < static_cast<std::size_t>(gnn::kNumMessageTypes);
         ++m) {
      const std::int64_t md =
          gnn::message_dim(static_cast<gnn::MessageType>(m), H);
      aggr_align_[p][m] = std::make_unique<nn::Linear>(md, H, rng);
    }
  }
  head1_ = std::make_unique<nn::Linear>(H, cfg_.head_hidden, rng);
  head2_ = std::make_unique<nn::Linear>(cfg_.head_hidden, cfg_.num_classes,
                                        rng);
}

Tensor SuperNet::forward(const Arch& arch, const Tensor& points, Rng& rng) {
  HG_CHECK(arch.num_positions() == space_.num_positions,
           "architecture has " + std::to_string(arch.num_positions()) +
               " positions, supernet expects " +
               std::to_string(space_.num_positions));
  HG_CHECK(points.dim() == 2 && points.shape()[1] == 3,
           "points must be [n, 3]");
  const std::int64_t n = points.shape()[0];
  HG_CHECK(n > 1, "need at least 2 points");
  const std::int64_t kk = std::min<std::int64_t>(cfg_.k, n - 1);

  Tensor h = leaky_relu(input_proj_->forward(points), 0.2f);
  Tensor skip = h;
  graph::EdgeList g;
  bool graph_built = false, graph_fresh = false;
  const std::vector<bool> dead = dead_sample_mask(arch);

  auto ensure_graph = [&]() {
    if (!graph_built) {
      g = graph::knn_graph(points.data(), n, kk);
      graph_built = true;
      graph_fresh = true;
    }
  };

  for (std::size_t p = 0; p < arch.genes.size(); ++p) {
    const auto& gene = arch.genes[p];
    switch (gene.op) {
      case OpType::Sample:
        if (!graph_fresh && !dead[p]) {
          if (gene.fn.sample == SampleFunc::Knn) {
            // Detached features: graph construction is non-differentiable.
            Tensor feats = h.detach();
            g = graph::knn_graph_features(feats.data(), n, feats.shape()[1],
                                          kk);
          } else {
            g = graph::random_graph(n, kk, rng);
          }
          graph_built = true;
          graph_fresh = true;
        }
        break;
      case OpType::Aggregate: {
        ensure_graph();
        Tensor agg = gnn::aggregate(h, g, gene.fn.msg,
                                    to_reduce(gene.fn.aggr));
        h = aggr_align_[p][static_cast<std::size_t>(gene.fn.msg)]->forward(
            agg);
        graph_fresh = false;
        break;
      }
      case OpType::Combine: {
        const auto c = static_cast<std::size_t>(gene.fn.combine_dim_idx);
        Tensor z = leaky_relu(combine_in_[p][c]->forward(h), 0.2f);
        h = combine_out_[p][c]->forward(z);
        graph_fresh = false;
        break;
      }
      case OpType::Connect:
        if (gene.fn.connect == ConnectFunc::SkipConnect) {
          h = add(h, skip);
          graph_fresh = false;
        }
        skip = h;
        break;
    }
  }

  Tensor pooled = gnn::global_max_pool(h);
  Tensor z = leaky_relu(head1_->forward(pooled), 0.2f);
  return head2_->forward(z);
}

std::vector<Tensor> SuperNet::parameters() const {
  std::vector<Tensor> out;
  auto push = [&out](const nn::Linear& l) {
    for (auto& p : l.parameters()) out.push_back(p);
  };
  push(*input_proj_);
  for (std::size_t p = 0; p < combine_in_.size(); ++p) {
    for (auto& l : combine_in_[p]) push(*l);
    for (auto& l : combine_out_[p]) push(*l);
    for (auto& l : aggr_align_[p]) push(*l);
  }
  push(*head1_);
  push(*head2_);
  return out;
}

void SuperNet::set_training(bool training) { Module::set_training(training); }

double SuperNet::train_epoch(const std::vector<pointcloud::Sample>& train,
                             const std::function<Arch(Rng&)>& sampler,
                             Adam& opt, std::int64_t batch_size, Rng& rng) {
  double mean_loss = 0.0;
  core::Stepper epoch =
      train_epoch_stepwise(train, sampler, opt, batch_size, rng, &mean_loss);
  while (epoch.step()) {
  }
  return mean_loss;
}

core::Stepper SuperNet::train_epoch_stepwise(
    const std::vector<pointcloud::Sample>& train,
    std::function<Arch(Rng&)> sampler, Adam& opt, std::int64_t batch_size,
    Rng& rng, double* mean_loss) {
  HG_CHECK(!train.empty(), "train_epoch: empty split");
  HG_CHECK(batch_size > 0, "train_epoch: batch_size must be positive");
  weight_version_.fetch_add(1, std::memory_order_acq_rel);
  set_training(true);
  auto order = pointcloud::shuffled_indices(train.size(), rng);
  double loss_sum = 0.0;

  // Paths and per-sample RNG seeds come serially off the main stream; each
  // mini-batch's forward and backward passes then run across the pool, and
  // the step applies their gradients in sample order (nn::DataParallelStep),
  // so the result is the same at every pool width.
  struct DrawnSample {
    std::size_t index = 0;      // into `train`
    Arch path;
    std::uint64_t seed = 0;     // private stream for Random-sample ops
  };
  nn::DataParallelStep step;
  std::size_t oi = 0;
  while (oi < order.size()) {
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(batch_size), order.size() - oi);
    std::vector<DrawnSample> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].index = order[oi + i];
      batch[i].path = sampler(rng);
      batch[i].seed = rng.next();
    }
    const std::vector<float> losses =
        step.run(static_cast<std::int64_t>(n), [&](std::int64_t i) {
          const DrawnSample& ds = batch[static_cast<std::size_t>(i)];
          const auto& s = train[ds.index];
          Rng sample_rng(ds.seed);
          Tensor logits = forward(ds.path, pointcloud::Dataset::to_tensor(s),
                                  sample_rng);
          const std::int64_t label[1] = {s.label};
          return cross_entropy(logits, label);
        });
    for (const float loss : losses) loss_sum += loss;
    opt.step();
    opt.zero_grad();
    oi += n;
    co_await std::suspend_always{};
  }
  *mean_loss = loss_sum / static_cast<double>(train.size());
}

AccuracyProbe SuperNet::begin_probe(Arch arch,
                                    const std::vector<pointcloud::Sample>& val,
                                    std::int64_t max_samples, Rng rng) {
  HG_CHECK(!val.empty(), "evaluate: empty split");
  AccuracyProbe probe{std::move(arch), rng};
  probe.count = std::min<std::size_t>(
      val.size(), static_cast<std::size_t>(
                      max_samples > 0 ? max_samples
                                      : static_cast<std::int64_t>(val.size())));
  return probe;
}

void SuperNet::advance_probe(AccuracyProbe& probe,
                             const std::vector<pointcloud::Sample>& val) {
  NoGradGuard ng;
  const pointcloud::Sample& s = val[probe.next++];
  Tensor pts = pointcloud::Dataset::to_tensor(s);
  Tensor logits = forward(probe.arch, pts, probe.rng);
  if (argmax_rows(logits)[0] == s.label) ++probe.correct;
}

void SuperNet::reinitialize(Rng& rng) {
  weight_version_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& p : parameters()) {
    // Re-draw Kaiming weights / zero biases in place, preserving handles
    // held by optimisers created afterwards.
    auto data = p.data();
    if (p.dim() == 2) {
      const float stddev =
          std::sqrt(2.f / static_cast<float>(p.shape()[0]));
      for (auto& v : data) v = rng.normal(0.f, stddev);
    } else {
      for (auto& v : data) v = 0.f;
    }
    p.zero_grad();
  }
}

}  // namespace hg::hgnas
