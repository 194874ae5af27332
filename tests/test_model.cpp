// Materialised GnnModel: shapes, semantics parity with the lowering,
// skip-connect behaviour, training smoke test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/parallel.hpp"
#include "fingerprint.hpp"
#include "hgnas/model.hpp"
#include "invalid_argument_text.hpp"

namespace hg::hgnas {
namespace {

PositionGene gene(OpType op) {
  PositionGene g;
  g.op = op;
  return g;
}

Workload tiny_workload() {
  Workload w;
  w.num_points = 32;
  w.k = 6;
  w.num_classes = 10;
  return w;
}

Tensor random_cloud(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::rand_uniform({n, 3}, rng, -1.f, 1.f);
}

TEST(GnnModel, ForwardProducesLogits) {
  Rng rng(1);
  Arch a;
  PositionGene c = gene(OpType::Combine);
  c.fn.combine_dim_idx = 2;  // 32
  a.genes = {gene(OpType::Sample), c, gene(OpType::Aggregate)};
  GnnModel model(a, tiny_workload(), rng);
  Tensor logits = model.forward(random_cloud(32, 2), rng);
  EXPECT_EQ(logits.shape(), (Shape{1, 10}));
  for (float v : logits.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(GnnModel, EmptyArchThrows) {
  Rng rng(3);
  Arch a;
  EXPECT_EQ(invalid_argument_text(
                [&] { GnnModel(a, tiny_workload(), rng); }),
            "GnnModel: empty architecture");
}

TEST(GnnModel, ChannelBlowupRejected) {
  Rng rng(4);
  Arch a;
  PositionGene full = gene(OpType::Aggregate);
  full.fn.msg = gnn::MessageType::Full;  // 3d+1 growth
  a.genes.assign(12, full);
  EXPECT_THROW(GnnModel(a, tiny_workload(), rng), std::invalid_argument);
}

TEST(GnnModel, ParamCountMatchesLowering) {
  Rng rng(5);
  Arch a;
  PositionGene c1 = gene(OpType::Combine);
  c1.fn.combine_dim_idx = 3;  // 64
  PositionGene agg = gene(OpType::Aggregate);
  agg.fn.msg = gnn::MessageType::TargetRel;
  a.genes = {gene(OpType::Sample), c1, agg};
  const Workload w = tiny_workload();
  GnnModel model(a, w, rng);
  // The lowering's analytic param count must match the real model.
  EXPECT_NEAR(model.param_mb(), arch_param_mb(a, w), 1e-9);
}

TEST(GnnModel, WrongInputShapeThrows) {
  Rng rng(6);
  Arch a;
  a.genes = {gene(OpType::Aggregate)};
  GnnModel model(a, tiny_workload(), rng);
  EXPECT_EQ(invalid_argument_text(
                [&] { model.forward(Tensor::ones({32, 4}), rng); }),
            "GnnModel: forward: points must be [n, 3], got [32, 4]");
  EXPECT_EQ(invalid_argument_text(
                [&] { model.forward(Tensor::ones({1, 3}), rng); }),
            "GnnModel: forward: need at least 2 points");
}

TEST(GnnModel, SkipConnectChangesOutputWhenDimsMatch) {
  Rng rng(7);
  PositionGene c = gene(OpType::Combine);
  c.fn.combine_dim_idx = 2;
  PositionGene skip = gene(OpType::Connect);
  skip.fn.connect = ConnectFunc::SkipConnect;
  PositionGene id = gene(OpType::Connect);
  id.fn.connect = ConnectFunc::Identity;

  // Checkpoint at the combine output (identity), another combine to the
  // same width, then skip-add. With identity instead of skip the result
  // must differ.
  PositionGene c2 = c;
  Arch with_skip;
  with_skip.genes = {c, id, c2, skip};
  Arch with_id;
  with_id.genes = {c, id, c2, id};

  Rng m1(42), m2(42);  // identical init for both models
  GnnModel a(with_skip, tiny_workload(), m1);
  GnnModel b(with_id, tiny_workload(), m2);
  a.set_training(false);
  b.set_training(false);
  Tensor cloud = random_cloud(32, 8);
  Rng fwd1(1), fwd2(1);
  Tensor ya = a.forward(cloud, fwd1);
  Tensor yb = b.forward(cloud, fwd2);
  bool differs = false;
  for (std::int64_t i = 0; i < ya.numel(); ++i)
    if (std::fabs(ya.data()[i] - yb.data()[i]) > 1e-6f) differs = true;
  EXPECT_TRUE(differs);
}

TEST(GnnModel, SkipConnectDegradestoIdentityOnDimMismatch) {
  Rng rng(9);
  PositionGene c32 = gene(OpType::Combine);
  c32.fn.combine_dim_idx = 2;  // 32
  PositionGene c64 = gene(OpType::Combine);
  c64.fn.combine_dim_idx = 3;  // 64
  PositionGene skip = gene(OpType::Connect);
  skip.fn.connect = ConnectFunc::SkipConnect;
  PositionGene id = gene(OpType::Connect);
  id.fn.connect = ConnectFunc::Identity;

  // checkpoint is 32-wide, current is 64-wide: skip must be a no-op.
  Arch arch_skip;
  arch_skip.genes = {c32, id, c64, skip};
  Arch arch_id;
  arch_id.genes = {c32, id, c64, id};

  Rng m1(11), m2(11);
  GnnModel a(arch_skip, tiny_workload(), m1);
  GnnModel b(arch_id, tiny_workload(), m2);
  a.set_training(false);
  b.set_training(false);
  Tensor cloud = random_cloud(32, 10);
  Rng fwd1(1), fwd2(1);
  Tensor ya = a.forward(cloud, fwd1);
  Tensor yb = b.forward(cloud, fwd2);
  for (std::int64_t i = 0; i < ya.numel(); ++i)
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(GnnModel, DeterministicInEvalModeWithKnnOnly) {
  Rng rng(12);
  Arch a;
  PositionGene s = gene(OpType::Sample);
  s.fn.sample = SampleFunc::Knn;
  PositionGene agg = gene(OpType::Aggregate);
  a.genes = {s, agg};
  GnnModel model(a, tiny_workload(), rng);
  model.set_training(false);
  Tensor cloud = random_cloud(32, 13);
  Rng f1(1), f2(2);  // different rngs must not matter for KNN-only archs
  Tensor y1 = model.forward(cloud, f1);
  Tensor y2 = model.forward(cloud, f2);
  for (std::int64_t i = 0; i < y1.numel(); ++i)
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
}

TEST(GnnModel, GradientsReachAllCombineLayers) {
  Rng rng(14);
  PositionGene c = gene(OpType::Combine);
  c.fn.combine_dim_idx = 1;
  Arch a;
  a.genes = {c, gene(OpType::Aggregate), c};
  GnnModel model(a, tiny_workload(), rng);
  Tensor logits = model.forward(random_cloud(32, 15), rng);
  const std::int64_t label[1] = {3};
  cross_entropy(logits, label).backward();
  std::size_t with_grad = 0;
  for (auto& p : model.parameters())
    if (p.has_grad()) ++with_grad;
  EXPECT_GT(with_grad, 4u);
}

TEST(GnnModel, TrainingImprovesOverChance) {
  // A small DGCNN-like arch on a tiny 3-class problem should beat chance
  // comfortably after a few epochs.
  Rng rng(16);
  PositionGene s = gene(OpType::Sample);
  PositionGene agg = gene(OpType::Aggregate);
  agg.fn.msg = gnn::MessageType::TargetRel;
  agg.fn.aggr = AggrType::Max;
  PositionGene c = gene(OpType::Combine);
  c.fn.combine_dim_idx = 2;  // 32
  Arch a;
  a.genes = {s, agg, c, agg, c};

  Workload w = tiny_workload();
  pointcloud::Dataset data(12, w.num_points, 99);
  GnnModel model(a, w, rng);
  TrainConfig cfg;
  cfg.epochs = 25;
  cfg.batch_size = 8;
  cfg.lr = 2e-3f;
  EvalResult r = train_model(model, data, cfg, rng);
  // Robust learning signals on a tiny dataset: the model must fit its
  // training split well and stay above chance (0.10) on the test split.
  EvalResult train_fit =
      evaluate_model(model, data.train(), data.num_classes(), rng);
  EXPECT_GT(train_fit.overall_acc, 0.6);
  EXPECT_GE(r.overall_acc, 0.15);  // clearly above 10% chance
}

// train_model leaves the same weights and running statistics at every
// pool width. The second Sample is Random, so every training forward draws
// a graph from its own seeded stream.
TEST(GnnModel, TrainedStateIsPinnedAtEveryWidth) {
  PositionGene random_sample = gene(OpType::Sample);
  random_sample.fn.sample = SampleFunc::Random;
  PositionGene agg = gene(OpType::Aggregate);
  agg.fn.msg = gnn::MessageType::TargetRel;
  agg.fn.aggr = AggrType::Max;
  PositionGene c = gene(OpType::Combine);
  c.fn.combine_dim_idx = 1;  // 16
  Arch a;
  a.genes = {gene(OpType::Sample), agg, c, random_sample, agg, c};
  const Workload w = tiny_workload();
  pointcloud::Dataset data(3, w.num_points, 31);
  TrainConfig cfg;
  cfg.epochs = 2;
  for (const std::int64_t threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    core::ScopedNumThreads scoped(threads);
    Rng rng(32);
    GnnModel model(a, w, rng);
    train_model(model, data, cfg, rng);
    EXPECT_EQ(trained_state_hash(model), 0x9c750046b61854b1ull);
  }
}

TEST(EvaluateModel, MetricsInRange) {
  Rng rng(17);
  Arch a;
  a.genes = {gene(OpType::Aggregate)};
  Workload w = tiny_workload();
  GnnModel model(a, w, rng);
  pointcloud::Dataset data(3, w.num_points, 5);
  EvalResult r = evaluate_model(model, data.test(), w.num_classes, rng);
  EXPECT_GE(r.overall_acc, 0.0);
  EXPECT_LE(r.overall_acc, 1.0);
  EXPECT_GE(r.balanced_acc, 0.0);
  EXPECT_LE(r.balanced_acc, 1.0);
  EXPECT_GT(r.mean_loss, 0.0);
}

}  // namespace
}  // namespace hg::hgnas
