// Baselines: DGCNN / Li / Tailor forward passes, trace parity with the
// calibration reference, reuse-variant cost ordering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "baselines/baselines.hpp"
#include "core/parallel.hpp"
#include "fingerprint.hpp"

namespace hg::baselines {
namespace {

Tensor random_cloud(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::rand_uniform({n, 3}, rng, -1.f, 1.f);
}

TEST(Dgcnn, ForwardShape) {
  Rng rng(1);
  Dgcnn model(DgcnnConfig::scaled(10, 6), rng);
  Tensor logits = model.forward(random_cloud(48, 2));
  EXPECT_EQ(logits.shape(), (Shape{1, 10}));
  for (float v : logits.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Dgcnn, RejectsBadInputsAndConfig) {
  Rng rng(3);
  Dgcnn model(DgcnnConfig::scaled(10, 6), rng);
  EXPECT_THROW(model.forward(Tensor::ones({10, 4})), std::invalid_argument);
  EXPECT_THROW(model.forward(Tensor::ones({1, 3})), std::invalid_argument);
  DgcnnConfig bad = DgcnnConfig::scaled(10, 6);
  bad.reuse_from_layer = 9;
  EXPECT_THROW(Dgcnn(bad, rng), std::invalid_argument);
}

TEST(Dgcnn, DefaultTraceMatchesCalibrationReference) {
  // The hw calibration anchors on dgcnn_reference_trace; the baseline's own
  // lowering must agree op-for-op so Table II DGCNN rows land on the
  // paper's numbers by construction.
  DgcnnConfig cfg;  // paper-scale defaults
  const hw::Trace mine = Dgcnn::trace(cfg, 1024);
  const hw::Trace ref = hw::dgcnn_reference_trace(1024);
  ASSERT_EQ(mine.ops.size(), ref.ops.size());
  for (std::size_t i = 0; i < mine.ops.size(); ++i) {
    EXPECT_EQ(static_cast<int>(mine.ops[i].category),
              static_cast<int>(ref.ops[i].category))
        << "op " << i;
    EXPECT_NEAR(mine.ops[i].work, ref.ops[i].work, 1e-6) << "op " << i;
  }
}

TEST(Dgcnn, ReuseVariantsReduceSampleCost) {
  DgcnnConfig cfg;
  auto sample_work = [&](std::int64_t reuse) {
    cfg.reuse_from_layer = reuse;
    return Dgcnn::trace(cfg, 512).total_work(hw::OpCategory::Sample);
  };
  // Monotone: fewer fresh KNNs, less sample work.
  EXPECT_GT(sample_work(4), sample_work(3));
  EXPECT_GT(sample_work(3), sample_work(2));
  EXPECT_GT(sample_work(2), sample_work(1));
}

TEST(Dgcnn, LiConfigIsFullReuse) {
  DgcnnConfig li = li_optimized_config(DgcnnConfig{});
  EXPECT_EQ(li.reuse_from_layer, 1);
  // Li is faster than DGCNN on every device (Table II rows).
  for (int d = 0; d < hw::kNumDevices; ++d) {
    hw::Device dev = hw::make_device(static_cast<hw::DeviceKind>(d));
    EXPECT_LT(dev.latency_ms(Dgcnn::trace(li, 1024)),
              dev.latency_ms(Dgcnn::trace(DgcnnConfig{}, 1024)))
        << dev.name();
  }
}

TEST(Dgcnn, ReuseChangesForwardResults) {
  // With graph reuse the deeper layers see a different neighbourhood.
  Rng r1(5), r2(5);
  DgcnnConfig full = DgcnnConfig::scaled(10, 6);
  DgcnnConfig reuse = li_optimized_config(full);
  Dgcnn m1(full, r1), m2(reuse, r2);
  m1.set_training(false);
  m2.set_training(false);
  Tensor cloud = random_cloud(48, 6);
  Tensor y1 = m1.forward(cloud);
  Tensor y2 = m2.forward(cloud);
  bool differs = false;
  for (std::int64_t i = 0; i < y1.numel(); ++i)
    if (std::fabs(y1.data()[i] - y2.data()[i]) > 1e-6f) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Tailor, ForwardShape) {
  Rng rng(7);
  TailorGnn model(TailorConfig::scaled(10, 6), rng);
  Tensor logits = model.forward(random_cloud(48, 8));
  EXPECT_EQ(logits.shape(), (Shape{1, 10}));
}

TEST(Tailor, FasterThanDgcnnEverywhere) {
  const hw::Trace tailor = TailorGnn::trace(TailorConfig{}, 1024);
  const hw::Trace dgcnn = Dgcnn::trace(DgcnnConfig{}, 1024);
  for (int d = 0; d < hw::kNumDevices; ++d) {
    hw::Device dev = hw::make_device(static_cast<hw::DeviceKind>(d));
    EXPECT_LT(dev.latency_ms(tailor), dev.latency_ms(dgcnn)) << dev.name();
  }
}

TEST(Tailor, SingleSampleInTrace) {
  const hw::Trace t = TailorGnn::trace(TailorConfig{}, 512);
  int samples = 0;
  for (const auto& op : t.ops)
    if (op.category == hw::OpCategory::Sample) ++samples;
  EXPECT_EQ(samples, 1);
}

TEST(Baselines, ParamFootprintsPlausible) {
  Rng rng(9);
  Dgcnn dgcnn(DgcnnConfig::scaled(10, 6), rng);
  TailorGnn tailor(TailorConfig::scaled(10, 6), rng);
  EXPECT_GT(dgcnn.param_mb(), 0.0);
  EXPECT_GT(tailor.param_mb(), 0.0);
  // Trace param accounting tracks the real module within rounding.
  EXPECT_NEAR(Dgcnn::trace(dgcnn.config(), 256).param_mb, dgcnn.param_mb(),
              0.01);
  EXPECT_NEAR(TailorGnn::trace(tailor.config(), 256).param_mb,
              tailor.param_mb(), 0.01);
}

TEST(Baselines, TrainingBeatsChance) {
  Rng rng(10);
  pointcloud::Dataset data(10, 32, 77);
  Dgcnn model(DgcnnConfig::scaled(10, 6), rng);
  BaselineEval r = train_baseline(model, data, /*epochs=*/6, 2e-3f, rng);
  EXPECT_GT(r.overall_acc, 0.25);  // chance = 0.10
}

// train_baseline leaves the same weights and running statistics at every
// pool width, and these pins hold them fixed. The 20-cloud training split
// ends each epoch on a partial batch. A Table II report hashes only the
// test accuracy, which cannot see a drifted weight or running statistic.
TEST(Baselines, TrainedStateIsPinnedAtEveryWidth) {
  for (const std::int64_t threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    core::ScopedNumThreads scoped(threads);
    pointcloud::Dataset data(3, 32, 21);
    {
      Rng rng(22);
      Dgcnn model(DgcnnConfig::scaled(10, 6), rng);
      train_baseline(model, data, /*epochs=*/2, 2e-3f, rng);
      EXPECT_EQ(trained_state_hash(model), 0xc7c1a9064715f689ull) << "dgcnn";
    }
    {
      Rng rng(23);
      TailorGnn model(TailorConfig::scaled(10, 6), rng);
      train_baseline(model, data, /*epochs=*/2, 2e-3f, rng);
      EXPECT_EQ(trained_state_hash(model), 0xfdfb55dfed51b1d3ull) << "tailor";
    }
  }
}

TEST(Baselines, GradientsFlowThroughTailor) {
  Rng rng(11);
  TailorGnn model(TailorConfig::scaled(10, 6), rng);
  Tensor logits = model.forward(random_cloud(32, 12));
  const std::int64_t label[1] = {1};
  cross_entropy(logits, label).backward();
  std::size_t with_grad = 0;
  for (auto& p : model.parameters())
    if (p.has_grad()) ++with_grad;
  EXPECT_GT(with_grad, 10u);
}

}  // namespace
}  // namespace hg::baselines
