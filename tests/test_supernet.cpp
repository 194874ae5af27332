// Weight-sharing supernet: path forward, SPOS training, evaluation,
// re-initialisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include <vector>

#include "api/engine.hpp"
#include "core/parallel.hpp"
#include "fingerprint.hpp"
#include "hgnas/supernet.hpp"
#include "invalid_argument_text.hpp"

namespace hg::hgnas {
namespace {

SpaceConfig small_space() {
  SpaceConfig s;
  s.num_positions = 6;
  return s;
}

SupernetConfig small_config() {
  SupernetConfig c;
  c.hidden = 16;
  c.k = 6;
  c.num_classes = 10;
  c.head_hidden = 32;
  return c;
}

TEST(SuperNet, ForwardAnyRandomPath) {
  Rng rng(1);
  SuperNet net(small_space(), small_config(), rng);
  pointcloud::Dataset data(2, 32, 7);
  Tensor pts = pointcloud::Dataset::to_tensor(data.train()[0]);
  for (int i = 0; i < 20; ++i) {
    Arch a = random_arch(small_space(), rng);
    Tensor logits = net.forward(a, pts, rng);
    EXPECT_EQ(logits.shape(), (Shape{1, 10}));
    for (float v : logits.data()) EXPECT_TRUE(std::isfinite(v));
  }
}

// The no-grad forward skips every backward capture; that must change no
// value. Over many paths (every sample, aggregate and combine choice) and
// at both the serial and the pooled kernel widths, the logits under
// NoGradGuard equal the taped forward's bit for bit.
TEST(SuperNet, NoGradForwardMatchesTapedForwardBitForBit) {
  pointcloud::Dataset data(2, 32, 7);
  for (const std::int64_t threads : {1, 2}) {
    core::ScopedNumThreads pool(threads);
    Rng rng(41);
    SuperNet net(small_space(), small_config(), rng);
    for (int i = 0; i < 200; ++i) {
      const Arch a = random_arch(small_space(), rng);
      const Tensor pts = pointcloud::Dataset::to_tensor(
          data.train()[static_cast<std::size_t>(i) % data.train().size()]);
      Rng taped_rng = rng;  // random-graph sampling draws the same edges
      Rng inferred_rng = rng;
      const Tensor taped = net.forward(a, pts, taped_rng);
      ASSERT_TRUE(taped.requires_grad());
      Tensor inferred;
      {
        NoGradGuard no_grad;
        inferred = net.forward(a, pts, inferred_rng);
      }
      ASSERT_FALSE(inferred.requires_grad());
      ASSERT_EQ(inferred.shape(), taped.shape());
      for (std::int64_t j = 0; j < taped.numel(); ++j)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(inferred.data()[j]),
                  std::bit_cast<std::uint32_t>(taped.data()[j]))
            << "threads=" << threads << " arch " << i << " logit " << j;
      rng = taped_rng;
    }
  }
}

TEST(SuperNet, PositionCountMismatchThrows) {
  Rng rng(2);
  SuperNet net(small_space(), small_config(), rng);
  SpaceConfig other;
  other.num_positions = 12;
  Arch a = random_arch(other, rng);
  EXPECT_EQ(invalid_argument_text(
                [&] { net.forward(a, Tensor::ones({8, 3}), rng); }),
            "SuperNet: architecture has 12 positions, supernet expects 6");
}

TEST(SuperNet, SharedWeightsAcrossPaths) {
  // Two paths that differ only in one position must still share the other
  // positions' banks: parameter count is path-independent.
  Rng rng(3);
  SuperNet net(small_space(), small_config(), rng);
  const auto params = net.parameters();
  // positions * (6 combine-dim pairs + 7 aggregate aligns) + proj + head.
  const std::size_t expected =
      6 * (6 * 2 + 7) * 2 /*w+b*/ + 2 /*proj*/ + 4 /*heads*/;
  EXPECT_EQ(params.size(), expected);
}

TEST(SuperNet, TrainEpochReturnsFiniteLossAndLearns) {
  Rng rng(4);
  SpaceConfig space = small_space();
  SuperNet net(space, small_config(), rng);
  pointcloud::Dataset data(6, 32, 11);
  Adam opt(net.parameters(), 2e-3f);
  auto sampler = [&space](Rng& r) { return random_arch(space, r); };
  const double first = net.train_epoch(data.train(), sampler, opt, 8, rng);
  double last = first;
  for (int e = 0; e < 4; ++e)
    last = net.train_epoch(data.train(), sampler, opt, 8, rng);
  EXPECT_TRUE(std::isfinite(first));
  EXPECT_LT(last, first);  // SPOS training reduces the shared-weight loss
}

// train_epoch drives train_epoch_stepwise to completion. The stepwise form
// suspends once per optimiser step and leaves the weights, the loss and
// the RNG stream exactly where the monolithic call does, at every pool
// width.
TEST(SuperNet, StepwiseTrainEpochYieldsPerMiniBatchAndMatchesMonolithic) {
  for (const std::int64_t threads : {1, 2}) {
    SCOPED_TRACE(threads);
    core::ScopedNumThreads pool(threads);
    const SpaceConfig space = small_space();
    const pointcloud::Dataset data(3, 32, 11);
    auto sampler = [&space](Rng& r) { return random_arch(space, r); };
    const std::int64_t batch = 3;  // leaves a short last mini-batch

    Rng rng_mono(4);
    SuperNet mono(space, small_config(), rng_mono);
    Adam opt_mono(mono.parameters(), 2e-3f);
    const double loss_mono =
        mono.train_epoch(data.train(), sampler, opt_mono, batch, rng_mono);

    Rng rng_step(4);
    SuperNet stepped(space, small_config(), rng_step);
    Adam opt_step(stepped.parameters(), 2e-3f);
    double loss_step = -1.0;
    core::Stepper epoch = stepped.train_epoch_stepwise(
        data.train(), sampler, opt_step, batch, rng_step, &loss_step);
    std::int64_t yields = 0;
    while (epoch.step()) ++yields;

    const auto n = static_cast<std::int64_t>(data.train().size());
    ASSERT_NE(n % batch, 0);
    EXPECT_EQ(yields, (n + batch - 1) / batch);
    EXPECT_EQ(loss_step, loss_mono);  // bit-identical, not just close
    EXPECT_EQ(rng_step.next(), rng_mono.next());
    const auto params_mono = mono.parameters();
    const auto params_step = stepped.parameters();
    ASSERT_EQ(params_mono.size(), params_step.size());
    for (std::size_t i = 0; i < params_mono.size(); ++i) {
      const auto a = params_mono[i].data();
      const auto b = params_step[i].data();
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << i;
    }
    EXPECT_EQ(stepped.weight_version(), mono.weight_version());
  }
}

// The supernet weights a tiny multistage search trains are pinned at every
// pool width: the FNV of every weight once warm-up ends (the step that
// enters stage 1) and once pre-training ends (the step that enters stage
// 2). Neither stage's probes write a weight, so each hash is exactly the
// trained state. A change to the training step that moves one float fails
// here, not only in the search's summary.
TEST(SuperNet, TrainingIsPinned) {
  using Phase = SearchProgress::Phase;
  for (const std::int64_t threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    api::EngineConfig cfg = api::EngineConfig::tiny();
    cfg.num_threads = threads;
    auto engine = api::Engine::create(cfg);
    ASSERT_TRUE(engine.ok()) << engine.status().to_string();
    auto run = engine.value().begin_search();
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    const SuperNet& net = engine.value().context()->supernet();
    std::vector<std::uint64_t> trained;  // one hash per training phase
    Phase last = run.value()->progress().phase;
    while (run.value()->step()) {
      const Phase now = run.value()->progress().phase;
      if (now != last && (last == Phase::kWarmup || last == Phase::kPretrain)) {
        Fnv1a weights;
        for (const Tensor& p : net.parameters()) weights.floats(p.data());
        trained.push_back(weights.h);
      }
      last = now;
    }
    EXPECT_EQ(trained, (std::vector<std::uint64_t>{0x1a8c4aa1b48e9a3bull,
                                                  0x20cc1b51cc08862full}));
  }
  core::set_num_threads(0);
}

TEST(SuperNet, EvaluateReturnsAccuracyInRange) {
  Rng rng(5);
  SuperNet net(small_space(), small_config(), rng);
  pointcloud::Dataset data(3, 32, 13);
  AccuracyProbe probe = SuperNet::begin_probe(random_arch(small_space(), rng),
                                              data.test(), 10, rng);
  EXPECT_EQ(probe.count, std::min<std::size_t>(10, data.test().size()));
  net.set_training(false);
  while (!probe.done()) net.advance_probe(probe, data.test());
  net.set_training(true);
  EXPECT_GE(probe.accuracy(), 0.0);
  EXPECT_LE(probe.accuracy(), 1.0);
}

TEST(SuperNet, EvaluateEmptySplitThrows) {
  Rng rng(6);
  std::vector<pointcloud::Sample> empty;
  Arch a = random_arch(small_space(), rng);
  EXPECT_EQ(invalid_argument_text(
                [&] { SuperNet::begin_probe(a, empty, 10, rng); }),
            "SuperNet: evaluate: empty split");
}

TEST(SuperNet, ReinitializeChangesWeightsInPlace) {
  Rng rng(7);
  SuperNet net(small_space(), small_config(), rng);
  auto params = net.parameters();
  std::vector<float> before(params[0].data().begin(),
                            params[0].data().end());
  Rng rng2(99);
  net.reinitialize(rng2);
  // Same handles still registered, values re-drawn.
  auto after_params = net.parameters();
  EXPECT_EQ(params[0].id(), after_params[0].id());
  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (before[i] != after_params[0].data()[i]) changed = true;
  EXPECT_TRUE(changed);
}

TEST(SuperNet, FunctionChoiceAffectsOutput) {
  // Max vs mean aggregation along the same path must differ.
  Rng rng(8);
  SuperNet net(small_space(), small_config(), rng);
  pointcloud::Dataset data(2, 32, 17);
  Tensor pts = pointcloud::Dataset::to_tensor(data.train()[0]);

  Arch a;
  PositionGene agg;
  agg.op = OpType::Aggregate;
  agg.fn.aggr = AggrType::Max;
  a.genes.assign(6, PositionGene{});
  a.genes[1] = agg;
  Arch b = a;
  b.genes[1].fn.aggr = AggrType::Mean;

  NoGradGuard ng;
  net.set_training(false);
  Rng f1(1), f2(1);
  Tensor ya = net.forward(a, pts, f1);
  Tensor yb = net.forward(b, pts, f2);
  bool differs = false;
  for (std::int64_t i = 0; i < ya.numel(); ++i)
    if (std::fabs(ya.data()[i] - yb.data()[i]) > 1e-7f) differs = true;
  EXPECT_TRUE(differs);
}

TEST(SuperNet, RejectsBadConfig) {
  Rng rng(9);
  SpaceConfig bad;
  bad.num_positions = 0;
  EXPECT_THROW(SuperNet(bad, small_config(), rng), std::invalid_argument);
  SupernetConfig bad_cfg = small_config();
  bad_cfg.hidden = 0;
  EXPECT_THROW(SuperNet(small_space(), bad_cfg, rng), std::invalid_argument);
}

}  // namespace
}  // namespace hg::hgnas
