// Latency predictor: graph abstraction, feature encoding, training,
// ranking power, evaluator wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/eval_context.hpp"
#include "core/parallel.hpp"
#include "fingerprint.hpp"
#include "hgnas/serialize_arch.hpp"
#include "predictor/predictor.hpp"

namespace hg::predictor {
namespace {

hgnas::Workload test_workload() {
  hgnas::Workload w;
  w.num_points = 512;
  w.k = 10;
  w.num_classes = 10;
  return w;
}

hgnas::SpaceConfig test_space() {
  hgnas::SpaceConfig s;
  s.num_positions = 6;
  return s;
}

PredictorConfig tiny_predictor_config() {
  PredictorConfig c;
  c.gcn_dims = {24, 32};
  c.mlp_dims = {16, 1};
  c.epochs = 30;
  c.lr = 5e-3f;
  return c;
}

TEST(ArchToGraph, NodeAndFeatureLayout) {
  Rng rng(1);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  // input + 6 positions + output + global = 9 nodes.
  EXPECT_EQ(g.edges.num_nodes, 9);
  EXPECT_EQ(g.features.shape(), (Shape{9, kFeatureDim}));
}

TEST(ArchToGraph, GlobalNodeConnectedToAll) {
  Rng rng(2);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  const std::int64_t global = g.edges.num_nodes - 1;
  std::set<std::int64_t> reached;
  for (std::size_t e = 0; e < g.edges.src.size(); ++e)
    if (g.edges.src[e] == global) reached.insert(g.edges.dst[e]);
  EXPECT_EQ(reached.size(), static_cast<std::size_t>(global));
}

TEST(ArchToGraph, ChainEdgesBothDirections) {
  Rng rng(3);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  auto has_edge = [&](std::int64_t s, std::int64_t d) {
    for (std::size_t e = 0; e < g.edges.src.size(); ++e)
      if (g.edges.src[e] == s && g.edges.dst[e] == d) return true;
    return false;
  };
  EXPECT_TRUE(has_edge(0, 1));
  EXPECT_TRUE(has_edge(1, 0));
  EXPECT_TRUE(has_edge(6, 7));  // last position -> output
}

TEST(ArchToGraph, NodeTypeOneHotIsExclusive) {
  Rng rng(4);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  for (std::int64_t node = 0; node < g.edges.num_nodes; ++node) {
    float sum = 0.f;
    for (std::int64_t d = 0; d < kNodeTypeDim; ++d)
      sum += g.features.at({node, d});
    EXPECT_FLOAT_EQ(sum, 1.f) << "node " << node;
  }
}

TEST(ArchToGraph, FunctionOneHotOnlyOnPositions) {
  Rng rng(5);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  auto fn_sum = [&](std::int64_t node) {
    float s = 0.f;
    for (std::int64_t d = kNodeTypeDim; d < kNodeTypeDim + kFunctionDim; ++d)
      s += g.features.at({node, d});
    return s;
  };
  EXPECT_FLOAT_EQ(fn_sum(0), 0.f);                        // input
  EXPECT_FLOAT_EQ(fn_sum(g.edges.num_nodes - 2), 0.f);    // output
  for (std::int64_t p = 1; p <= 6; ++p) EXPECT_FLOAT_EQ(fn_sum(p), 1.f);
}

TEST(ArchToGraph, GlobalFeaturesEncodeWorkload) {
  Rng rng(6);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  hgnas::Workload w1 = test_workload();
  hgnas::Workload w2 = test_workload();
  w2.num_points = 2048;
  ArchGraph g1 = arch_to_graph(a, w1);
  ArchGraph g2 = arch_to_graph(a, w2);
  const std::int64_t global = g1.edges.num_nodes - 1;
  bool differs = false;
  for (std::int64_t d = 0; d < kFeatureDim; ++d)
    if (g1.features.at({global, d}) != g2.features.at({global, d}))
      differs = true;
  EXPECT_TRUE(differs);
}

TEST(CollectLabeled, ProducesPositiveLabels) {
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto set = collect_labeled_archs(dev, test_space(), test_workload(), 50, 3);
  EXPECT_EQ(set.size(), 50u);
  for (const auto& s : set) EXPECT_GT(s.latency_ms, 0.0);
}

TEST(CollectLabeled, DeterministicForSeed) {
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto a = collect_labeled_archs(dev, test_space(), test_workload(), 10, 5);
  auto b = collect_labeled_archs(dev, test_space(), test_workload(), 10, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arch, b[i].arch);
    EXPECT_DOUBLE_EQ(a[i].latency_ms, b[i].latency_ms);
  }
}

TEST(Predictor, FitReducesTrainingMape) {
  Rng rng(7);
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto train = collect_labeled_archs(dev, test_space(), test_workload(),
                                     120, 11);
  LatencyPredictor pred(tiny_predictor_config(), test_workload(), rng);
  const PredictorMetrics before = pred.evaluate(train);
  pred.fit(train, rng);
  const PredictorMetrics after = pred.evaluate(train);
  EXPECT_LT(after.mape, before.mape);
  EXPECT_LT(after.mape, 0.5);
}

TEST(Predictor, GeneralisesAndRanks) {
  // The real requirement for NAS: the predictor must *order* candidates by
  // latency well on unseen architectures (Spearman-style check).
  Rng rng(8);
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto train = collect_labeled_archs(dev, test_space(), test_workload(),
                                     250, 13);
  auto test = collect_labeled_archs(dev, test_space(), test_workload(),
                                    60, 14);
  PredictorConfig cfg = tiny_predictor_config();
  cfg.epochs = 50;
  LatencyPredictor pred(cfg, test_workload(), rng);
  pred.fit(train, rng);

  // Count correctly-ordered pairs.
  std::int64_t concordant = 0, total = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    for (std::size_t j = i + 1; j < test.size(); ++j) {
      const double dy = test[i].latency_ms - test[j].latency_ms;
      if (std::fabs(dy) < 1e-9) continue;
      const double dp =
          pred.predict_ms(test[i].arch) - pred.predict_ms(test[j].arch);
      ++total;
      if (dy * dp > 0) ++concordant;
    }
  }
  EXPECT_GT(static_cast<double>(concordant) / static_cast<double>(total),
            0.75);
}

TEST(Predictor, PredictBatchEqualsSerialForwardsExactly) {
  // predict_batch_ms serves every query through a forward without the
  // autograd tape; it must answer bit for bit what the taped forward() —
  // the training path — gives for each architecture's graph alone, for any
  // batch composition and pool width. EXPECT_EQ, not EXPECT_DOUBLE_EQ: no
  // ULP of slack. The predictor is fitted, so ReLU zeros and the matmul's
  // zero skip occur as they do in serving, and the architectures come from
  // the served 12-position space on the paper workload.
  const hgnas::Workload w;
  const hgnas::SpaceConfig space;
  hw::Device dev = hw::make_device(hw::DeviceKind::JetsonTx2);
  const auto train = collect_labeled_archs(dev, space, w, 80, 23);

  for (const int device_slot : {-1, 2}) {
    SCOPED_TRACE("device_slot " + std::to_string(device_slot));
    PredictorConfig cfg;
    cfg.epochs = 8;
    cfg.device_slot = device_slot;
    Rng rng(31);
    LatencyPredictor pred(cfg, w, rng);
    pred.fit(train, rng);

    std::vector<hgnas::Arch> archs;
    std::vector<double> reference;
    for (int i = 0; i < 200; ++i) {
      archs.push_back(hgnas::random_arch(space, rng));
      const Tensor out = pred.forward(arch_to_graph(archs.back(), w,
                                                    device_slot));
      reference.push_back(std::max(
          0.0, static_cast<double>(out.item()) * pred.scale_ms()));
    }
    // A collapsed fit answers 0 everywhere and would prove little.
    std::vector<double> distinct = reference;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    ASSERT_GT(distinct.size(), 150u);

    for (const std::int64_t threads : {std::int64_t{1}, std::int64_t{3}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      core::ScopedNumThreads scoped(threads);

      const std::vector<double> whole = pred.predict_batch_ms(archs);
      ASSERT_EQ(whole.size(), archs.size());
      for (std::size_t i = 0; i < archs.size(); ++i)
        EXPECT_EQ(whole[i], reference[i]) << "whole batch, arch " << i;

      for (std::size_t i = 0; i < archs.size(); ++i)
        EXPECT_EQ(pred.predict_ms(archs[i]), reference[i]) << "lone arch " << i;

      // Uneven batches: parts of different sizes at every pool width.
      std::size_t lo = 0;
      for (const std::size_t len : {1u, 2u, 5u, 17u, 64u, 111u}) {
        const std::vector<double> part = pred.predict_batch_ms(
            std::span<const hgnas::Arch>(archs.data() + lo, len));
        ASSERT_EQ(part.size(), len);
        for (std::size_t i = 0; i < len; ++i)
          EXPECT_EQ(part[i], reference[lo + i]) << "arch " << lo + i;
        lo += len;
      }
      ASSERT_EQ(lo, archs.size());

      EXPECT_TRUE(pred.predict_batch_ms({}).empty());
    }
  }
}

TEST(CollectLabeled, MultiDeviceShardingMatchesPerDeviceCollection) {
  // Fleet collection through one pooled queue must hand every device the
  // exact labelled set it gets collected alone, at any pool width: the
  // devices' draws share a round but never each other's streams.
  hw::Device rtx = hw::make_device(hw::DeviceKind::Rtx3080);
  hw::Device i7 = hw::make_device(hw::DeviceKind::IntelI7_8700K);
  const CollectSpec specs[] = {{&rtx, 20, 5}, {&i7, 15, 9}};

  for (const std::int64_t threads : {std::int64_t{1}, std::int64_t{3}}) {
    core::ScopedNumThreads scoped(threads);
    const auto multi =
        collect_labeled_archs_multi(specs, test_space(), test_workload());
    ASSERT_EQ(multi.size(), 2u);
    for (std::size_t d = 0; d < 2; ++d) {
      const auto solo =
          collect_labeled_archs(*specs[d].device, test_space(),
                                test_workload(), specs[d].count,
                                specs[d].seed);
      ASSERT_EQ(multi[d].size(), solo.size()) << "threads " << threads;
      for (std::size_t i = 0; i < solo.size(); ++i) {
        EXPECT_EQ(multi[d][i].arch, solo[i].arch);
        EXPECT_DOUBLE_EQ(multi[d][i].latency_ms, solo[i].latency_ms);
      }
    }
  }
}

// The labelled set behind predictor-backed engines (jetson-tx2, the paper's
// space and workload, the default seed) and a predictor fitted on it are
// pinned: neither the pool width nor a rewrite of the collection may move
// a label or a served prediction by one bit.
TEST(Predictor, LabeledSetIsPinnedAtEveryWidth) {
  const hgnas::Workload w;
  const hgnas::SpaceConfig space;
  hw::Device dev = hw::make_device(hw::DeviceKind::JetsonTx2);
  for (const std::int64_t threads :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::ScopedNumThreads scoped(threads);
    const std::vector<LabeledArch> set =
        collect_labeled_archs(dev, space, w, 200, 2024);
    Fnv1a labels;
    for (const LabeledArch& s : set) {
      labels.text(hgnas::arch_to_text(s.arch));
      labels.bits(s.latency_ms);
    }
    EXPECT_EQ(labels.h, 0x3009e239e14cfd4bull);

    PredictorConfig cfg = tiny_predictor_config();
    cfg.epochs = 6;
    Rng rng(17);
    LatencyPredictor pred(cfg, w, rng);
    pred.fit({set.begin(), set.begin() + 64}, rng);
    std::vector<hgnas::Arch> archs;
    for (int i = 0; i < 32; ++i) archs.push_back(hgnas::random_arch(space, rng));
    const std::vector<double> ms = pred.predict_batch_ms(archs);
    // A collapsed fit answers one value everywhere and would pin little.
    ASSERT_GT(std::set<double>(ms.begin(), ms.end()).size(), 24u);
    Fnv1a predictions;
    for (const double v : ms) predictions.bits(v);
    EXPECT_EQ(predictions.h, 0xb5f7cac1eccf5ce9ull);
  }
}

// The fit behind every predictor-backed server — perfbench's search_mixed
// set-up: jetson-tx2, 200 labels, 20 epochs, the default seed — is pinned
// at every pool width: the bits of every weight and of the train MAPE, and
// the served answers on 64 fixed architectures.
TEST(Predictor, ServedFitIsPinned) {
  for (const std::int64_t threads :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    api::EngineConfig cfg;
    cfg.device = "jetson-tx2";
    cfg.evaluator = "predictor";
    cfg.predictor_samples = 200;
    cfg.predictor_epochs = 20;
    cfg.num_threads = threads;
    auto ctx = api::EvalContext::create(cfg);
    ASSERT_TRUE(ctx.ok()) << ctx.status().to_string();
    auto bundle = ctx.value()->evaluator("predictor");
    ASSERT_TRUE(bundle.ok()) << bundle.status().to_string();
    const LatencyPredictor& pred = *bundle.value().predictor;
    Fnv1a fit;
    for (const Tensor& p : pred.parameters()) fit.floats(p.data());
    fit.bits(bundle.value().predictor_train_mape);
    EXPECT_EQ(fit.h, 0x8c97d2006bc0974aull);

    hgnas::SpaceConfig space;
    space.num_positions = cfg.num_positions;
    Rng rng(64);
    std::vector<hgnas::Arch> archs;
    for (int i = 0; i < 64; ++i) archs.push_back(hgnas::random_arch(space, rng));
    const std::vector<double> ms = pred.predict_batch_ms(archs);
    ASSERT_GT(std::set<double>(ms.begin(), ms.end()).size(), 48u);
    Fnv1a predictions;
    for (const double v : ms) predictions.bits(v);
    EXPECT_EQ(predictions.h, 0x9ea1a2d2f080bd55ull);
  }
  core::set_num_threads(0);
}

TEST(Predictor, PredictionNeverNegative) {
  Rng rng(9);
  LatencyPredictor pred(tiny_predictor_config(), test_workload(), rng);
  for (int i = 0; i < 20; ++i) {
    hgnas::Arch a = hgnas::random_arch(test_space(), rng);
    EXPECT_GE(pred.predict_ms(a), 0.0);
  }
}

TEST(Predictor, RejectsBadConfigAndInputs) {
  Rng rng(10);
  PredictorConfig bad = tiny_predictor_config();
  bad.mlp_dims = {16, 2};  // must end in scalar
  EXPECT_THROW(LatencyPredictor(bad, test_workload(), rng),
               std::invalid_argument);
  LatencyPredictor ok(tiny_predictor_config(), test_workload(), rng);
  std::vector<LabeledArch> empty;
  EXPECT_THROW(ok.fit(empty, rng), std::invalid_argument);
  EXPECT_THROW(ok.evaluate(empty), std::invalid_argument);
  std::vector<LabeledArch> bad_label(1);
  bad_label[0].arch = hgnas::random_arch(test_space(), rng);
  bad_label[0].latency_ms = 0.0;
  EXPECT_THROW(ok.fit(bad_label, rng), std::invalid_argument);
}

TEST(PredictorEvaluator, WrapsQueriesWithCost) {
  Rng rng(11);
  auto pred = std::make_shared<LatencyPredictor>(tiny_predictor_config(),
                                                 test_workload(), rng);
  auto fn = make_predictor_evaluator(pred, 0.005);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  const hgnas::LatencyEval e = fn(a);
  EXPECT_DOUBLE_EQ(e.cost_s, 0.005);
  EXPECT_FALSE(e.oom);
  EXPECT_THROW(make_predictor_evaluator(nullptr), std::invalid_argument);
}

TEST(PredictorEvaluator, QueryIsFastInRealTime) {
  // §III-D: prediction takes milliseconds. Generous CI bound: < 50 ms.
  Rng rng(12);
  auto pred = std::make_shared<LatencyPredictor>(tiny_predictor_config(),
                                                 test_workload(), rng);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) pred->predict_ms(a);
  const auto dt = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(dt / 10.0, 50.0);
}

}  // namespace
}  // namespace hg::predictor
