// Design space: channel flow, trace lowering (incl. sample merging and lazy
// initial KNN), genetic operators, space-size claims.
#include <gtest/gtest.h>

#include <set>

#include "hgnas/arch.hpp"
#include "invalid_argument_text.hpp"

namespace hg::hgnas {
namespace {

PositionGene gene(OpType op) {
  PositionGene g;
  g.op = op;
  return g;
}

Workload small_workload() {
  Workload w;
  w.num_points = 64;
  w.k = 8;
  w.num_classes = 10;
  return w;
}

TEST(ChannelFlow, CombineSetsDim) {
  Arch a;
  PositionGene g = gene(OpType::Combine);
  g.fn.combine_dim_idx = 4;  // 128
  a.genes = {g};
  auto flow = channel_flow(a, small_workload());
  EXPECT_EQ(flow, (std::vector<std::int64_t>{3, 128}));
}

TEST(ChannelFlow, AggregateExpandsByMessageType) {
  Arch a;
  PositionGene g = gene(OpType::Aggregate);
  g.fn.msg = gnn::MessageType::TargetRel;
  a.genes = {g, g};
  auto flow = channel_flow(a, small_workload());
  EXPECT_EQ(flow, (std::vector<std::int64_t>{3, 6, 12}));
}

TEST(ChannelFlow, SampleAndConnectPreserveDim) {
  Arch a;
  a.genes = {gene(OpType::Sample), gene(OpType::Connect)};
  auto flow = channel_flow(a, small_workload());
  EXPECT_EQ(flow, (std::vector<std::int64_t>{3, 3, 3}));
}

TEST(ChannelFlow, DistanceMessageCollapsesToOne) {
  Arch a;
  PositionGene g = gene(OpType::Aggregate);
  g.fn.msg = gnn::MessageType::Distance;
  a.genes = {g};
  EXPECT_EQ(channel_flow(a, small_workload()).back(), 1);
}

// ---- lowering -----------------------------------------------------------------

int count_ops(const hw::Trace& t, hw::OpCategory cat) {
  int n = 0;
  for (const auto& op : t.ops)
    if (op.category == cat) ++n;
  return n;
}

TEST(Lowering, AggregateWithoutSampleTriggersImplicitKnn) {
  Arch a;
  a.genes = {gene(OpType::Aggregate)};
  hw::Trace t = lower_to_trace(a, small_workload());
  EXPECT_EQ(count_ops(t, hw::OpCategory::Sample), 1);
  EXPECT_EQ(count_ops(t, hw::OpCategory::Aggregate), 1);
}

TEST(Lowering, AdjacentSamplesAreMerged) {
  // Fig. 10 note: "adjacent KNN operations will be merged during execution".
  Arch a;
  a.genes = {gene(OpType::Sample), gene(OpType::Sample),
             gene(OpType::Sample), gene(OpType::Aggregate)};
  hw::Trace t = lower_to_trace(a, small_workload());
  EXPECT_EQ(count_ops(t, hw::OpCategory::Sample), 1);
}

TEST(Lowering, SampleAfterFeatureChangeIsNotMerged) {
  Arch a;
  a.genes = {gene(OpType::Sample), gene(OpType::Aggregate),
             gene(OpType::Sample), gene(OpType::Aggregate)};
  hw::Trace t = lower_to_trace(a, small_workload());
  EXPECT_EQ(count_ops(t, hw::OpCategory::Sample), 2);
}

TEST(Lowering, IdentityConnectIsFree) {
  Arch with_id;
  PositionGene id = gene(OpType::Connect);
  id.fn.connect = ConnectFunc::Identity;
  with_id.genes = {gene(OpType::Combine), id};
  Arch without;
  without.genes = {gene(OpType::Combine)};
  const Workload w = small_workload();
  EXPECT_EQ(lower_to_trace(with_id, w).ops.size(),
            lower_to_trace(without, w).ops.size());
}

TEST(Lowering, SkipConnectAddsElementwiseOp) {
  Arch a;
  PositionGene skip = gene(OpType::Connect);
  skip.fn.connect = ConnectFunc::SkipConnect;
  a.genes = {gene(OpType::Combine), skip};
  hw::Trace t = lower_to_trace(a, small_workload());
  bool found = false;
  for (const auto& op : t.ops)
    if (op.name == "skip_add") found = true;
  EXPECT_TRUE(found);
}

TEST(Lowering, SkipConnectInvalidatesGraphFreshness) {
  // Sample, skip (features change), Sample again: both samples must count.
  Arch a;
  PositionGene skip = gene(OpType::Connect);
  skip.fn.connect = ConnectFunc::SkipConnect;
  a.genes = {gene(OpType::Sample), skip, gene(OpType::Sample),
             gene(OpType::Aggregate)};
  hw::Trace t = lower_to_trace(a, small_workload());
  EXPECT_EQ(count_ops(t, hw::OpCategory::Sample), 2);
}

TEST(Lowering, ParamsComeFromCombinesAndHead) {
  Arch no_combines;
  no_combines.genes = {gene(OpType::Aggregate)};
  Arch with_combine;
  PositionGene c = gene(OpType::Combine);
  c.fn.combine_dim_idx = 5;  // 256
  with_combine.genes = {gene(OpType::Aggregate), c};
  const Workload w = small_workload();
  EXPECT_GT(arch_param_mb(with_combine, w), arch_param_mb(no_combines, w));
  EXPECT_GT(arch_param_mb(no_combines, w), 0.0);  // head always present
}

TEST(Lowering, RandomSampleCheaperThanKnnOnEveryDevice) {
  Arch knn_arch;
  PositionGene s = gene(OpType::Sample);
  s.fn.sample = SampleFunc::Knn;
  knn_arch.genes = {s, gene(OpType::Aggregate)};
  Arch rnd_arch = knn_arch;
  rnd_arch.genes[0].fn.sample = SampleFunc::Random;
  Workload w;
  w.num_points = 1024;
  w.k = 20;
  for (int d = 0; d < hw::kNumDevices; ++d) {
    hw::Device dev = hw::make_device(static_cast<hw::DeviceKind>(d));
    EXPECT_LT(dev.latency_ms(lower_to_trace(rnd_arch, w)),
              dev.latency_ms(lower_to_trace(knn_arch, w)))
        << dev.name();
  }
}

// ---- visualisation ----------------------------------------------------------------

TEST(Visualize, ShowsEffectiveOpsOnly) {
  Arch a;
  PositionGene s = gene(OpType::Sample);
  PositionGene agg = gene(OpType::Aggregate);
  agg.fn.msg = gnn::MessageType::TargetRel;
  agg.fn.aggr = AggrType::Max;
  PositionGene c = gene(OpType::Combine);
  c.fn.combine_dim_idx = 3;  // 64
  PositionGene id = gene(OpType::Connect);
  id.fn.connect = ConnectFunc::Identity;
  a.genes = {s, s, c, agg, id};
  const std::string v = visualize(a, small_workload());
  // Merged samples -> single KNN; identity connect invisible.
  EXPECT_EQ(v.find("KNN"), v.rfind("KNN"));
  EXPECT_NE(v.find("Combine (64)"), std::string::npos);
  EXPECT_NE(v.find("target||rel, max"), std::string::npos);
  EXPECT_NE(v.find("Classifier"), std::string::npos);
  EXPECT_EQ(v.find("identity"), std::string::npos);
}

// ---- genetic operators ----------------------------------------------------------------

TEST(Sampling, RandomArchHasRequestedPositions) {
  Rng rng(1);
  SpaceConfig cfg;
  cfg.num_positions = 12;
  Arch a = random_arch(cfg, rng);
  EXPECT_EQ(a.num_positions(), 12);
}

TEST(Sampling, RandomArchCoversAllOpTypes) {
  Rng rng(2);
  SpaceConfig cfg;
  std::set<OpType> seen;
  for (int i = 0; i < 50; ++i)
    for (const auto& g : random_arch(cfg, rng).genes) seen.insert(g.op);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Sampling, FunctionSharingStampsHalves) {
  Rng rng(3);
  SpaceConfig cfg;
  cfg.num_positions = 12;
  FunctionSet up = random_functions(rng);
  FunctionSet lo = random_functions(rng);
  while (lo == up) lo = random_functions(rng);
  Arch a = random_arch_with_functions(cfg, up, lo, rng);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(a.genes[i].fn, up);
  for (int i = 6; i < 12; ++i) EXPECT_EQ(a.genes[i].fn, lo);
}

TEST(Sampling, MutateOpsPreservesFunctions) {
  Rng rng(4);
  SpaceConfig cfg;
  Arch parent = random_arch(cfg, rng);
  Arch child = mutate_ops(parent, 1.0, rng);
  for (std::size_t i = 0; i < parent.genes.size(); ++i)
    EXPECT_EQ(child.genes[i].fn, parent.genes[i].fn);
}

TEST(Sampling, MutateZeroProbabilityIsIdentity) {
  Rng rng(5);
  SpaceConfig cfg;
  Arch parent = random_arch(cfg, rng);
  EXPECT_EQ(mutate(parent, 0.0, 0.0, rng), parent);
}

TEST(Sampling, MutateFullProbabilityChangesSomething) {
  Rng rng(6);
  SpaceConfig cfg;
  Arch parent = random_arch(cfg, rng);
  Arch child = mutate(parent, 1.0, 1.0, rng);
  EXPECT_NE(child, parent);  // 12 positions, astronomically unlikely equal
}

TEST(Sampling, CrossoverMixesParents) {
  Rng rng(7);
  SpaceConfig cfg;
  Arch a = random_arch(cfg, rng);
  Arch b = random_arch(cfg, rng);
  Arch child = crossover(a, b, rng);
  for (std::size_t i = 0; i < child.genes.size(); ++i)
    EXPECT_TRUE(child.genes[i] == a.genes[i] || child.genes[i] == b.genes[i]);
}

TEST(Sampling, CrossoverSizeMismatchThrows) {
  Rng rng(8);
  SpaceConfig small;
  small.num_positions = 4;
  SpaceConfig big;
  big.num_positions = 8;
  Arch a = random_arch(small, rng);
  Arch b = random_arch(big, rng);
  EXPECT_EQ(invalid_argument_text([&] { crossover(a, b, rng); }),
            "hgnas: crossover: position count mismatch");
}

TEST(ArchHash, EqualArchsSameHashDistinctDiffer) {
  Rng rng(9);
  SpaceConfig cfg;
  Arch a = random_arch(cfg, rng);
  Arch b = a;
  EXPECT_EQ(a.hash(), b.hash());
  Arch c = mutate(a, 1.0, 1.0, rng);
  EXPECT_NE(a.hash(), c.hash());
}

// ---- space size (paper §III-C claim) -------------------------------------------------

TEST(SpaceSize, OperationSpaceIs4To12) {
  SpaceConfig cfg;
  cfg.num_positions = 12;
  // 4^12 = 16,777,216 ~= the paper's "1.7 x 10^7" after function sharing.
  EXPECT_NEAR(std::pow(10.0, log10_operation_space_size(cfg)), 16777216.0,
              1.0);
}

TEST(SpaceSize, FullSpaceVastlyLarger) {
  SpaceConfig cfg;
  cfg.num_positions = 12;
  // Function sharing must shrink exploration by at least 10^5 (paper:
  // 4.2e12 -> 1.7e7).
  EXPECT_GT(log10_full_space_size(cfg) - log10_operation_space_size(cfg),
            5.0);
}

TEST(Names, AllEnumNamesDistinct) {
  std::set<std::string> ops = {op_type_name(OpType::Connect),
                               op_type_name(OpType::Aggregate),
                               op_type_name(OpType::Combine),
                               op_type_name(OpType::Sample)};
  EXPECT_EQ(ops.size(), 4u);
  std::set<std::string> aggrs = {
      aggr_type_name(AggrType::Sum), aggr_type_name(AggrType::Min),
      aggr_type_name(AggrType::Max), aggr_type_name(AggrType::Mean)};
  EXPECT_EQ(aggrs.size(), 4u);
}

TEST(CombineDims, MatchTableI) {
  EXPECT_EQ(kCombineDims,
            (std::array<std::int64_t, 6>{8, 16, 32, 64, 128, 256}));
}

}  // namespace
}  // namespace hg::hgnas
