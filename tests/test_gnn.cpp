// GNN operators: message builders (Table I), aggregation, pooling,
// EdgeConv, GCN layer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gnn/gnn.hpp"
#include "tensor/optim.hpp"

namespace hg::gnn {
namespace {

/// Tiny fixed graph: 0 -> 2, 1 -> 2, 2 -> 0 with 2-dim features.
struct Fixture {
  graph::EdgeList g;
  Tensor x;
  Fixture() {
    g.num_nodes = 3;
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    x = Tensor::from_vector({3, 2}, {1, 2, 3, 4, 5, 6});
  }
};

TEST(MessageDim, MatchesTableI) {
  EXPECT_EQ(message_dim(MessageType::SourcePos, 8), 8);
  EXPECT_EQ(message_dim(MessageType::TargetPos, 8), 8);
  EXPECT_EQ(message_dim(MessageType::RelPos, 8), 8);
  EXPECT_EQ(message_dim(MessageType::Distance, 8), 1);
  EXPECT_EQ(message_dim(MessageType::SourceRel, 8), 16);
  EXPECT_EQ(message_dim(MessageType::TargetRel, 8), 16);
  EXPECT_EQ(message_dim(MessageType::Full, 8), 25);
}

TEST(Messages, SourcePosGathersNeighbour) {
  Fixture f;
  Tensor m = build_messages(f.x, f.g, MessageType::SourcePos);
  EXPECT_EQ(m.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((m.at({0, 0})), 1.f);  // edge 0: src 0
  EXPECT_FLOAT_EQ((m.at({2, 0})), 5.f);  // edge 2: src 2
}

TEST(Messages, TargetPosGathersCentre) {
  Fixture f;
  Tensor m = build_messages(f.x, f.g, MessageType::TargetPos);
  EXPECT_FLOAT_EQ((m.at({0, 0})), 5.f);  // edge 0: dst 2
  EXPECT_FLOAT_EQ((m.at({2, 1})), 2.f);  // edge 2: dst 0
}

TEST(Messages, RelPosIsSourceMinusTarget) {
  Fixture f;
  Tensor m = build_messages(f.x, f.g, MessageType::RelPos);
  EXPECT_FLOAT_EQ((m.at({0, 0})), 1.f - 5.f);
  EXPECT_FLOAT_EQ((m.at({1, 1})), 4.f - 6.f);
}

TEST(Messages, DistanceIsL2Norm) {
  Fixture f;
  Tensor m = build_messages(f.x, f.g, MessageType::Distance);
  EXPECT_EQ(m.shape(), (Shape{3, 1}));
  EXPECT_NEAR((m.at({0, 0})), std::sqrt(16.f + 16.f), 1e-4f);
}

TEST(Messages, TargetRelConcatenation) {
  Fixture f;
  Tensor m = build_messages(f.x, f.g, MessageType::TargetRel);
  EXPECT_EQ(m.shape(), (Shape{3, 4}));
  EXPECT_FLOAT_EQ((m.at({0, 0})), 5.f);   // target
  EXPECT_FLOAT_EQ((m.at({0, 2})), -4.f);  // rel
}

TEST(Messages, SourceRelConcatenation) {
  Fixture f;
  Tensor m = build_messages(f.x, f.g, MessageType::SourceRel);
  EXPECT_EQ(m.shape(), (Shape{3, 4}));
  EXPECT_FLOAT_EQ((m.at({0, 0})), 1.f);
  EXPECT_FLOAT_EQ((m.at({0, 2})), -4.f);
}

TEST(Messages, FullLayout) {
  Fixture f;
  Tensor m = build_messages(f.x, f.g, MessageType::Full);
  EXPECT_EQ(m.shape(), (Shape{3, 7}));  // 3*2 + 1
  EXPECT_FLOAT_EQ((m.at({0, 0})), 5.f);                     // target
  EXPECT_FLOAT_EQ((m.at({0, 2})), 1.f);                     // source
  EXPECT_FLOAT_EQ((m.at({0, 4})), -4.f);                    // rel
  EXPECT_NEAR((m.at({0, 6})), std::sqrt(32.f), 1e-4f);      // dist
}

TEST(Messages, NodeCountMismatchThrows) {
  Fixture f;
  Tensor wrong = Tensor::ones({5, 2});
  EXPECT_THROW(build_messages(wrong, f.g, MessageType::SourcePos),
               std::invalid_argument);
}

class AggregateReduce : public ::testing::TestWithParam<Reduce> {};

TEST_P(AggregateReduce, ShapeAndFiniteness) {
  Fixture f;
  Tensor out = aggregate(f.x, f.g, MessageType::TargetRel, GetParam());
  EXPECT_EQ(out.shape(), (Shape{3, 4}));
  for (float v : out.data()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(AllReduces, AggregateReduce,
                         ::testing::Values(Reduce::Sum, Reduce::Mean,
                                           Reduce::Max, Reduce::Min));

TEST(Aggregate, SumMatchesManualComputation) {
  Fixture f;
  Tensor out = aggregate(f.x, f.g, MessageType::SourcePos, Reduce::Sum);
  // Node 2 receives sources 0 and 1: (1+3, 2+4).
  EXPECT_FLOAT_EQ((out.at({2, 0})), 4.f);
  EXPECT_FLOAT_EQ((out.at({2, 1})), 6.f);
  // Node 1 has no incoming edges.
  EXPECT_FLOAT_EQ((out.at({1, 0})), 0.f);
}

TEST(Pooling, GlobalMaxAndMean) {
  Tensor x = Tensor::from_vector({3, 2}, {1, 6, 5, 2, 3, 4});
  Tensor mx = global_max_pool(x);
  EXPECT_EQ(mx.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ((mx.at({0, 0})), 5.f);
  EXPECT_FLOAT_EQ((mx.at({0, 1})), 6.f);
  Tensor mn = global_mean_pool(x);
  EXPECT_FLOAT_EQ((mn.at({0, 0})), 3.f);
  EXPECT_FLOAT_EQ((mn.at({0, 1})), 4.f);
}

TEST(EdgeConv, OutputShapeAndParamCount) {
  Rng rng(1);
  EdgeConv conv(4, 8, rng);
  EXPECT_EQ(conv.num_parameters(), (2 * 4) * 8 + 8 + 2 * 8);
  Fixture f;
  Tensor x4 = Tensor::ones({3, 4});
  Tensor y = conv.forward(x4, f.g);
  EXPECT_EQ(y.shape(), (Shape{3, 8}));
}

TEST(EdgeConv, GradientsFlowToParameters) {
  Rng rng(2);
  EdgeConv conv(2, 4, rng);
  Fixture f;
  Tensor y = conv.forward(f.x, f.g);
  sum_all(y).backward();
  bool any_grad = false;
  for (auto& p : conv.parameters())
    if (p.has_grad()) any_grad = true;
  EXPECT_TRUE(any_grad);
}

TEST(EdgeConv, LearnsSimpleTarget) {
  // Overfit one graph: outputs should approach a fixed target.
  Rng rng(3);
  EdgeConv conv(2, 2, rng);
  Fixture f;
  Adam opt(conv.parameters(), 0.02f);
  Tensor target = Tensor::from_vector({3, 2}, {1, 0, 0, 1, 1, 1});
  float first = 0.f, last = 0.f;
  for (int i = 0; i < 400; ++i) {
    opt.zero_grad();
    Tensor loss = mean_all(square(sub(conv.forward(f.x, f.g), target)));
    loss.backward();
    opt.step();
    if (i == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, 0.5f * first);  // loss at least halves
  EXPECT_LT(last, 0.2f);
}

TEST(GcnLayer, OutputShape) {
  Rng rng(4);
  GcnLayer gcn(2, 5, rng);
  Fixture f;
  Tensor y = gcn.forward(f.x, f.g);
  EXPECT_EQ(y.shape(), (Shape{3, 5}));
}

TEST(GcnLayer, SelfLoopMakesIsolatedNodesNonZero) {
  Rng rng(5);
  GcnLayer gcn(2, 3, rng);
  graph::EdgeList g;
  g.num_nodes = 2;  // no edges at all
  Tensor x = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor y = gcn.forward(x, g);
  float mag = 0.f;
  for (float v : y.data()) mag += std::fabs(v);
  EXPECT_GT(mag, 0.f);  // the self-loop carries the features through
}

TEST(GcnLayer, GradientsFlow) {
  Rng rng(6);
  GcnLayer gcn(2, 3, rng);
  Fixture f;
  sum_all(gcn.forward(f.x, f.g)).backward();
  for (auto& p : gcn.parameters()) {
    if (p.dim() == 2) {
      EXPECT_TRUE(p.has_grad());
    }
  }
}

TEST(GcnLayer, NodeCountMismatchThrows) {
  Rng rng(7);
  GcnLayer gcn(2, 3, rng);
  Fixture f;
  EXPECT_THROW(gcn.forward(Tensor::ones({9, 2}), f.g),
               std::invalid_argument);
}

TEST(MessageTypeNames, AreDistinct) {
  std::set<std::string> names;
  for (std::int64_t m = 0; m < kNumMessageTypes; ++m)
    names.insert(message_type_name(static_cast<MessageType>(m)));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumMessageTypes));
}

}  // namespace
}  // namespace hg::gnn
