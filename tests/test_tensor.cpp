// Forward-pass semantics of the tensor engine: shapes, broadcasting,
// reductions, indexing, scatter, softmax, error handling.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/check.hpp"
#include "invalid_argument_text.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace hg {
namespace {

TEST(TensorFactory, ZerosShapeAndValues) {
  Tensor t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.shape(), (Shape{2, 3}));
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.data()) EXPECT_EQ(v, 0.f);
}

TEST(TensorFactory, FullFillsValue) {
  Tensor t = Tensor::full({4}, 2.5f);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(TensorFactory, ScalarHasEmptyShape) {
  Tensor t = Tensor::scalar(3.f);
  EXPECT_EQ(t.dim(), 0);
  EXPECT_EQ(t.numel(), 1);
  EXPECT_FLOAT_EQ(t.item(), 3.f);
}

TEST(TensorFactory, FromVectorChecksSize) {
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1.f, 2.f, 3.f}),
               std::invalid_argument);
}

TEST(TensorFactory, RandnStatistics) {
  Rng rng(1);
  Tensor t = Tensor::randn({100, 100}, rng);
  double sum = 0.0;
  for (float v : t.data()) sum += v;
  EXPECT_NEAR(sum / 10000.0, 0.0, 0.05);
}

TEST(TensorAccess, AtComputesRowMajorIndex) {
  Tensor t = Tensor::from_vector({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ((t.at({0, 0})), 0.f);
  EXPECT_FLOAT_EQ((t.at({0, 2})), 2.f);
  EXPECT_FLOAT_EQ((t.at({1, 0})), 3.f);
  EXPECT_FLOAT_EQ((t.at({1, 2})), 5.f);
}

TEST(TensorAccess, AtThrowsOutOfRange) {
  Tensor t = Tensor::zeros({2, 2});
  EXPECT_THROW((t.at({2, 0})), std::invalid_argument);
}

TEST(TensorAccess, ItemRequiresScalar) {
  Tensor t = Tensor::zeros({2});
  EXPECT_THROW(t.item(), std::invalid_argument);
}

// ---- binary ops -------------------------------------------------------------

TEST(BinaryOps, ExactShapeAdd) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 2}, {10, 20, 30, 40});
  Tensor c = a + b;
  EXPECT_FLOAT_EQ((c.at({0, 0})), 11.f);
  EXPECT_FLOAT_EQ((c.at({1, 1})), 44.f);
}

TEST(BinaryOps, SubMulDiv) {
  Tensor a = Tensor::from_vector({3}, {6, 8, 10});
  Tensor b = Tensor::from_vector({3}, {2, 4, 5});
  EXPECT_FLOAT_EQ(sub(a, b).data()[0], 4.f);
  EXPECT_FLOAT_EQ(mul(a, b).data()[1], 32.f);
  EXPECT_FLOAT_EQ(div(a, b).data()[2], 2.f);
}

TEST(BinaryOps, ScalarBroadcast) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor c = a * 2.f;
  EXPECT_FLOAT_EQ((c.at({1, 1})), 8.f);
  Tensor d = a + 1.f;
  EXPECT_FLOAT_EQ((d.at({0, 0})), 2.f);
}

TEST(BinaryOps, RowBroadcast) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::from_vector({3}, {10, 20, 30});
  Tensor c = a + row;
  EXPECT_FLOAT_EQ((c.at({0, 0})), 11.f);
  EXPECT_FLOAT_EQ((c.at({1, 2})), 36.f);
}

TEST(BinaryOps, ColBroadcast) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::from_vector({2, 1}, {10, 100});
  Tensor c = mul(a, col);
  EXPECT_FLOAT_EQ((c.at({0, 2})), 30.f);
  EXPECT_FLOAT_EQ((c.at({1, 0})), 400.f);
}

TEST(BinaryOps, IncompatibleShapesThrow) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({3, 2});
  EXPECT_EQ(invalid_argument_text([&] { a + b; }),
            "tensor: incompatible shapes for broadcast: [2, 3] vs [3, 2]");
}

TEST(BinaryOps, DivisionByZeroScalarThrows) {
  Tensor a = Tensor::ones({2});
  EXPECT_EQ(invalid_argument_text([&] { a / 0.f; }),
            "tensor: division by zero scalar");
}

// ---- unary ops --------------------------------------------------------------

TEST(UnaryOps, Relu) {
  Tensor a = Tensor::from_vector({4}, {-2, -0.5f, 0, 3});
  Tensor y = relu(a);
  EXPECT_FLOAT_EQ(y.data()[0], 0.f);
  EXPECT_FLOAT_EQ(y.data()[1], 0.f);
  EXPECT_FLOAT_EQ(y.data()[2], 0.f);
  EXPECT_FLOAT_EQ(y.data()[3], 3.f);
}

TEST(UnaryOps, LeakyRelu) {
  Tensor a = Tensor::from_vector({2}, {-10, 10});
  Tensor y = leaky_relu(a, 0.1f);
  EXPECT_FLOAT_EQ(y.data()[0], -1.f);
  EXPECT_FLOAT_EQ(y.data()[1], 10.f);
}

TEST(UnaryOps, SigmoidBounds) {
  Tensor a = Tensor::from_vector({3}, {-100, 0, 100});
  Tensor y = sigmoid(a);
  EXPECT_NEAR(y.data()[0], 0.f, 1e-6);
  EXPECT_FLOAT_EQ(y.data()[1], 0.5f);
  EXPECT_NEAR(y.data()[2], 1.f, 1e-6);
}

TEST(UnaryOps, ExpLog) {
  Tensor a = Tensor::from_vector({2}, {0, 1});
  EXPECT_FLOAT_EQ(exp_op(a).data()[1], std::exp(1.f));
  Tensor b = Tensor::from_vector({2}, {1, std::exp(2.f)});
  EXPECT_NEAR(log_op(b).data()[1], 2.f, 1e-5);
}

TEST(UnaryOps, LogOfNonPositiveThrows) {
  Tensor a = Tensor::from_vector({1}, {-1.f});
  EXPECT_EQ(invalid_argument_text([&] { log_op(a); }),
            "tensor: log of non-positive value -1.000000");
}

TEST(UnaryOps, SqrtOfNegativeThrows) {
  Tensor a = Tensor::from_vector({1}, {-4.f});
  EXPECT_EQ(invalid_argument_text([&] { sqrt_op(a); }),
            "tensor: sqrt of negative value -4.000000");
}

TEST(UnaryOps, SquareAbsNeg) {
  Tensor a = Tensor::from_vector({2}, {-3, 2});
  EXPECT_FLOAT_EQ(square(a).data()[0], 9.f);
  EXPECT_FLOAT_EQ(abs_op(a).data()[0], 3.f);
  EXPECT_FLOAT_EQ(neg(a).data()[1], -2.f);
}

// ---- matmul / transpose -------------------------------------------------------

TEST(MatMul, KnownProduct) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ((c.at({0, 0})), 58.f);
  EXPECT_FLOAT_EQ((c.at({0, 1})), 64.f);
  EXPECT_FLOAT_EQ((c.at({1, 0})), 139.f);
  EXPECT_FLOAT_EQ((c.at({1, 1})), 154.f);
}

TEST(MatMul, InnerDimMismatchThrows) {
  EXPECT_EQ(invalid_argument_text([] {
              matmul(Tensor::zeros({2, 3}), Tensor::zeros({2, 3}));
            }),
            "tensor: matmul inner dimension mismatch: [2, 3] x [2, 3]");
  EXPECT_EQ(invalid_argument_text(
                [] { matmul(Tensor::zeros({6}), Tensor::zeros({2, 3})); }),
            "tensor: matmul requires 2-D tensors, got [6] x [2, 3]");
}

TEST(MatMul, IdentityPreserves) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor eye = Tensor::from_vector({2, 2}, {1, 0, 0, 1});
  Tensor c = matmul(a, eye);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(c.data()[i], a.data()[i]);
}

TEST(Transpose, RoundTrip) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((t.at({2, 1})), 6.f);
  Tensor back = transpose(t);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_FLOAT_EQ(back.data()[i], a.data()[i]);
}

// ---- reductions -----------------------------------------------------------------

TEST(Reductions, SumAndMeanAll) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(sum_all(a).item(), 10.f);
  EXPECT_FLOAT_EQ(mean_all(a).item(), 2.5f);
}

TEST(Reductions, SumAxis0And1) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = sum_axis(a, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.data()[0], 5.f);
  EXPECT_FLOAT_EQ(s0.data()[2], 9.f);
  Tensor s1 = sum_axis(a, 1);
  EXPECT_EQ(s1.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(s1.data()[0], 6.f);
  EXPECT_FLOAT_EQ(s1.data()[1], 15.f);
}

TEST(Reductions, MaxMinAxis0) {
  Tensor a = Tensor::from_vector({3, 2}, {1, 9, 5, 2, 3, 7});
  Tensor mx = max_axis0(a);
  EXPECT_FLOAT_EQ(mx.data()[0], 5.f);
  EXPECT_FLOAT_EQ(mx.data()[1], 9.f);
  Tensor mn = min_axis0(a);
  EXPECT_FLOAT_EQ(mn.data()[0], 1.f);
  EXPECT_FLOAT_EQ(mn.data()[1], 2.f);
}

TEST(Reductions, BadAxisThrows) {
  Tensor a = Tensor::zeros({2, 2});
  EXPECT_EQ(invalid_argument_text([&] { sum_axis(a, 2); }),
            "tensor: sum_axis: axis must be 0 or 1");
}

// ---- shape ops -----------------------------------------------------------------

TEST(ShapeOps, ReshapePreservesData) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((r.at({2, 1})), 6.f);
  EXPECT_THROW(reshape(a, {4, 2}), std::invalid_argument);
}

TEST(ShapeOps, ConcatAxis1) {
  Tensor a = Tensor::from_vector({2, 1}, {1, 2});
  Tensor b = Tensor::from_vector({2, 2}, {3, 4, 5, 6});
  Tensor c = concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ((c.at({0, 0})), 1.f);
  EXPECT_FLOAT_EQ((c.at({0, 1})), 3.f);
  EXPECT_FLOAT_EQ((c.at({1, 2})), 6.f);
}

TEST(ShapeOps, ConcatAxis0) {
  Tensor a = Tensor::from_vector({1, 2}, {1, 2});
  Tensor b = Tensor::from_vector({2, 2}, {3, 4, 5, 6});
  Tensor c = concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((c.at({2, 1})), 6.f);
}

TEST(ShapeOps, ConcatMismatchThrows) {
  EXPECT_EQ(invalid_argument_text([] {
              concat({Tensor::zeros({2, 2}), Tensor::zeros({3, 2})}, 1);
            }),
            "tensor: concat axis=1: row count mismatch");
}

TEST(ShapeOps, GatherRows) {
  Tensor a = Tensor::from_vector({3, 2}, {0, 1, 10, 11, 20, 21});
  std::vector<std::int64_t> idx = {2, 0, 2};
  Tensor g = gather_rows(a, idx);
  EXPECT_EQ(g.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((g.at({0, 0})), 20.f);
  EXPECT_FLOAT_EQ((g.at({1, 1})), 1.f);
  EXPECT_FLOAT_EQ((g.at({2, 0})), 20.f);
}

TEST(ShapeOps, GatherRowsOutOfRangeThrows) {
  Tensor a = Tensor::zeros({2, 2});
  std::vector<std::int64_t> idx = {3};
  EXPECT_EQ(invalid_argument_text([&] { gather_rows(a, idx); }),
            "tensor: gather_rows: index 3 out of range [0, 2)");
}

TEST(ShapeOps, SliceRows) {
  Tensor a = Tensor::from_vector({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor s = slice_rows(a, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ((s.at({0, 0})), 10.f);
  EXPECT_THROW(slice_rows(a, 2, 1), std::invalid_argument);
}

// ---- scatter ----------------------------------------------------------------------

TEST(Scatter, SumGroupsRows) {
  Tensor msgs = Tensor::from_vector({4, 2}, {1, 1, 2, 2, 3, 3, 4, 4});
  std::vector<std::int64_t> idx = {0, 1, 0, 1};
  Tensor out = scatter_reduce(msgs, idx, 2, Reduce::Sum);
  EXPECT_FLOAT_EQ((out.at({0, 0})), 4.f);
  EXPECT_FLOAT_EQ((out.at({1, 0})), 6.f);
}

TEST(Scatter, MeanDividesByDegree) {
  Tensor msgs = Tensor::from_vector({3, 1}, {3, 6, 9});
  std::vector<std::int64_t> idx = {0, 0, 1};
  Tensor out = scatter_reduce(msgs, idx, 3, Reduce::Mean);
  EXPECT_FLOAT_EQ((out.at({0, 0})), 4.5f);
  EXPECT_FLOAT_EQ((out.at({1, 0})), 9.f);
  EXPECT_FLOAT_EQ((out.at({2, 0})), 0.f);  // isolated node
}

TEST(Scatter, MaxPicksLargestPerChannel) {
  Tensor msgs = Tensor::from_vector({3, 2}, {1, 9, 5, 2, -1, -2});
  std::vector<std::int64_t> idx = {0, 0, 1};
  Tensor out = scatter_reduce(msgs, idx, 2, Reduce::Max);
  EXPECT_FLOAT_EQ((out.at({0, 0})), 5.f);
  EXPECT_FLOAT_EQ((out.at({0, 1})), 9.f);
  EXPECT_FLOAT_EQ((out.at({1, 0})), -1.f);
}

TEST(Scatter, MinPicksSmallest) {
  Tensor msgs = Tensor::from_vector({2, 1}, {3, -4});
  std::vector<std::int64_t> idx = {0, 0};
  Tensor out = scatter_reduce(msgs, idx, 1, Reduce::Min);
  EXPECT_FLOAT_EQ((out.at({0, 0})), -4.f);
}

TEST(Scatter, EmptyNodeRowsAreZero) {
  Tensor msgs = Tensor::from_vector({1, 2}, {7, 8});
  std::vector<std::int64_t> idx = {2};
  Tensor out = scatter_reduce(msgs, idx, 4, Reduce::Max);
  EXPECT_FLOAT_EQ((out.at({0, 0})), 0.f);
  EXPECT_FLOAT_EQ((out.at({2, 1})), 8.f);
  EXPECT_FLOAT_EQ((out.at({3, 1})), 0.f);
}

TEST(Scatter, IndexOutOfRangeThrows) {
  Tensor msgs = Tensor::ones({1, 1});
  std::vector<std::int64_t> idx = {5};
  EXPECT_EQ(invalid_argument_text(
                [&] { scatter_reduce(msgs, idx, 2, Reduce::Sum); }),
            "tensor: scatter_reduce: index out of range");
}

// ---- softmax & losses -----------------------------------------------------------

TEST(Softmax, RowsSumToOne) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = softmax(a);
  for (int r = 0; r < 2; ++r) {
    float row = 0.f;
    for (int c = 0; c < 3; ++c) row += s.at({r, c});
    EXPECT_NEAR(row, 1.f, 1e-6);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor a = Tensor::from_vector({1, 2}, {1000.f, 1001.f});
  Tensor s = softmax(a);
  EXPECT_NEAR((s.at({0, 1})), 1.f / (1.f + std::exp(-1.f)), 1e-5);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  Tensor a = Tensor::from_vector({1, 3}, {0.5f, -0.2f, 1.f});
  Tensor ls = log_softmax(a);
  Tensor s = softmax(a);
  for (int c = 0; c < 3; ++c)
    EXPECT_NEAR((ls.at({0, c})), std::log(s.at({0, c})), 1e-5);
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits = Tensor::zeros({4, 10});
  std::vector<std::int64_t> labels = {0, 3, 7, 9};
  Tensor loss = cross_entropy(logits, labels);
  EXPECT_NEAR(loss.item(), std::log(10.f), 1e-5);
}

TEST(CrossEntropy, PerfectPredictionNearZero) {
  Tensor logits = Tensor::from_vector({1, 3}, {100.f, 0.f, 0.f});
  std::vector<std::int64_t> labels = {0};
  EXPECT_NEAR(cross_entropy(logits, labels).item(), 0.f, 1e-5);
}

TEST(CrossEntropy, LabelOutOfRangeThrows) {
  Tensor logits = Tensor::zeros({1, 3});
  std::vector<std::int64_t> labels = {3};
  EXPECT_EQ(invalid_argument_text([&] { cross_entropy(logits, labels); }),
            "tensor: cross_entropy: label out of range");
}

// ---- dropout ----------------------------------------------------------------------

TEST(Dropout, IdentityInEvalMode) {
  Rng rng(1);
  Tensor a = Tensor::ones({10});
  Tensor y = dropout(a, 0.5f, /*training=*/false, rng);
  for (float v : y.data()) EXPECT_FLOAT_EQ(v, 1.f);
}

TEST(Dropout, ScalesSurvivors) {
  Rng rng(2);
  Tensor a = Tensor::ones({1000});
  Tensor y = dropout(a, 0.5f, /*training=*/true, rng);
  int zeros = 0;
  for (float v : y.data()) {
    EXPECT_TRUE(v == 0.f || v == 2.f);
    if (v == 0.f) ++zeros;
  }
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.07);
}

TEST(Dropout, InvalidProbabilityThrows) {
  Rng rng(3);
  Tensor a = Tensor::ones({2});
  EXPECT_EQ(invalid_argument_text([&] { dropout(a, 1.f, true, rng); }),
            "tensor: dropout: p must be in [0, 1)");
  EXPECT_EQ(invalid_argument_text([&] { dropout(a, -0.1f, true, rng); }),
            "tensor: dropout: p must be in [0, 1)");
}

// ---- helpers ----------------------------------------------------------------------

TEST(ArgmaxRows, PicksLargest) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 5, 2, 9, 0, 3});
  auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(ShapeHelpers, NumelAndToString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

// ---- argument checks ----------------------------------------------------------------

// HG_CHECK builds its message only on failure: on the success path the
// message expression — in hot loops, a std::to_string per element or per
// edge — never runs.
TEST(Check, MessageIsBuiltOnlyWhenTheCheckFails) {
  constexpr char kCheckScope[] = "unit: ";
  int built = 0;
  auto message = [&built] { return "call " + std::to_string(++built); };
  for (int i = 0; i < 100; ++i) HG_CHECK(i < 100, message());
  EXPECT_EQ(built, 0);
  EXPECT_EQ(invalid_argument_text([&] { HG_CHECK(built > 0, message()); }),
            "unit: call 1");
  EXPECT_EQ(built, 1);
}

}  // namespace
}  // namespace hg
