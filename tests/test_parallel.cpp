// Parallel execution backbone: parallel_for semantics, bit-exact
// thread-count invariance of the tensor/GNN/graph kernels, the fused
// aggregation against its materializing reference, and the concurrent
// search path with the candidate memo cache.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "gnn/gnn.hpp"
#include "graph/graph.hpp"
#include "hgnas/search.hpp"
#include "hgnas/serialize_arch.hpp"
#include "nn/nn.hpp"
#include "predictor/predictor.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace hg {
namespace {

using core::ScopedNumThreads;

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ScopedNumThreads threads(4);
  std::vector<std::atomic<int>> hits(1000);
  core::parallel_for(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  ScopedNumThreads threads(4);
  EXPECT_THROW(
      core::parallel_for(0, 100, 1,
                         [](std::int64_t lo, std::int64_t) {
                           if (lo >= 0) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ScopedNumThreads threads(4);
  std::atomic<int> total{0};
  core::parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_TRUE(core::in_parallel_region());
    core::parallel_for(lo * 10, hi * 10, 1,
                       [&](std::int64_t l, std::int64_t h) {
                         total += static_cast<int>(h - l);
                       });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ParallelFor, ScopedOverrideRestoresWidth) {
  const std::int64_t before = core::num_threads();
  {
    ScopedNumThreads threads(3);
    EXPECT_EQ(core::num_threads(), 3);
  }
  EXPECT_EQ(core::num_threads(), before);
}

// ---- kernel thread-count invariance ----------------------------------------

std::vector<float> random_values(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

/// Reference naive matmul (the historical triple loop, verbatim).
std::vector<float> naive_matmul(const std::vector<float>& a,
                                const std::vector<float>& b, std::int64_t m,
                                std::int64_t k, std::int64_t n) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.f);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[static_cast<std::size_t>(i * k + p)];
      if (av == 0.f) continue;
      for (std::int64_t j = 0; j < n; ++j)
        c[static_cast<std::size_t>(i * n + j)] +=
            av * b[static_cast<std::size_t>(p * n + j)];
    }
  return c;
}

TEST(ParallelKernels, BlockedMatmulBitExactVsNaiveForAnyThreadCount) {
  // Large enough that the row grain actually forks at 4 threads.
  const std::int64_t m = 256, k = 64, n = 48;
  Rng rng(7);
  const auto av = random_values(static_cast<std::size_t>(m * k), rng);
  const auto bv = random_values(static_cast<std::size_t>(k * n), rng);
  const auto ref = naive_matmul(av, bv, m, k, n);

  for (const std::int64_t threads : {1, 2, 4}) {
    ScopedNumThreads scoped(threads);
    Tensor a = Tensor::from_vector({m, k}, av);
    Tensor b = Tensor::from_vector({k, n}, bv);
    Tensor c = matmul(a, b);
    ASSERT_EQ(c.numel(), m * n);
    for (std::int64_t i = 0; i < c.numel(); ++i)
      ASSERT_EQ(c.data()[i], ref[static_cast<std::size_t>(i)])
          << "threads=" << threads << " element " << i;
  }
}

TEST(ParallelKernels, MatmulBackwardBitExactAcrossThreadCounts) {
  const std::int64_t m = 192, k = 40, n = 56;
  Rng rng(11);
  const auto av = random_values(static_cast<std::size_t>(m * k), rng);
  const auto bv = random_values(static_cast<std::size_t>(k * n), rng);
  std::vector<float> seed(static_cast<std::size_t>(m * n));
  for (std::size_t i = 0; i < seed.size(); ++i)
    seed[i] = static_cast<float>(static_cast<int>(i % 13) - 6) * 0.25f;

  std::vector<float> ga_ref, gb_ref;
  for (const std::int64_t threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    Tensor a = Tensor::from_vector({m, k}, av, /*requires_grad=*/true);
    Tensor b = Tensor::from_vector({k, n}, bv, /*requires_grad=*/true);
    Tensor c = matmul(a, b);
    c.backward(seed);
    if (threads == 1) {
      ga_ref.assign(a.grad().begin(), a.grad().end());
      gb_ref.assign(b.grad().begin(), b.grad().end());
    } else {
      for (std::size_t i = 0; i < ga_ref.size(); ++i)
        ASSERT_EQ(a.grad()[i], ga_ref[i]) << "ga " << i;
      for (std::size_t i = 0; i < gb_ref.size(); ++i)
        ASSERT_EQ(b.grad()[i], gb_ref[i]) << "gb " << i;
    }
  }
}

TEST(ParallelKernels, BlockedTransposeIsExactInverse) {
  ScopedNumThreads scoped(4);
  Rng rng(13);
  const std::int64_t r = 173, c = 91;
  const auto v = random_values(static_cast<std::size_t>(r * c), rng);
  Tensor a = Tensor::from_vector({r, c}, v);
  Tensor t = transpose(a);
  ASSERT_EQ(t.shape(), (Shape{c, r}));
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j)
      ASSERT_EQ(t.at({j, i}), a.at({i, j}));
  Tensor back = transpose(t);
  for (std::int64_t i = 0; i < r * c; ++i)
    ASSERT_EQ(back.data()[i], v[static_cast<std::size_t>(i)]);
}

// ---- elementwise kernels against scalar reference loops --------------------

bool same_bits(float x, float y) {
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

/// Shapes on both sides of the elementwise fork grain (1 << 15 elements),
/// with odd widths so no row is a multiple of a vector length.
const std::vector<std::pair<std::int64_t, std::int64_t>> kElemShapes = {
    {1, 1}, {7, 5}, {32, 16}, {181, 181}, {300, 131}, {1024, 67}};

// Every binary op in every broadcast case — exact, scalar right-hand side
// (as a tensor and as a float), [C] row and [R, 1] column — matches the
// per-element loop `a[i] op b[rhs(i)]` bit for bit at any pool width.
TEST(ElementwiseKernels, BinaryOpsMatchScalarReferenceInEveryBroadcast) {
  struct Op {
    const char* name;
    Tensor (*tensor_op)(const Tensor&, const Tensor&);
    Tensor (*float_op)(const Tensor&, float);
    float (*ref)(float, float);
  };
  const Op ops[] = {
      {"add", add, add, [](float x, float y) { return x + y; }},
      {"sub", sub, sub, [](float x, float y) { return x - y; }},
      {"mul", mul, mul, [](float x, float y) { return x * y; }},
      {"div", div, div, [](float x, float y) { return x / y; }},
  };
  for (const auto& [rows, cols] : kElemShapes) {
    Rng rng(static_cast<std::uint64_t>(rows * 1000 + cols));
    const auto av = random_values(static_cast<std::size_t>(rows * cols), rng);
    const auto full = random_values(av.size(), rng);
    const auto row = random_values(static_cast<std::size_t>(cols), rng);
    const auto col = random_values(static_cast<std::size_t>(rows), rng);
    const float s = rng.normal();
    struct Rhs {
      const char* name;
      Tensor b;
      std::function<float(std::int64_t, std::int64_t)> at;  // (r, c) -> b
    };
    const Rhs cases[] = {
        {"exact", Tensor::from_vector({rows, cols}, full),
         [&](std::int64_t r, std::int64_t c) {
           return full[static_cast<std::size_t>(r * cols + c)];
         }},
        {"scalar", Tensor::scalar(s),
         [&](std::int64_t, std::int64_t) { return s; }},
        {"row", Tensor::from_vector({cols}, row),
         [&](std::int64_t, std::int64_t c) {
           return row[static_cast<std::size_t>(c)];
         }},
        {"col", Tensor::from_vector({rows, 1}, col),
         [&](std::int64_t r, std::int64_t) {
           return col[static_cast<std::size_t>(r)];
         }},
    };
    const Tensor a = Tensor::from_vector({rows, cols}, av);
    for (const std::int64_t threads : {1, 2, 3}) {
      ScopedNumThreads scoped(threads);
      for (const Op& op : ops) {
        for (const Rhs& rhs : cases) {
          SCOPED_TRACE(std::string(op.name) + " " + rhs.name + " [" +
                       std::to_string(rows) + ", " + std::to_string(cols) +
                       "] threads=" + std::to_string(threads));
          const Tensor y = op.tensor_op(a, rhs.b);
          ASSERT_EQ(y.shape(), a.shape());
          for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t c = 0; c < cols; ++c) {
              const std::int64_t i = r * cols + c;
              ASSERT_TRUE(same_bits(
                  y.data()[i],
                  op.ref(av[static_cast<std::size_t>(i)], rhs.at(r, c))))
                  << "element " << i;
            }
        }
        const Tensor y = op.float_op(a, s);
        for (std::int64_t i = 0; i < a.numel(); ++i)
          ASSERT_TRUE(same_bits(y.data()[i],
                                op.ref(av[static_cast<std::size_t>(i)], s)))
              << op.name << " float rhs, element " << i;
      }
    }
  }
}

// The backward of every binary op in every broadcast case matches the
// historical per-element loops bit for bit: the lhs gradient is
// 0 + g[i] * d(a op b)/da, and each rhs gradient element sums its terms
// from 0 in ascending element order. Both operands, only a, and only b
// requiring grad are covered, at pool widths 1, 2 and 3.
TEST(ElementwiseKernels, BinaryBackwardMatchesScalarReferenceInEveryBroadcast) {
  enum class Kind { Add, Sub, Mul, Div };
  struct Op {
    const char* name;
    Tensor (*tensor_op)(const Tensor&, const Tensor&);
    Kind kind;
  };
  const Op ops[] = {{"add", add, Kind::Add},
                    {"sub", sub, Kind::Sub},
                    {"mul", mul, Kind::Mul},
                    {"div", div, Kind::Div}};
  for (const auto& [rows, cols] : kElemShapes) {
    Rng rng(static_cast<std::uint64_t>(rows * 31 + cols));
    const std::size_t n = static_cast<std::size_t>(rows * cols);
    const auto av = random_values(n, rng);
    const auto seed = random_values(n, rng);
    struct Rhs {
      const char* name;
      Shape shape;
      std::vector<float> values;
      std::function<std::size_t(std::size_t)> index;  // element -> rhs
    };
    const auto ucols = static_cast<std::size_t>(cols);
    const Rhs cases[] = {
        {"exact", {rows, cols}, random_values(n, rng),
         [](std::size_t i) { return i; }},
        {"scalar", {}, random_values(1, rng), [](std::size_t) { return 0; }},
        {"row", {cols}, random_values(ucols, rng),
         [ucols](std::size_t i) { return i % ucols; }},
        {"col", {rows, 1}, random_values(static_cast<std::size_t>(rows), rng),
         [ucols](std::size_t i) { return i / ucols; }},
    };
    for (const std::int64_t threads : {1, 2, 3}) {
      ScopedNumThreads scoped(threads);
      for (const Op& op : ops) {
        for (const Rhs& rhs : cases) {
          for (const int grads : {3, 1, 2}) {  // bit 0: a, bit 1: b
            SCOPED_TRACE(std::string(op.name) + " " + rhs.name + " [" +
                         std::to_string(rows) + ", " + std::to_string(cols) +
                         "] threads=" + std::to_string(threads) +
                         " grads=" + std::to_string(grads));
            Tensor a = Tensor::from_vector({rows, cols}, av, (grads & 1) != 0);
            Tensor b = Tensor::from_vector(rhs.shape, rhs.values,
                                           (grads & 2) != 0);
            op.tensor_op(a, b).backward(seed);
            const std::vector<float>& bv = rhs.values;
            std::vector<float> gb(bv.size(), 0.f);
            for (std::size_t i = 0; i < n; ++i) {
              const std::size_t j = rhs.index(i);
              const float g = seed[i];
              float ga = g, term = g;
              switch (op.kind) {
                case Kind::Add: break;
                case Kind::Sub: term = -g; break;
                case Kind::Mul:
                  ga = g * bv[j];
                  term = g * av[i];
                  break;
                case Kind::Div:
                  ga = g / bv[j];
                  term = -g * av[i] / (bv[j] * bv[j]);
                  break;
              }
              gb[j] += term;
              if (grads & 1) {
                ASSERT_TRUE(same_bits(a.grad()[i], 0.f + ga)) << "a " << i;
              }
            }
            EXPECT_EQ(a.has_grad(), (grads & 1) != 0);
            EXPECT_EQ(b.has_grad(), (grads & 2) != 0);
            if (grads & 2) {
              for (std::size_t j = 0; j < gb.size(); ++j)
                ASSERT_TRUE(same_bits(b.grad()[j], 0.f + gb[j])) << "b " << j;
            }
          }
        }
      }
    }
  }
}

// Every unary op matches `f(x)` evaluated one element at a time.
TEST(ElementwiseKernels, UnaryOpsMatchScalarReference) {
  struct Op {
    const char* name;
    std::function<Tensor(const Tensor&)> op;
    float (*ref)(float);
    bool positive_input;
  };
  const Op ops[] = {
      {"relu", relu, [](float x) { return x > 0.f ? x : 0.f; }, false},
      {"leaky_relu", [](const Tensor& t) { return leaky_relu(t, 0.2f); },
       [](float x) { return x > 0.f ? x : 0.2f * x; }, false},
      {"sigmoid", sigmoid,
       [](float x) { return 1.f / (1.f + std::exp(-x)); }, false},
      {"tanh", tanh_op, [](float x) { return std::tanh(x); }, false},
      {"exp", exp_op, [](float x) { return std::exp(x); }, false},
      {"log", log_op, [](float x) { return std::log(x); }, true},
      {"sqrt", sqrt_op, [](float x) { return std::sqrt(x); }, true},
      {"square", square, [](float x) { return x * x; }, false},
      {"abs", abs_op, [](float x) { return std::fabs(x); }, false},
      {"neg", neg, [](float x) { return -x; }, false},
  };
  for (const auto& [rows, cols] : kElemShapes) {
    Rng rng(static_cast<std::uint64_t>(rows * 7 + cols));
    auto xv = random_values(static_cast<std::size_t>(rows * cols), rng);
    std::vector<float> pos(xv.size());
    for (std::size_t i = 0; i < xv.size(); ++i)
      pos[i] = std::fabs(xv[i]) + 1e-3f;
    const Tensor x = Tensor::from_vector({rows, cols}, xv);
    const Tensor xp = Tensor::from_vector({rows, cols}, pos);
    for (const std::int64_t threads : {1, 2, 3}) {
      ScopedNumThreads scoped(threads);
      for (const Op& op : ops) {
        SCOPED_TRACE(std::string(op.name) + " [" + std::to_string(rows) +
                     ", " + std::to_string(cols) +
                     "] threads=" + std::to_string(threads));
        const std::vector<float>& in = op.positive_input ? pos : xv;
        const Tensor y = op.op(op.positive_input ? xp : x);
        ASSERT_EQ(y.shape(), x.shape());
        for (std::size_t i = 0; i < in.size(); ++i)
          ASSERT_TRUE(same_bits(y.data()[i], op.ref(in[i]))) << "element " << i;
      }
    }
  }
}

TEST(ParallelKernels, ScatterReduceBitExactAcrossThreadCounts) {
  const std::int64_t e = 6000, c = 16, nodes = 700;
  Rng rng(17);
  const auto msg = random_values(static_cast<std::size_t>(e * c), rng);
  std::vector<std::int64_t> index(static_cast<std::size_t>(e));
  for (auto& i : index)
    i = static_cast<std::int64_t>(rng.uniform_int(
        static_cast<std::uint64_t>(nodes)));
  std::vector<float> seed(static_cast<std::size_t>(nodes * c));
  for (std::size_t i = 0; i < seed.size(); ++i)
    seed[i] = static_cast<float>(static_cast<int>(i % 9) - 4) * 0.5f;

  for (const Reduce reduce :
       {Reduce::Sum, Reduce::Mean, Reduce::Max, Reduce::Min}) {
    std::vector<float> out_ref, grad_ref;
    for (const std::int64_t threads : {1, 2, 4}) {
      ScopedNumThreads scoped(threads);
      Tensor m = Tensor::from_vector({e, c}, msg, /*requires_grad=*/true);
      Tensor out = scatter_reduce(m, index, nodes, reduce);
      out.backward(seed);
      if (threads == 1) {
        out_ref.assign(out.data().begin(), out.data().end());
        grad_ref.assign(m.grad().begin(), m.grad().end());
      } else {
        for (std::size_t i = 0; i < out_ref.size(); ++i)
          ASSERT_EQ(out.data()[static_cast<std::int64_t>(i)], out_ref[i])
              << "reduce " << static_cast<int>(reduce) << " out " << i;
        for (std::size_t i = 0; i < grad_ref.size(); ++i)
          ASSERT_EQ(m.grad()[i], grad_ref[i])
              << "reduce " << static_cast<int>(reduce) << " grad " << i;
      }
    }
  }
}

TEST(ParallelKernels, KnnGraphsIdenticalAcrossThreadCounts) {
  Rng rng(19);
  const std::int64_t n = 600, k = 12;
  const auto pts = random_values(static_cast<std::size_t>(n * 3), rng);
  const auto feats = random_values(static_cast<std::size_t>(n * 8), rng);

  graph::EdgeList brute1, grid1, feat1;
  {
    ScopedNumThreads scoped(1);
    brute1 = graph::knn_graph_brute(pts, n, k);
    grid1 = graph::knn_graph_grid(pts, n, k);
    feat1 = graph::knn_graph_features(feats, n, 8, k);
  }
  ScopedNumThreads scoped(4);
  const graph::EdgeList brute4 = graph::knn_graph_brute(pts, n, k);
  const graph::EdgeList grid4 = graph::knn_graph_grid(pts, n, k);
  const graph::EdgeList feat4 = graph::knn_graph_features(feats, n, 8, k);
  EXPECT_EQ(brute1.src, brute4.src);
  EXPECT_EQ(brute1.dst, brute4.dst);
  EXPECT_EQ(grid1.src, grid4.src);
  EXPECT_EQ(grid1.dst, grid4.dst);
  EXPECT_EQ(feat1.src, feat4.src);
  EXPECT_EQ(feat1.dst, feat4.dst);
}

// ---- fused aggregation ------------------------------------------------------

TEST(FusedAggregate, MatchesMaterializedReferenceForAllCombos) {
  ScopedNumThreads scoped(4);
  Rng rng(23);
  const std::int64_t n = 60, c = 5, k = 7;
  const auto pts = random_values(static_cast<std::size_t>(n * 3), rng);
  const graph::EdgeList g = graph::knn_graph_brute(pts, n, 3);
  (void)k;
  const auto xv = random_values(static_cast<std::size_t>(n * c), rng);

  for (std::int64_t mi = 0; mi < gnn::kNumMessageTypes; ++mi) {
    const auto mt = static_cast<gnn::MessageType>(mi);
    const std::int64_t m = gnn::message_dim(mt, c);
    std::vector<float> seed(static_cast<std::size_t>(n * m));
    for (std::size_t i = 0; i < seed.size(); ++i)
      seed[i] = static_cast<float>(static_cast<int>(i % 7) - 3) * 0.5f;
    for (const Reduce reduce :
         {Reduce::Sum, Reduce::Mean, Reduce::Max, Reduce::Min}) {
      Tensor x_ref = Tensor::from_vector({n, c}, xv, /*requires_grad=*/true);
      Tensor y_ref = gnn::aggregate_materialized(x_ref, g, mt, reduce);
      y_ref.backward(seed);

      Tensor x_fused = Tensor::from_vector({n, c}, xv, /*requires_grad=*/true);
      Tensor y_fused = gnn::aggregate(x_fused, g, mt, reduce);
      y_fused.backward(seed);

      ASSERT_EQ(y_fused.shape(), y_ref.shape())
          << gnn::message_type_name(mt);
      for (std::int64_t i = 0; i < y_ref.numel(); ++i)
        ASSERT_EQ(y_fused.data()[i], y_ref.data()[i])
            << gnn::message_type_name(mt) << " reduce "
            << static_cast<int>(reduce) << " out " << i;
      ASSERT_EQ(x_fused.grad().size(), x_ref.grad().size());
      for (std::size_t i = 0; i < x_ref.grad().size(); ++i)
        ASSERT_EQ(x_fused.grad()[i], x_ref.grad()[i])
            << gnn::message_type_name(mt) << " reduce "
            << static_cast<int>(reduce) << " grad " << i;
    }
  }
}

TEST(FusedAggregate, DispatchIsThreadCountInvariant) {
  Rng rng(29);
  const std::int64_t n = 80, c = 6;
  const auto pts = random_values(static_cast<std::size_t>(n * 3), rng);
  const graph::EdgeList g = graph::knn_graph_brute(pts, n, 5);
  const auto xv = random_values(static_cast<std::size_t>(n * c), rng);
  std::vector<float> seed(static_cast<std::size_t>(n * 2 * c), 1.f);

  std::vector<float> out_ref, grad_ref;
  for (const std::int64_t threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    Tensor x = Tensor::from_vector({n, c}, xv, /*requires_grad=*/true);
    // aggregate() runs the fused kernel at every width; width 1 runs it
    // inline, width 4 splits it, and the bits must not move.
    Tensor y = gnn::aggregate(x, g, gnn::MessageType::TargetRel, Reduce::Max);
    y.backward(seed);
    if (threads == 1) {
      out_ref.assign(y.data().begin(), y.data().end());
      grad_ref.assign(x.grad().begin(), x.grad().end());
    } else {
      for (std::size_t i = 0; i < out_ref.size(); ++i)
        ASSERT_EQ(y.data()[static_cast<std::int64_t>(i)], out_ref[i]);
      for (std::size_t i = 0; i < grad_ref.size(); ++i)
        ASSERT_EQ(x.grad()[i], grad_ref[i]);
    }
  }
}

TEST(FusedAggregate, EdgeConvForwardBackwardThreadCountInvariant) {
  Rng init_rng(31);
  gnn::EdgeConv conv(6, 8, init_rng);
  conv.set_training(false);
  Rng rng(37);
  const std::int64_t n = 120;
  const auto pts = random_values(static_cast<std::size_t>(n * 3), rng);
  const graph::EdgeList g = graph::knn_graph(pts, n, 9);
  const auto xv = random_values(static_cast<std::size_t>(n * 6), rng);
  std::vector<float> seed(static_cast<std::size_t>(n * 8), 0.5f);

  std::vector<float> out_ref;
  std::vector<std::vector<float>> param_grads_ref;
  for (const std::int64_t threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    for (auto& p : conv.parameters()) p.zero_grad();
    Tensor x = Tensor::from_vector({n, 6}, xv, /*requires_grad=*/true);
    Tensor y = conv.forward(x, g);
    y.backward(seed);
    if (threads == 1) {
      out_ref.assign(y.data().begin(), y.data().end());
      for (const auto& p : conv.parameters())
        param_grads_ref.emplace_back(p.grad().begin(), p.grad().end());
    } else {
      for (std::size_t i = 0; i < out_ref.size(); ++i)
        ASSERT_EQ(y.data()[static_cast<std::int64_t>(i)], out_ref[i]);
      const auto params = conv.parameters();
      for (std::size_t pi = 0; pi < params.size(); ++pi)
        for (std::size_t i = 0; i < param_grads_ref[pi].size(); ++i)
          ASSERT_EQ(params[pi].grad()[i], param_grads_ref[pi][i])
              << "param " << pi << " grad " << i;
    }
  }
}

// ---- concurrent search ------------------------------------------------------

struct TinySearchFixture {
  hgnas::SpaceConfig space;
  hgnas::SupernetConfig sn_cfg;
  pointcloud::Dataset data;

  TinySearchFixture() : data(4, 32, 21) {
    space.num_positions = 1;  // ~40 canonical genomes: revisits guaranteed
    sn_cfg.hidden = 8;
    sn_cfg.k = 6;
    sn_cfg.num_classes = 10;
    sn_cfg.head_hidden = 16;
  }

  hgnas::SearchConfig make_cfg() const {
    hgnas::SearchConfig cfg;
    cfg.space = space;
    cfg.workload.num_points = 256;
    cfg.workload.k = 10;
    cfg.workload.num_classes = 10;
    cfg.population = 8;
    cfg.parents = 4;
    cfg.iterations = 12;
    cfg.eval_val_samples = 4;
    cfg.function_paths_per_eval = 1;
    cfg.train_supernet = false;  // weights fixed: scores are reproducible
    cfg.latency_scale_ms = 50.0;
    return cfg;
  }

  hgnas::SearchResult run_random(bool use_cache, std::int64_t threads) {
    ScopedNumThreads scoped(threads);
    Rng init_rng(5);
    hgnas::SuperNet supernet(space, sn_cfg, init_rng);
    hgnas::SearchConfig cfg = make_cfg();
    cfg.use_eval_cache = use_cache;
    hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
    hgnas::HgnasSearch search(supernet, data, cfg,
                              hgnas::make_oracle_evaluator(dev, cfg.workload));
    Rng rng(99);
    return search.run_random(rng);
  }

  hgnas::SearchResult run_multistage(std::int64_t threads) {
    ScopedNumThreads scoped(threads);
    Rng init_rng(5);
    // Stage 2 fixes the functions, shrinking the canonical space to
    // 4^positions operation layouts; it must stay comfortably above the
    // deduplicated population + offspring count or the fill loop starves.
    hgnas::SpaceConfig wide = space;
    wide.num_positions = 4;
    hgnas::SuperNet supernet(wide, sn_cfg, init_rng);
    hgnas::SearchConfig cfg = make_cfg();
    cfg.space = wide;
    cfg.iterations = 3;
    hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
    hgnas::HgnasSearch search(supernet, data, cfg,
                              hgnas::make_oracle_evaluator(dev, cfg.workload));
    Rng rng(99);
    return search.run_multistage(rng);
  }
};

TEST(ConcurrentSearch, MemoCacheSkipsRevisitsWithoutChangingTheResult) {
  TinySearchFixture f;
  const hgnas::SearchResult with_cache = f.run_random(true, 4);
  const hgnas::SearchResult without_cache = f.run_random(false, 4);

  // The tiny space guarantees revisits; the cache must absorb them.
  EXPECT_GT(with_cache.eval_cache_hits, 0);
  EXPECT_EQ(without_cache.eval_cache_hits, 0);
  EXPECT_LT(with_cache.latency_queries, without_cache.latency_queries);
  // Genome-derived probe streams make the cached and re-evaluated runs
  // land on the same winner with the same score.
  EXPECT_EQ(hgnas::arch_to_text(with_cache.best_arch),
            hgnas::arch_to_text(without_cache.best_arch));
  EXPECT_DOUBLE_EQ(with_cache.best_objective, without_cache.best_objective);
}

TEST(ConcurrentSearch, BatchPathDeterministicAcrossThreadCounts) {
  TinySearchFixture f;
  const hgnas::SearchResult r2 = f.run_multistage(2);
  const hgnas::SearchResult r4 = f.run_multistage(4);
  EXPECT_EQ(hgnas::arch_to_text(r2.best_arch),
            hgnas::arch_to_text(r4.best_arch));
  EXPECT_DOUBLE_EQ(r2.best_objective, r4.best_objective);
  EXPECT_DOUBLE_EQ(r2.best_supernet_acc, r4.best_supernet_acc);
  EXPECT_EQ(r2.latency_queries, r4.latency_queries);
  EXPECT_EQ(r2.accuracy_probes, r4.accuracy_probes);
  // The in-loop Pareto frontier is part of the deterministic contract.
  ASSERT_EQ(r2.frontier.size(), r4.frontier.size());
  for (std::size_t i = 0; i < r2.frontier.size(); ++i) {
    EXPECT_DOUBLE_EQ(r2.frontier[i].accuracy, r4.frontier[i].accuracy);
    EXPECT_DOUBLE_EQ(r2.frontier[i].latency_ms, r4.frontier[i].latency_ms);
  }
}

TEST(ConcurrentSearch, SharedCacheCarriesScoresAcrossSearches) {
  // Two searches over a frozen supernet, one shared EvalCache: the second
  // run's revisits of genomes the first run scored are cache hits, and the
  // outcome is identical to running with a cold private cache (probe RNG
  // streams are genome-derived on the batch path).
  TinySearchFixture f;
  ScopedNumThreads scoped(4);
  Rng init_rng(5);
  hgnas::SuperNet supernet(f.space, f.sn_cfg, init_rng);
  hgnas::SearchConfig cfg = f.make_cfg();
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto oracle = hgnas::make_oracle_evaluator(dev, cfg.workload);

  hgnas::EvalCache shared;
  hgnas::HgnasSearch first(supernet, f.data, cfg, oracle, &shared);
  Rng rng_a(99);
  const hgnas::SearchResult warm = first.run_random(rng_a);
  EXPECT_GT(shared.size(), 0);

  hgnas::HgnasSearch second(supernet, f.data, cfg, oracle, &shared);
  Rng rng_b(123);
  const hgnas::SearchResult with_shared = second.run_random(rng_b);
  // The tiny space guarantees overlap with the first run's scores.
  EXPECT_GT(with_shared.eval_cache_hits, 0);

  // Same second search on a cold private cache: identical outcome, more
  // evaluations.
  hgnas::HgnasSearch cold(supernet, f.data, cfg, oracle);
  Rng rng_c(123);
  const hgnas::SearchResult without_shared = cold.run_random(rng_c);
  EXPECT_EQ(hgnas::arch_to_text(with_shared.best_arch),
            hgnas::arch_to_text(without_shared.best_arch));
  EXPECT_DOUBLE_EQ(with_shared.best_objective,
                   without_shared.best_objective);
  EXPECT_LT(with_shared.latency_queries, without_shared.latency_queries);
  (void)warm;
}

TEST(ConcurrentSearch, EvalCacheScopeClearsOnChangeOnly) {
  hgnas::EvalCache cache;
  cache.open_scope("scope-a");
  hgnas::ScoredCandidate s;
  s.fitness = 0.5;
  cache.insert("scope-a", "genome", s);
  ASSERT_EQ(cache.size(), 1);

  cache.open_scope("scope-a");  // unchanged scope keeps entries
  hgnas::ScoredCandidate out;
  EXPECT_TRUE(cache.lookup("scope-a", "genome", &out));
  EXPECT_DOUBLE_EQ(out.fitness, 0.5);

  cache.open_scope("scope-b");  // any change — evaluator, objective,
  EXPECT_EQ(cache.size(), 0);   // supernet weight version — starts cold
  EXPECT_FALSE(cache.lookup("scope-b", "genome", &out));
}

TEST(ConcurrentSearch, EvalCacheRejectsStaleScopeTraffic) {
  // A search that re-scoped the cache must be immune to another search
  // still holding the old scope: stale lookups miss, stale inserts drop.
  hgnas::EvalCache cache;
  cache.open_scope("scope-a");
  hgnas::ScoredCandidate s;
  s.fitness = 0.5;
  cache.insert("scope-a", "genome", s);

  cache.open_scope("scope-b");
  hgnas::ScoredCandidate out;
  EXPECT_FALSE(cache.lookup("scope-a", "genome", &out));  // stale reader
  cache.insert("scope-a", "genome", s);                   // stale writer
  EXPECT_EQ(cache.size(), 0);
  cache.insert("scope-b", "genome", s);
  EXPECT_TRUE(cache.lookup("scope-b", "genome", &out));
}

TEST(ConcurrentSearch, EvalCacheSaveIsAtomicUnderConcurrentTraffic) {
  // save() persists while other threads hammer the shards: every file an
  // observer reads back must be a COMPLETE save (the tmp-file + rename
  // commit means a reader never sees a torn write), and the shard/scope
  // locking must hold up — under TSan this test is the data-race probe
  // for the whole EvalCache locking story.
  hgnas::SpaceConfig space;
  space.num_positions = 2;
  Rng arch_rng(7);
  const hgnas::Arch arch = hgnas::random_arch(space, arch_rng);
  const std::string path =
      ::testing::TempDir() + "evalcache_stress_cache.txt";
  std::remove(path.c_str());

  hgnas::EvalCache cache;
  cache.open_scope("stress-scope");

  constexpr int kWriters = 3;
  constexpr int kInsertsPerWriter = 300;
  constexpr int kSaveRounds = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> torn_files{0};

  std::thread saver([&] {
    for (int round = 0; round < kSaveRounds && !stop; ++round) {
      ASSERT_TRUE(cache.save(path));
      // load() is all-or-nothing, so a false here (or a scope mismatch)
      // means the rename commit let a partial file through.
      hgnas::EvalCache observer;
      if (!observer.load(path) || observer.scope() != "stress-scope")
        ++torn_files;
    }
    stop = true;
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      hgnas::ScoredCandidate s;
      s.arch = arch;
      s.acc = 0.25;
      s.latency_ms = 1.5;
      s.raw_latency_ms = 1.5;
      s.is_feasible = true;
      hgnas::ScoredCandidate out;
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        const std::string key =
            "genome-" + std::to_string(w) + "-" + std::to_string(i);
        s.fitness = static_cast<double>(w * kInsertsPerWriter + i);
        cache.insert("stress-scope", key, s);
        EXPECT_TRUE(cache.lookup("stress-scope", key, &out));
        // Re-read a neighbour too: cross-shard lookups while save() walks
        // every shard.
        cache.lookup("stress-scope", "genome-0-" + std::to_string(i), &out);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop = true;
  saver.join();

  EXPECT_EQ(torn_files.load(), 0);
  // A final quiescent save must round-trip every entry.
  ASSERT_TRUE(cache.save(path));
  hgnas::EvalCache reloaded;
  ASSERT_TRUE(reloaded.load(path));
  EXPECT_EQ(reloaded.size(), kWriters * kInsertsPerWriter);
  hgnas::ScoredCandidate out;
  EXPECT_TRUE(reloaded.lookup("stress-scope", "genome-1-7", &out));
  EXPECT_DOUBLE_EQ(out.fitness, 1 * kInsertsPerWriter + 7);
  std::remove(path.c_str());
}

TEST(ConcurrentSearch, WeightVersionTracksEveryWeightMutation) {
  // The supernet weight version is what folds retraining into the cache
  // scope: any train_epoch or reinitialize must bump it.
  pointcloud::Dataset data(4, 32, 21);
  hgnas::SpaceConfig space;
  space.num_positions = 2;
  hgnas::SupernetConfig sn_cfg;
  sn_cfg.hidden = 8;
  sn_cfg.k = 6;
  sn_cfg.num_classes = 10;
  sn_cfg.head_hidden = 16;
  Rng rng(3);
  hgnas::SuperNet net(space, sn_cfg, rng);
  EXPECT_EQ(net.weight_version(), 0);
  net.reinitialize(rng);
  EXPECT_EQ(net.weight_version(), 1);
  Adam opt(net.parameters(), 1e-3f);
  auto sampler = [&](Rng& r) { return hgnas::random_arch(space, r); };
  net.train_epoch(data.train(), sampler, opt, 8, rng);
  EXPECT_EQ(net.weight_version(), 2);
}

// ---- parallel supernet training ---------------------------------------------

TEST(ParallelTraining, TrainEpochDeterministicAcrossThreadCounts) {
  pointcloud::Dataset data(4, 32, 21);
  hgnas::SpaceConfig space;
  space.num_positions = 3;
  hgnas::SupernetConfig sn_cfg;
  sn_cfg.hidden = 8;
  sn_cfg.k = 6;
  sn_cfg.num_classes = 10;
  sn_cfg.head_hidden = 16;

  auto run = [&](std::int64_t threads) {
    ScopedNumThreads scoped(threads);
    Rng init_rng(3);
    hgnas::SuperNet net(space, sn_cfg, init_rng);
    Adam opt(net.parameters(), 1e-3f);
    auto sampler = [&](Rng& r) { return hgnas::random_arch(space, r); };
    Rng rng(11);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e)
      loss = net.train_epoch(data.train(), sampler, opt, 8, rng);
    std::vector<std::vector<float>> params;
    for (const auto& p : net.parameters())
      params.emplace_back(p.data().begin(), p.data().end());
    return std::make_pair(loss, params);
  };

  const auto [loss1, params1] = run(1);
  for (const std::int64_t threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const auto [loss, params] = run(threads);
    EXPECT_EQ(loss, loss1);
    ASSERT_EQ(params.size(), params1.size());
    for (std::size_t p = 0; p < params1.size(); ++p)
      for (std::size_t i = 0; i < params1[p].size(); ++i)
        ASSERT_EQ(params[p][i], params1[p][i]) << "param " << p << " " << i;
  }
}

/// The parameters of a small model whose samples exercise the replay
/// order: `w` is used twice in every sample (x·W·W), `v` only by even
/// samples, and `bias` broadcast over every row. A training-mode
/// BatchNorm1d normalises every sample and updates its running statistics.
struct ReplayModel {
  Tensor w, v, bias;
  nn::BatchNorm1d bn{4};
  std::vector<Tensor> inputs;  // one [3, 4] input per sample

  explicit ReplayModel(std::int64_t samples) {
    Rng rng(5);
    w = Tensor::randn({4, 4}, rng, 0.f, 0.5f, true);
    v = Tensor::randn({4, 4}, rng, 0.f, 0.5f, true);
    bias = Tensor::randn({4}, rng, 0.f, 0.5f, true);
    for (std::int64_t i = 0; i < samples; ++i)
      inputs.push_back(Tensor::randn({3, 4}, rng));
  }

  Tensor loss(std::int64_t i) {
    const Tensor& x = inputs[static_cast<std::size_t>(i)];
    Tensor h = matmul(matmul(x, w), w);
    if (i % 2 == 0) h = add(h, matmul(x, v));
    return mean_all(square(tanh_op(add(bn.forward(h), bias))));
  }

  std::vector<Tensor> params() const {
    std::vector<Tensor> out = {w, v, bias};
    for (const Tensor& p : bn.parameters()) out.push_back(p);
    return out;
  }

  std::vector<std::vector<float>> grads() const {
    std::vector<std::vector<float>> out;
    for (const Tensor& p : params())
      out.emplace_back(p.grad().begin(), p.grad().end());
    return out;
  }

  /// The running mean, then the running variance.
  std::vector<float> running_stats() const {
    std::vector<float> out(bn.running_mean().begin(), bn.running_mean().end());
    out.insert(out.end(), bn.running_var().begin(), bn.running_var().end());
    return out;
  }

  bool any_grad() const {
    for (const Tensor& p : params())
      if (p.has_grad()) return true;
    return false;
  }
};

// nn::DataParallelStep applies each parameter the same accumulate_grad
// calls, with the same floats in the same order, as the plain per-sample
// backward() loop, at every pool width: for a parameter used twice in one
// sample, one some samples never touch, and a broadcast bias, over two
// steps that accumulate without zero_grad between them. The BatchNorm's
// running statistics, updated by every training forward, end bit-equal
// too.
TEST(ParallelTraining, DataParallelStepMatchesSerialLoopBitForBit) {
  constexpr std::int64_t kSamples = 7;
  ReplayModel serial(kSamples);
  std::vector<float> serial_losses;
  for (int step = 0; step < 2; ++step)
    for (std::int64_t i = 0; i < kSamples; ++i) {
      Tensor loss = serial.loss(i);
      loss.backward();
      serial_losses.push_back(loss.item());
    }
  const auto expected = serial.grads();
  const std::vector<float> expected_stats = serial.running_stats();
  ASSERT_NE(expected_stats, ReplayModel(kSamples).running_stats());

  for (const std::int64_t threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    ScopedNumThreads scoped(threads);
    ReplayModel model(kSamples);
    nn::DataParallelStep step;
    std::vector<float> losses;
    for (int s = 0; s < 2; ++s) {
      const std::vector<float> l = step.run(
          kSamples, [&](std::int64_t i) { return model.loss(i); });
      losses.insert(losses.end(), l.begin(), l.end());
    }
    ASSERT_EQ(losses.size(), serial_losses.size());
    for (std::size_t i = 0; i < losses.size(); ++i)
      EXPECT_TRUE(same_bits(losses[i], serial_losses[i])) << "loss " << i;
    const auto got = model.grads();
    for (std::size_t p = 0; p < expected.size(); ++p) {
      ASSERT_EQ(got[p].size(), expected[p].size()) << "param " << p;
      for (std::size_t i = 0; i < expected[p].size(); ++i)
        ASSERT_TRUE(same_bits(got[p][i], expected[p][i]))
            << "param " << p << " element " << i;
    }
    const std::vector<float> stats = model.running_stats();
    ASSERT_EQ(stats.size(), expected_stats.size());
    for (std::size_t i = 0; i < stats.size(); ++i)
      EXPECT_TRUE(same_bits(stats[i], expected_stats[i])) << "stat " << i;
  }
}

// A single-row training forward reads the BatchNorm's running statistics,
// which inside a step still lack earlier samples' updates. It throws
// instead, and the step applies nothing: no gradient and none of the other
// samples' running-statistic updates.
TEST(ParallelTraining, DataParallelStepRefusesSingleRowBatchNormForward) {
  constexpr std::int64_t kSamples = 6;
  for (const std::int64_t threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    ScopedNumThreads scoped(threads);
    ReplayModel model(kSamples);
    const std::vector<float> initial = model.running_stats();
    nn::DataParallelStep step;
    EXPECT_THROW(step.run(kSamples,
                          [&](std::int64_t i) {
                            if (i != 4) return model.loss(i);
                            return sum_all(model.bn.forward(
                                slice_rows(model.inputs[4], 0, 1)));
                          }),
                 std::logic_error);
    EXPECT_FALSE(model.any_grad());
    EXPECT_EQ(model.running_stats(), initial);
    // Outside a step the same forward reads the running statistics.
    EXPECT_NO_THROW(model.bn.forward(slice_rows(model.inputs[4], 0, 1)));
  }
}

// A sample that throws fails the whole step: the exception reaches the
// caller, no parameter receives any contribution, and no pool thread keeps
// a sink installed, so later backward passes, serial or on the pool,
// accumulate as usual and the same step object still replays correctly.
// Calling run() from inside a sample is refused the same way.
TEST(ParallelTraining, DataParallelStepFailureAppliesNothingAndUninstallsSinks) {
  constexpr std::int64_t kSamples = 9;
  ReplayModel reference(kSamples);
  for (std::int64_t i = 0; i < kSamples; ++i) reference.loss(i).backward();
  const auto expected = reference.grads();

  for (const std::int64_t threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    ScopedNumThreads scoped(threads);
    ReplayModel model(kSamples);
    nn::DataParallelStep step;
    EXPECT_THROW(step.run(kSamples,
                          [&](std::int64_t i) {
                            if (i == 5) throw std::runtime_error("sample 5");
                            return model.loss(i);
                          }),
                 std::runtime_error);
    EXPECT_THROW(step.run(kSamples,
                          [&](std::int64_t i) {
                            nn::DataParallelStep inner;
                            inner.run(1, [&](std::int64_t) {
                              return model.loss(i);
                            });
                            return model.loss(i);
                          }),
                 std::logic_error);
    EXPECT_FALSE(model.any_grad());
    EXPECT_EQ(model.running_stats(), ReplayModel(kSamples).running_stats());

    // Backward passes on pool threads after the failure: each adds into
    // its own leaf.
    std::atomic<int> diverted{0};
    std::vector<Tensor> leaves;
    for (int t = 0; t < 64; ++t)
      leaves.push_back(Tensor::full({2}, 1.f, /*requires_grad=*/true));
    core::parallel_invoke(64, [&](std::int64_t t) {
      if (detail::installed_grad_sink() != nullptr) ++diverted;
      sum_all(mul(leaves[static_cast<std::size_t>(t)], 3.f)).backward();
    });
    EXPECT_EQ(diverted.load(), 0);
    for (const Tensor& leaf : leaves) {
      ASSERT_TRUE(leaf.has_grad());
      EXPECT_EQ(leaf.grad()[0], 3.f);
      EXPECT_EQ(leaf.grad()[1], 3.f);
    }

    // A serial backward() on the caller accumulates as usual...
    EXPECT_EQ(detail::installed_grad_sink(), nullptr);
    model.loss(0).backward();
    EXPECT_TRUE(model.w.has_grad());
    for (Tensor& p : model.params()) p.zero_grad();
    // ...and the failed step left nothing behind to replay.
    step.run(kSamples, [&](std::int64_t i) { return model.loss(i); });
    const auto got = model.grads();
    for (std::size_t p = 0; p < expected.size(); ++p) {
      ASSERT_EQ(got[p].size(), expected[p].size()) << "param " << p;
      for (std::size_t i = 0; i < expected[p].size(); ++i)
        ASSERT_TRUE(same_bits(got[p][i], expected[p][i]))
            << "param " << p << " element " << i;
    }
  }
}

TEST(ParallelTraining, CollectLabeledArchsDeterministicAcrossThreadCounts) {
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  hgnas::SpaceConfig space;
  space.num_positions = 4;
  hgnas::Workload w;
  w.num_points = 256;
  w.k = 10;
  w.num_classes = 10;

  auto collect = [&](std::int64_t threads) {
    ScopedNumThreads scoped(threads);
    return predictor::collect_labeled_archs(dev, space, w, 50, 77);
  };
  const auto r1 = collect(1);
  ASSERT_EQ(r1.size(), 50u);
  for (const std::int64_t threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const auto r = collect(threads);
    ASSERT_EQ(r.size(), r1.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(hgnas::arch_to_text(r[i].arch),
                hgnas::arch_to_text(r1[i].arch));
      EXPECT_EQ(r[i].latency_ms, r1[i].latency_ms);
    }
  }
}

}  // namespace
}  // namespace hg
