// hg::simd — the vectorized inner loops behind matmul, the fused GNN
// aggregate, and the KNN distance kernels. The contract under test is
// BIT-IDENTITY: the dispatched entry points (AVX2 under HG_NATIVE=ON,
// scalar otherwise) must produce exactly the bytes of the scalar
// reference for every helper, every length (remainder lanes included),
// and for the edge semantics the kernels rely on (first-winner ties,
// NaN challengers, unset argmax lanes). On top of the helpers, the
// public ops that call them (matmul forward/backward, aggregate,
// the KNN builders) are checked against naive in-test references that
// spell out the historical arithmetic order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <array>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/simd.hpp"
#include "gnn/gnn.hpp"
#include "graph/graph.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace hg {
namespace {

/// Lengths that cover empty, sub-lane, exact-lane, and remainder cases
/// for 8-wide AVX2 (n % 8 takes every value).
const std::int64_t kLengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 31, 33, 100};

std::vector<float> random_floats(std::size_t n, Rng& rng, float lo = -4.f,
                                 float hi = 4.f) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

/// Bitwise equality — EXPECT_EQ on floats would conflate -0.f and 0.f
/// and reject NaN == NaN; the contract here is "same bytes".
::testing::AssertionResult bits_equal(const std::vector<float>& a,
                                      const std::vector<float>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size " << a.size() << " vs "
                                         << b.size();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
        return ::testing::AssertionFailure()
               << "element " << i << ": " << a[i] << " vs " << b[i];
  }
  return ::testing::AssertionSuccess();
}

TEST(SimdHelpers, AxpyMatchesScalarBitwise) {
  Rng rng(11);
  for (const std::int64_t n : kLengths) {
    for (const float a : {0.5f, -1.25f, 0.f, 3e-3f}) {
      const auto src = random_floats(static_cast<std::size_t>(n), rng);
      auto dst = random_floats(static_cast<std::size_t>(n), rng);
      auto ref = dst;
      simd::axpy(dst.data(), a, src.data(), n);
      simd::scalar::axpy(ref.data(), a, src.data(), n);
      EXPECT_TRUE(bits_equal(dst, ref)) << "n=" << n << " a=" << a;
    }
  }
}

TEST(SimdHelpers, AccumulateMatchesScalarBitwise) {
  Rng rng(12);
  for (const std::int64_t n : kLengths) {
    const auto src = random_floats(static_cast<std::size_t>(n), rng);
    auto dst = random_floats(static_cast<std::size_t>(n), rng);
    auto ref = dst;
    simd::accumulate(dst.data(), src.data(), n);
    simd::scalar::accumulate(ref.data(), src.data(), n);
    EXPECT_TRUE(bits_equal(dst, ref)) << "n=" << n;
  }
}

TEST(SimdHelpers, SubMatchesScalarBitwise) {
  Rng rng(13);
  for (const std::int64_t n : kLengths) {
    const auto a = random_floats(static_cast<std::size_t>(n), rng);
    const auto b = random_floats(static_cast<std::size_t>(n), rng);
    std::vector<float> dst(static_cast<std::size_t>(n)),
        ref(static_cast<std::size_t>(n));
    simd::sub(dst.data(), a.data(), b.data(), n);
    simd::scalar::sub(ref.data(), a.data(), b.data(), n);
    EXPECT_TRUE(bits_equal(dst, ref)) << "n=" << n;
  }
}

TEST(SimdHelpers, ScaleInvMatchesScalarBitwise) {
  Rng rng(14);
  for (const std::int64_t n : kLengths) {
    for (const float d : {3.f, 7.f, 0.1f, 1.f}) {
      auto dst = random_floats(static_cast<std::size_t>(n), rng);
      auto ref = dst;
      simd::scale_inv(dst.data(), d, n);
      simd::scalar::scale_inv(ref.data(), d, n);
      EXPECT_TRUE(bits_equal(dst, ref)) << "n=" << n << " d=" << d;
    }
  }
}

TEST(SimdHelpers, ExtremalUpdateMatchesScalarBitwise) {
  Rng rng(15);
  for (const std::int64_t n : kLengths) {
    for (const bool is_max : {true, false}) {
      auto out = random_floats(static_cast<std::size_t>(n), rng);
      std::vector<std::int64_t> arg(static_cast<std::size_t>(n));
      // A mix of unset (-1) and already-claimed lanes.
      for (std::size_t j = 0; j < arg.size(); ++j)
        arg[j] = (j % 3 == 0) ? -1 : static_cast<std::int64_t>(j % 5);
      auto msg = random_floats(static_cast<std::size_t>(n), rng);
      // Force exact ties on some lanes: first winner must be kept.
      for (std::size_t j = 0; j + 1 < msg.size(); j += 4) msg[j] = out[j];

      auto out_ref = out;
      auto arg_ref = arg;
      simd::extremal_update(out.data(), arg.data(), msg.data(), 7, n, is_max);
      simd::scalar::extremal_update(out_ref.data(), arg_ref.data(),
                                    msg.data(), 7, n, is_max);
      EXPECT_TRUE(bits_equal(out, out_ref)) << "n=" << n;
      EXPECT_EQ(arg, arg_ref) << "n=" << n << " is_max=" << is_max;
    }
  }
}

TEST(SimdHelpers, ExtremalUpdateEdgeSemantics) {
  // 9 lanes (one full AVX2 vector + one remainder lane), exercising the
  // three semantic rules lane by lane:
  //   - an unset lane (arg < 0) always takes the challenger, even NaN;
  //   - a tie keeps the incumbent (strict comparison);
  //   - a NaN challenger never beats a claimed lane (quiet compare).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const bool is_max : {true, false}) {
    std::vector<float> out = {1.f, 1.f, 1.f, 1.f, 1.f, 1.f, 1.f, 1.f, 1.f};
    std::vector<float> msg = {1.f, nan, 2.f, -2.f, nan, 1.f, 2.f, -2.f, nan};
    std::vector<std::int64_t> arg = {3, -1, 3, 3, 3, -1, -1, -1, 3};
    auto out_ref = out;
    auto arg_ref = arg;
    simd::extremal_update(out.data(), arg.data(), msg.data(), 9, 9, is_max);
    simd::scalar::extremal_update(out_ref.data(), arg_ref.data(), msg.data(),
                                  9, 9, is_max);
    EXPECT_TRUE(bits_equal(out, out_ref)) << "is_max=" << is_max;
    EXPECT_EQ(arg, arg_ref) << "is_max=" << is_max;
    // Spot-check the scalar semantics themselves.
    EXPECT_EQ(arg_ref[0], 3);                  // tie: incumbent keeps
    EXPECT_EQ(arg_ref[1], 9);                  // unset takes even NaN
    EXPECT_EQ(arg_ref[2], is_max ? 9 : 3);     // 2 beats 1 only for max
    EXPECT_EQ(arg_ref[3], is_max ? 3 : 9);     // -2 beats 1 only for min
    EXPECT_EQ(arg_ref[4], 3);                  // NaN never beats a claim
    EXPECT_EQ(arg_ref[8], 3);                  // remainder lane, same rule
  }
}

TEST(SimdHelpers, SqDist3MatchesScalarBitwise) {
  Rng rng(16);
  for (const std::int64_t n : kLengths) {
    const auto xs = random_floats(static_cast<std::size_t>(n), rng);
    const auto ys = random_floats(static_cast<std::size_t>(n), rng);
    const auto zs = random_floats(static_cast<std::size_t>(n), rng);
    std::vector<float> dist(static_cast<std::size_t>(n)),
        ref(static_cast<std::size_t>(n));
    simd::sq_dist3(dist.data(), 0.3f, -1.7f, 2.9f, xs.data(), ys.data(),
                   zs.data(), n);
    simd::scalar::sq_dist3(ref.data(), 0.3f, -1.7f, 2.9f, xs.data(),
                           ys.data(), zs.data(), n);
    EXPECT_TRUE(bits_equal(dist, ref)) << "n=" << n;
  }
}

TEST(SimdHelpers, DistAccumulateMatchesScalarBitwise) {
  Rng rng(17);
  for (const std::int64_t n : kLengths) {
    const auto row = random_floats(static_cast<std::size_t>(n), rng);
    auto dist = random_floats(static_cast<std::size_t>(n), rng, 0.f, 10.f);
    auto ref = dist;
    simd::dist_accumulate(dist.data(), -0.8f, row.data(), n);
    simd::scalar::dist_accumulate(ref.data(), -0.8f, row.data(), n);
    EXPECT_TRUE(bits_equal(dist, ref)) << "n=" << n;
  }
}

// ---- the ops built on the helpers ------------------------------------------

/// Naive c[i,j] = sum_p a[i,p] * b[p,j], accumulated in ascending p with
/// one mul+add per step — the historical matmul order.
std::vector<float> naive_matmul(const std::vector<float>& a,
                                const std::vector<float>& b, std::int64_t m,
                                std::int64_t k, std::int64_t n) {
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.f;
      for (std::int64_t p = 0; p < k; ++p)
        acc += a[static_cast<std::size_t>(i * k + p)] *
               b[static_cast<std::size_t>(p * n + j)];
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  return c;
}

TEST(SimdOps, MatmulForwardBitIdenticalToNaiveReference) {
  Rng rng(21);
  for (const auto [m, k, n] :
       {std::array<std::int64_t, 3>{1, 1, 1},
        std::array<std::int64_t, 3>{3, 5, 7},
        std::array<std::int64_t, 3>{8, 8, 8},
        std::array<std::int64_t, 3>{9, 17, 13},
        std::array<std::int64_t, 3>{16, 31, 33}}) {
    const auto av = random_floats(static_cast<std::size_t>(m * k), rng);
    const auto bv = random_floats(static_cast<std::size_t>(k * n), rng);
    const Tensor a = Tensor::from_vector({m, k}, av);
    const Tensor b = Tensor::from_vector({k, n}, bv);
    const Tensor c = matmul(a, b);
    const std::vector<float> ref = naive_matmul(av, bv, m, k, n);
    ASSERT_EQ(c.numel(), static_cast<std::int64_t>(ref.size()));
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(c.data()[i], ref[i])
          << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
  }
}

TEST(SimdOps, MatmulBackwardBitIdenticalToNaiveReference) {
  // The backward pass runs the other two kernels: ga = g @ b^T
  // (raw_matmul_a_bt) and gb = a^T @ g (raw_matmul_at_b). References
  // accumulate in ascending p exactly like the kernels' axpy form.
  Rng rng(22);
  for (const auto [m, k, n] :
       {std::array<std::int64_t, 3>{3, 5, 7},
        std::array<std::int64_t, 3>{9, 17, 13},
        std::array<std::int64_t, 3>{16, 9, 31}}) {
    const auto av = random_floats(static_cast<std::size_t>(m * k), rng);
    const auto bv = random_floats(static_cast<std::size_t>(k * n), rng);
    std::vector<float> seed(static_cast<std::size_t>(m * n));
    for (std::size_t i = 0; i < seed.size(); ++i)
      seed[i] = static_cast<float>(static_cast<int>(i % 5) - 2) * 0.75f;

    Tensor a = Tensor::from_vector({m, k}, av, /*requires_grad=*/true);
    Tensor b = Tensor::from_vector({k, n}, bv, /*requires_grad=*/true);
    Tensor c = matmul(a, b);
    c.backward(seed);

    // ga[i,p] = sum_j g[i,j] * b[p,j] — ascending j.
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t p = 0; p < k; ++p) {
        float acc = 0.f;
        for (std::int64_t j = 0; j < n; ++j)
          acc += seed[static_cast<std::size_t>(i * n + j)] *
                 bv[static_cast<std::size_t>(p * n + j)];
        ASSERT_EQ(a.grad()[static_cast<std::size_t>(i * k + p)], acc)
            << "ga " << i << "," << p;
      }
    // gb[p,j] = sum_i a[i,p] * g[i,j] — ascending i.
    for (std::int64_t p = 0; p < k; ++p)
      for (std::int64_t j = 0; j < n; ++j) {
        float acc = 0.f;
        for (std::int64_t i = 0; i < m; ++i)
          acc += av[static_cast<std::size_t>(i * k + p)] *
                 seed[static_cast<std::size_t>(i * n + j)];
        ASSERT_EQ(b.grad()[static_cast<std::size_t>(p * n + j)], acc)
            << "gb " << p << "," << j;
      }
  }
}

TEST(SimdOps, FusedAggregateMatrixBitIdenticalToMaterialized) {
  // Every MessageType x Reduce combination, on a channel count (9) that
  // leaves a remainder lane in every 8-wide helper call. (The same
  // matrix runs at larger sizes and across thread counts in
  // test_parallel.cpp; this instance pins the SIMD remainder handling.)
  Rng rng(23);
  const std::int64_t nodes = 13, c = 9;
  graph::EdgeList g = graph::random_graph(nodes, 4, rng);
  g.num_nodes = nodes;
  const auto xv = random_floats(static_cast<std::size_t>(nodes * c), rng);

  for (std::int64_t mi = 0; mi < gnn::kNumMessageTypes; ++mi) {
    const auto mt = static_cast<gnn::MessageType>(mi);
    const std::int64_t md = gnn::message_dim(mt, c);
    std::vector<float> seed(static_cast<std::size_t>(nodes * md));
    for (std::size_t i = 0; i < seed.size(); ++i)
      seed[i] = static_cast<float>(static_cast<int>(i % 7) - 3) * 0.5f;
    for (const Reduce reduce :
         {Reduce::Sum, Reduce::Mean, Reduce::Max, Reduce::Min}) {
      Tensor x_ref = Tensor::from_vector({nodes, c}, xv, true);
      Tensor y_ref = gnn::aggregate_materialized(x_ref, g, mt, reduce);
      y_ref.backward(seed);
      Tensor x_fused = Tensor::from_vector({nodes, c}, xv, true);
      Tensor y_fused = gnn::aggregate(x_fused, g, mt, reduce);
      y_fused.backward(seed);
      ASSERT_EQ(y_fused.shape(), y_ref.shape());
      for (std::int64_t i = 0; i < y_ref.numel(); ++i)
        ASSERT_EQ(y_fused.data()[i], y_ref.data()[i])
            << gnn::message_type_name(mt) << "/"
            << static_cast<int>(reduce) << " out " << i;
      for (std::size_t i = 0; i < x_ref.grad().size(); ++i)
        ASSERT_EQ(x_fused.grad()[i], x_ref.grad()[i])
            << gnn::message_type_name(mt) << "/"
            << static_cast<int>(reduce) << " grad " << i;
    }
  }
}

TEST(SimdOps, KnnBruteMatchesNaiveReference) {
  // The SoA distance kernel must not change a single neighbour choice:
  // same distances bit-for-bit means same selection, ties included.
  Rng rng(24);
  const std::int64_t n = 37, k = 5;
  const auto pts = random_floats(static_cast<std::size_t>(n * 3), rng);
  const graph::EdgeList g =
      graph::knn_graph_brute(std::span<const float>(pts), n, k);

  ASSERT_EQ(g.num_edges(), n * k);
  for (std::int64_t i = 0; i < n; ++i) {
    // Naive per-query reference: scalar distances, same selection rule
    // (partial sort by (dist, index)).
    std::vector<std::pair<float, std::int64_t>> cand;
    for (std::int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const float dx = pts[static_cast<std::size_t>(i * 3)] -
                       pts[static_cast<std::size_t>(j * 3)];
      const float dy = pts[static_cast<std::size_t>(i * 3 + 1)] -
                       pts[static_cast<std::size_t>(j * 3 + 1)];
      const float dz = pts[static_cast<std::size_t>(i * 3 + 2)] -
                       pts[static_cast<std::size_t>(j * 3 + 2)];
      cand.emplace_back(dx * dx + dy * dy + dz * dz, j);
    }
    std::sort(cand.begin(), cand.end());
    std::vector<std::int64_t> expect;
    for (std::int64_t e = 0; e < k; ++e)
      expect.push_back(cand[static_cast<std::size_t>(e)].second);
    std::sort(expect.begin(), expect.end());

    std::vector<std::int64_t> got;
    for (std::int64_t e = 0; e < g.num_edges(); ++e)
      if (g.dst[static_cast<std::size_t>(e)] == i)
        got.push_back(g.src[static_cast<std::size_t>(e)]);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expect) << "query " << i;
  }
}

TEST(SimdOps, KnnFeaturesMatchesNaiveReference) {
  // Feature-space KNN with dim=9: the transposed dist_accumulate sweep
  // (one dimension at a time) must equal the naive per-pair scalar sum,
  // which accumulates dimensions in the same ascending order.
  Rng rng(25);
  const std::int64_t n = 29, dim = 9, k = 4;
  const auto feats = random_floats(static_cast<std::size_t>(n * dim), rng);
  const graph::EdgeList g =
      graph::knn_graph_features(std::span<const float>(feats), n, dim, k);

  ASSERT_EQ(g.num_edges(), n * k);
  for (std::int64_t i = 0; i < n; ++i) {
    std::vector<std::pair<float, std::int64_t>> cand;
    for (std::int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      float acc = 0.f;
      for (std::int64_t d = 0; d < dim; ++d) {
        const float diff = feats[static_cast<std::size_t>(i * dim + d)] -
                           feats[static_cast<std::size_t>(j * dim + d)];
        acc += diff * diff;
      }
      cand.emplace_back(acc, j);
    }
    std::sort(cand.begin(), cand.end());
    std::vector<std::int64_t> expect;
    for (std::int64_t e = 0; e < k; ++e)
      expect.push_back(cand[static_cast<std::size_t>(e)].second);
    std::sort(expect.begin(), expect.end());

    std::vector<std::int64_t> got;
    for (std::int64_t e = 0; e < g.num_edges(); ++e)
      if (g.dst[static_cast<std::size_t>(e)] == i)
        got.push_back(g.src[static_cast<std::size_t>(e)]);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expect) << "query " << i;
  }
}

}  // namespace
}  // namespace hg
