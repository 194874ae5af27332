#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"

namespace hg::graph {

namespace {

constexpr char kCheckScope[] = "graph: ";

float sq_dist3(const float* a, const float* b) {
  const float dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace

Csr to_csr(const EdgeList& edges) {
  Csr csr;
  csr.num_nodes = edges.num_nodes;
  csr.row_ptr.assign(static_cast<std::size_t>(edges.num_nodes) + 1, 0);
  for (auto d : edges.dst) {
    HG_CHECK(d >= 0 && d < edges.num_nodes, "to_csr: dst out of range");
    ++csr.row_ptr[static_cast<std::size_t>(d) + 1];
  }
  std::partial_sum(csr.row_ptr.begin(), csr.row_ptr.end(),
                   csr.row_ptr.begin());
  csr.neighbors.resize(edges.src.size());
  std::vector<std::int64_t> cursor(csr.row_ptr.begin(),
                                   csr.row_ptr.end() - 1);
  for (std::size_t e = 0; e < edges.src.size(); ++e) {
    const auto s = edges.src[e];
    HG_CHECK(s >= 0 && s < edges.num_nodes, "to_csr: src out of range");
    csr.neighbors[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(edges.dst[e])]++)] = s;
  }
  return csr;
}

EdgeList knn_graph_brute(std::span<const float> points, std::int64_t n,
                         std::int64_t k) {
  HG_CHECK(n >= 0, "knn: negative n");
  HG_CHECK(static_cast<std::int64_t>(points.size()) == n * 3,
           "knn: points span must be n*3 floats");
  HG_CHECK(k > 0, "knn: k must be positive");
  EdgeList out;
  out.num_nodes = n;
  if (n <= 1) return out;
  const std::int64_t kk = std::min<std::int64_t>(k, n - 1);
  // Every node emits exactly kk edges, so each one owns a fixed slot range
  // of the preallocated edge arrays and the queries parallelise without any
  // ordering change.
  out.src.resize(static_cast<std::size_t>(n * kk));
  out.dst.resize(static_cast<std::size_t>(n * kk));

  // Coordinates split once into planes so the per-query distance pass
  // vectorizes over candidates (core/simd.hpp). Each dist[j] is the exact
  // dx*dx + dy*dy + dz*dz of the historical AoS sq_dist3, so the candidate
  // ordering (and thus the graph) is unchanged.
  std::vector<float> xs(static_cast<std::size_t>(n)),
      ys(static_cast<std::size_t>(n)), zs(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = points[static_cast<std::size_t>(i * 3)];
    ys[static_cast<std::size_t>(i)] =
        points[static_cast<std::size_t>(i * 3 + 1)];
    zs[static_cast<std::size_t>(i)] =
        points[static_cast<std::size_t>(i * 3 + 2)];
  }

  core::parallel_for(
      0, n, std::max<std::int64_t>(1, (1 << 18) / n),
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<float> dist(static_cast<std::size_t>(n));
        std::vector<std::pair<float, std::int64_t>> cand(
            static_cast<std::size_t>(n - 1));
        for (std::int64_t i = lo; i < hi; ++i) {
          const float* pi = points.data() + i * 3;
          simd::sq_dist3(dist.data(), pi[0], pi[1], pi[2], xs.data(),
                         ys.data(), zs.data(), n);
          std::size_t c = 0;
          for (std::int64_t j = 0; j < n; ++j) {
            if (j == i) continue;
            cand[c++] = {dist[static_cast<std::size_t>(j)], j};
          }
          std::partial_sort(cand.begin(), cand.begin() + kk, cand.end());
          for (std::int64_t m = 0; m < kk; ++m) {
            out.src[static_cast<std::size_t>(i * kk + m)] =
                cand[static_cast<std::size_t>(m)].second;
            out.dst[static_cast<std::size_t>(i * kk + m)] = i;
          }
        }
      });
  return out;
}

EdgeList knn_graph_grid(std::span<const float> points, std::int64_t n,
                        std::int64_t k) {
  HG_CHECK(static_cast<std::int64_t>(points.size()) == n * 3,
           "knn: points span must be n*3 floats");
  HG_CHECK(k > 0, "knn: k must be positive");
  EdgeList out;
  out.num_nodes = n;
  if (n <= 1) return out;
  const std::int64_t kk = std::min<std::int64_t>(k, n - 1);

  // Bounding box.
  float lo[3] = {points[0], points[1], points[2]};
  float hi[3] = {points[0], points[1], points[2]};
  for (std::int64_t i = 1; i < n; ++i)
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], points[i * 3 + d]);
      hi[d] = std::max(hi[d], points[i * 3 + d]);
    }
  const float extent =
      std::max({hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2], 1e-6f});
  // Cell size targets ~k points per cell assuming uniform density in a cube.
  const float density_side =
      extent / std::cbrt(static_cast<float>(n) /
                         std::max<float>(1.f, static_cast<float>(kk)));
  const float cell = std::max(density_side, extent / 64.f);
  const auto grid_dim = [&](int d) {
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>((hi[d] - lo[d]) / cell) + 1);
  };
  const std::int64_t gx = grid_dim(0), gy = grid_dim(1), gz = grid_dim(2);

  auto cell_of = [&](std::int64_t i, int d) {
    const float v = points[i * 3 + d] - lo[d];
    auto c = static_cast<std::int64_t>(v / cell);
    const std::int64_t g = d == 0 ? gx : (d == 1 ? gy : gz);
    return std::clamp<std::int64_t>(c, 0, g - 1);
  };
  auto flat = [&](std::int64_t cx, std::int64_t cy, std::int64_t cz) {
    return (cx * gy + cy) * gz + cz;
  };

  std::unordered_map<std::int64_t, std::vector<std::int64_t>> bins;
  bins.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    bins[flat(cell_of(i, 0), cell_of(i, 1), cell_of(i, 2))].push_back(i);

  // Per-node slot buffers: queries run in parallel (the bins are read-only
  // once built), then a serial compaction re-emits the edges in exactly the
  // node-major order the sequential loop produced.
  std::vector<std::int64_t> slot_src(static_cast<std::size_t>(n * kk));
  std::vector<std::int64_t> taken(static_cast<std::size_t>(n), 0);

  core::parallel_for(
      0, n, std::max<std::int64_t>(1, 8192 / (kk + 1)),
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::pair<float, std::int64_t>> cand;
        for (std::int64_t i = lo; i < hi; ++i) {
          const float* pi = points.data() + i * 3;
          const std::int64_t cx = cell_of(i, 0), cy = cell_of(i, 1),
                             cz = cell_of(i, 2);
          cand.clear();
          // Expand rings of cells until the kth-best distance is provably
          // exact: all unexplored cells lie at distance > ring_inner_dist
          // >= kth-best.
          const std::int64_t max_ring = std::max({gx, gy, gz});
          for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
            const bool had_enough =
                static_cast<std::int64_t>(cand.size()) >= kk;
            float kth = std::numeric_limits<float>::infinity();
            if (had_enough) {
              std::nth_element(
                  cand.begin(), cand.begin() + kk - 1, cand.end());
              kth = cand[static_cast<std::size_t>(kk - 1)].first;
              const float ring_inner = (static_cast<float>(ring) - 1.f) * cell;
              if (ring_inner > 0.f && ring_inner * ring_inner > kth) break;
            }
            for (std::int64_t dx = -ring; dx <= ring; ++dx)
              for (std::int64_t dy = -ring; dy <= ring; ++dy)
                for (std::int64_t dz = -ring; dz <= ring; ++dz) {
                  if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) !=
                      ring)
                    continue;  // only the shell of this ring
                  const std::int64_t nx = cx + dx, ny = cy + dy, nz = cz + dz;
                  if (nx < 0 || nx >= gx || ny < 0 || ny >= gy || nz < 0 ||
                      nz >= gz)
                    continue;
                  auto it = bins.find(flat(nx, ny, nz));
                  if (it == bins.end()) continue;
                  for (auto j : it->second) {
                    if (j == i) continue;
                    cand.emplace_back(sq_dist3(pi, points.data() + j * 3), j);
                  }
                }
          }
          const std::int64_t take = std::min<std::int64_t>(
              kk, static_cast<std::int64_t>(cand.size()));
          std::partial_sort(cand.begin(), cand.begin() + take, cand.end());
          for (std::int64_t m = 0; m < take; ++m)
            slot_src[static_cast<std::size_t>(i * kk + m)] =
                cand[static_cast<std::size_t>(m)].second;
          taken[static_cast<std::size_t>(i)] = take;
        }
      });

  out.src.reserve(static_cast<std::size_t>(n * kk));
  out.dst.reserve(static_cast<std::size_t>(n * kk));
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t m = 0; m < taken[static_cast<std::size_t>(i)]; ++m)
      out.add_edge(slot_src[static_cast<std::size_t>(i * kk + m)], i);
  return out;
}

EdgeList knn_graph(std::span<const float> points, std::int64_t n,
                   std::int64_t k) {
  // The grid wins once N is large relative to k; the constant was measured
  // with bench_knn on this machine.
  if (n >= 512 && k <= n / 8) return knn_graph_grid(points, n, k);
  return knn_graph_brute(points, n, k);
}

EdgeList random_graph(std::int64_t n, std::int64_t k, Rng& rng) {
  HG_CHECK(n >= 0, "random_graph: negative n");
  HG_CHECK(k > 0, "random_graph: k must be positive");
  EdgeList out;
  out.num_nodes = n;
  if (n <= 1) return out;
  const std::int64_t kk = std::min<std::int64_t>(k, n - 1);
  out.src.reserve(static_cast<std::size_t>(n * kk));
  out.dst.reserve(static_cast<std::size_t>(n * kk));
  std::vector<std::int64_t> pool(static_cast<std::size_t>(n - 1));
  for (std::int64_t i = 0; i < n; ++i) {
    // Partial Fisher–Yates over the other n-1 nodes: draw kk distinct.
    std::size_t c = 0;
    for (std::int64_t j = 0; j < n; ++j)
      if (j != i) pool[c++] = j;
    for (std::int64_t m = 0; m < kk; ++m) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(n - 1 - m)));
      std::swap(pool[static_cast<std::size_t>(m)],
                pool[static_cast<std::size_t>(m) + pick]);
      out.add_edge(pool[static_cast<std::size_t>(m)], i);
    }
  }
  return out;
}

EdgeList knn_graph_features(std::span<const float> features, std::int64_t n,
                            std::int64_t dim, std::int64_t k) {
  HG_CHECK(static_cast<std::int64_t>(features.size()) == n * dim,
           "knn_features: span must be n*dim floats");
  HG_CHECK(k > 0 && dim > 0, "knn_features: k and dim must be positive");
  EdgeList out;
  out.num_nodes = n;
  if (n <= 1) return out;
  const std::int64_t kk = std::min<std::int64_t>(k, n - 1);
  out.src.resize(static_cast<std::size_t>(n * kk));
  out.dst.resize(static_cast<std::size_t>(n * kk));
  // Features transposed once to [dim, n] so each query accumulates its
  // squared distances to ALL candidates one dimension at a time — the
  // vector axis is the candidate axis, while each (i, j) pair still sums
  // (fi[d]-fj[d])^2 in ascending-d order exactly like the historical
  // per-pair loop, so every distance (and the graph) is bit-identical.
  std::vector<float> ft(static_cast<std::size_t>(dim * n));
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t d = 0; d < dim; ++d)
      ft[static_cast<std::size_t>(d * n + i)] =
          features[static_cast<std::size_t>(i * dim + d)];
  core::parallel_for(
      0, n, std::max<std::int64_t>(1, (1 << 18) / (n * dim)),
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<float> dist(static_cast<std::size_t>(n));
        std::vector<std::pair<float, std::int64_t>> cand(
            static_cast<std::size_t>(n - 1));
        for (std::int64_t i = lo; i < hi; ++i) {
          const float* fi = features.data() + i * dim;
          std::fill(dist.begin(), dist.end(), 0.f);
          for (std::int64_t d = 0; d < dim; ++d)
            simd::dist_accumulate(dist.data(), fi[d], ft.data() + d * n, n);
          std::size_t c = 0;
          for (std::int64_t j = 0; j < n; ++j) {
            if (j == i) continue;
            cand[c++] = {dist[static_cast<std::size_t>(j)], j};
          }
          std::partial_sort(cand.begin(), cand.begin() + kk, cand.end());
          for (std::int64_t m = 0; m < kk; ++m) {
            out.src[static_cast<std::size_t>(i * kk + m)] =
                cand[static_cast<std::size_t>(m)].second;
            out.dst[static_cast<std::size_t>(i * kk + m)] = i;
          }
        }
      });
  return out;
}

GraphProperties compute_properties(const EdgeList& edges) {
  GraphProperties p;
  p.num_nodes = edges.num_nodes;
  p.num_edges = edges.num_edges();
  if (edges.num_nodes > 1) {
    p.density = static_cast<double>(p.num_edges) /
                (static_cast<double>(p.num_nodes) *
                 static_cast<double>(p.num_nodes - 1));
  }
  if (edges.num_nodes > 0) {
    p.avg_degree =
        static_cast<double>(p.num_edges) / static_cast<double>(p.num_nodes);
    std::vector<std::int64_t> deg(static_cast<std::size_t>(edges.num_nodes),
                                  0);
    for (auto d : edges.dst) ++deg[static_cast<std::size_t>(d)];
    p.max_degree = *std::max_element(deg.begin(), deg.end());
    p.min_degree = *std::min_element(deg.begin(), deg.end());
  }
  return p;
}

}  // namespace hg::graph
