#include "gnn/gnn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"
#include "core/simd.hpp"

namespace hg::gnn {

namespace {

/// Row-wise L2 norm of a [E, C] tensor -> [E, 1], differentiable.
Tensor row_norm(const Tensor& d) {
  Tensor sq = square(d);
  Tensor s = sum_axis(sq, 1);                     // [E]
  Tensor s2 = reshape(s, {s.shape()[0], 1});      // [E,1]
  return sqrt_op(add(s2, 1e-12f));
}

}  // namespace

std::string message_type_name(MessageType mt) {
  switch (mt) {
    case MessageType::SourcePos: return "source_pos";
    case MessageType::TargetPos: return "target_pos";
    case MessageType::RelPos: return "rel_pos";
    case MessageType::Distance: return "distance";
    case MessageType::SourceRel: return "source||rel";
    case MessageType::TargetRel: return "target||rel";
    case MessageType::Full: return "full";
  }
  return "unknown";
}

std::int64_t message_dim(MessageType mt, std::int64_t in_dim) {
  switch (mt) {
    case MessageType::SourcePos:
    case MessageType::TargetPos:
    case MessageType::RelPos: return in_dim;
    case MessageType::Distance: return 1;
    case MessageType::SourceRel:
    case MessageType::TargetRel: return 2 * in_dim;
    case MessageType::Full: return 3 * in_dim + 1;
  }
  throw std::invalid_argument("message_dim: unknown message type");
}

Tensor build_messages(const Tensor& x, const graph::EdgeList& g,
                      MessageType mt) {
  if (x.dim() != 2)
    throw std::invalid_argument("build_messages: x must be [N, C]");
  if (x.shape()[0] != g.num_nodes)
    throw std::invalid_argument(
        "build_messages: node count mismatch between features (" +
        std::to_string(x.shape()[0]) + ") and graph (" +
        std::to_string(g.num_nodes) + ")");

  const std::span<const std::int64_t> src(g.src);
  const std::span<const std::int64_t> dst(g.dst);
  switch (mt) {
    case MessageType::SourcePos: return gather_rows(x, src);
    case MessageType::TargetPos: return gather_rows(x, dst);
    case MessageType::RelPos:
      return sub(gather_rows(x, src), gather_rows(x, dst));
    case MessageType::Distance: {
      Tensor rel = sub(gather_rows(x, src), gather_rows(x, dst));
      return row_norm(rel);
    }
    case MessageType::SourceRel: {
      Tensor xs = gather_rows(x, src);
      Tensor rel = sub(xs, gather_rows(x, dst));
      return concat({xs, rel}, 1);
    }
    case MessageType::TargetRel: {
      Tensor xs = gather_rows(x, src);
      Tensor xt = gather_rows(x, dst);
      return concat({xt, sub(xs, xt)}, 1);
    }
    case MessageType::Full: {
      Tensor xs = gather_rows(x, src);
      Tensor xt = gather_rows(x, dst);
      Tensor rel = sub(xs, xt);
      return concat({xt, xs, rel, row_norm(rel)}, 1);
    }
  }
  throw std::invalid_argument("build_messages: unknown message type");
}

Tensor aggregate_materialized(const Tensor& x, const graph::EdgeList& g,
                              MessageType mt, Reduce reduce) {
  Tensor msgs = build_messages(x, g, mt);
  return scatter_reduce(msgs, g.dst, g.num_nodes, reduce);
}

namespace {

/// Scratch-free per-edge message evaluation for the fused kernel. Writes
/// message_dim(mt, C) floats into `buf` with exactly the float operations
/// (and their order) of build_messages, so values match it bit-for-bit.
/// For Distance/Full the row norm is also returned (the backward pass needs
/// it, as sqrt's derivative is expressed from the output).
float fused_edge_message(const float* xd, std::int64_t s, std::int64_t d,
                         std::int64_t c, MessageType mt, float* buf) {
  const float* xs = xd + s * c;
  const float* xt = xd + d * c;
  auto rel_norm = [&]() {
    float acc = 0.f;
    for (std::int64_t j = 0; j < c; ++j) {
      const float dv = xs[j] - xt[j];
      acc += dv * dv;
    }
    return std::sqrt(acc + 1e-12f);
  };
  switch (mt) {
    case MessageType::SourcePos:
      std::copy(xs, xs + c, buf);
      return 0.f;
    case MessageType::TargetPos:
      std::copy(xt, xt + c, buf);
      return 0.f;
    case MessageType::RelPos:
      simd::sub(buf, xs, xt, c);
      return 0.f;
    case MessageType::Distance: {
      const float nv = rel_norm();
      buf[0] = nv;
      return nv;
    }
    case MessageType::SourceRel:
      std::copy(xs, xs + c, buf);
      simd::sub(buf + c, xs, xt, c);
      return 0.f;
    case MessageType::TargetRel:
      std::copy(xt, xt + c, buf);
      simd::sub(buf + c, xs, xt, c);
      return 0.f;
    case MessageType::Full: {
      std::copy(xt, xt + c, buf);
      std::copy(xs, xs + c, buf + c);
      simd::sub(buf + 2 * c, xs, xt, c);
      const float nv = rel_norm();
      buf[3 * c] = nv;
      return nv;
    }
  }
  throw std::invalid_argument("aggregate: unknown message type");
}

/// Per-node chunk grain for loops whose cost is edges * channels.
std::int64_t fused_node_grain(std::int64_t num_nodes, std::int64_t num_edges,
                              std::int64_t channels) {
  const std::int64_t per_node =
      (num_edges / std::max<std::int64_t>(1, num_nodes) + 1) * channels;
  return std::max<std::int64_t>(
      1, (1 << 18) / std::max<std::int64_t>(1, per_node));
}

}  // namespace

Tensor aggregate(const Tensor& x, const graph::EdgeList& g, MessageType mt,
                 Reduce reduce) {
  if (x.dim() != 2)
    throw std::invalid_argument("aggregate: x must be [N, C]");
  if (x.shape()[0] != g.num_nodes)
    throw std::invalid_argument(
        "aggregate: node count mismatch between features (" +
        std::to_string(x.shape()[0]) + ") and graph (" +
        std::to_string(g.num_nodes) + ")");
  if (g.num_nodes <= 0)
    throw std::invalid_argument("aggregate: num_nodes must be positive");

  const std::int64_t n = g.num_nodes;
  const std::int64_t e = g.num_edges();
  const std::int64_t c = x.shape()[1];
  const std::int64_t m = message_dim(mt, c);
  const float* xd = x.data().data();
  const std::int64_t* src = g.src.data();

  detail::IndexCsr by_dst = detail::group_by_index(g.dst, n, "aggregate");
  // Per-edge rel-norms, kept for the backward pass of the messages that
  // take a square root.
  const bool keeps_norm =
      mt == MessageType::Distance || mt == MessageType::Full;
  std::vector<float> norm(keeps_norm ? static_cast<std::size_t>(e) : 0);

  std::vector<float> out(static_cast<std::size_t>(n * m), 0.f);
  std::vector<std::int64_t> arg;  // Max/Min winners, [n * m]
  const bool extremal = reduce == Reduce::Max || reduce == Reduce::Min;
  if (extremal) arg.assign(static_cast<std::size_t>(n * m), -1);
  const bool is_max = reduce == Reduce::Max;
  const std::int64_t grain = fused_node_grain(n, e, m);

  core::parallel_for(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> buf(static_cast<std::size_t>(m));
    for (std::int64_t v = lo; v < hi; ++v) {
      float* orow = out.data() + v * m;
      const std::int64_t b = by_dst.row_ptr[static_cast<std::size_t>(v)];
      const std::int64_t t = by_dst.row_ptr[static_cast<std::size_t>(v) + 1];
      for (std::int64_t s = b; s < t; ++s) {
        const std::int64_t ei = by_dst.items[static_cast<std::size_t>(s)];
        const float nv =
            fused_edge_message(xd, src[ei], v, c, mt, buf.data());
        if (keeps_norm) norm[static_cast<std::size_t>(ei)] = nv;
        if (extremal) {
          simd::extremal_update(orow, arg.data() + v * m, buf.data(), ei, m,
                                is_max);
        } else {
          simd::accumulate(orow, buf.data(), m);
        }
      }
      if (reduce == Reduce::Mean && t > b) {
        simd::scale_inv(orow, static_cast<float>(t - b), m);
      }
    }
  });

  // Everything the backward pass needs, by value (the graph and x may die
  // before backward() runs), built only when make_op records the edge.
  return detail::make_op({n, m}, std::move(out), {x}, [&] {
    std::vector<float> x_copy(x.data().begin(), x.data().end());
    std::vector<std::int64_t> src_copy(g.src.begin(), g.src.end());
    std::vector<std::int64_t> dst_copy(g.dst.begin(), g.dst.end());
    std::vector<std::int64_t> degree(static_cast<std::size_t>(n));
    for (std::int64_t v = 0; v < n; ++v)
      degree[static_cast<std::size_t>(v)] =
          by_dst.row_ptr[static_cast<std::size_t>(v) + 1] -
          by_dst.row_ptr[static_cast<std::size_t>(v)];

    return [n, e, c, m, mt, reduce, x_copy = std::move(x_copy),
            src_copy = std::move(src_copy), dst_copy = std::move(dst_copy),
            norm = std::move(norm), arg = std::move(arg),
            degree = std::move(degree),
            by_dst = std::move(by_dst)](detail::TensorImpl& self) {
      detail::TensorImpl& p = *self.parents[0];
      if (!p.requires_grad) return;
      const float* gout = self.grad.data();
      const float* xd = x_copy.data();

      // Message-tensor gradient, evaluated lazily per (edge, channel): what
      // scatter_reduce's backward would have written into the materialised
      // [e, m] buffer.
      auto gm = [&](std::int64_t ei, std::int64_t mj) -> float {
        const std::int64_t v = dst_copy[static_cast<std::size_t>(ei)];
        const float gv = gout[static_cast<std::size_t>(v * m + mj)];
        switch (reduce) {
          case Reduce::Sum: return gv;
          case Reduce::Mean:
            return gv * (1.f / static_cast<float>(
                                   degree[static_cast<std::size_t>(v)]));
          case Reduce::Max:
          case Reduce::Min:
            return arg[static_cast<std::size_t>(v * m + mj)] == ei ? gv : 0.f;
        }
        return 0.f;
      };
      // d message / d rel, chained through the norm for Distance/Full. The
      // expression shape ((g * (0.5/norm)) * (2 * rel)) reproduces the
      // sqrt -> sum -> square reference backward exactly.
      auto rel_grad = [&](std::int64_t ei, std::int64_t j) -> float {
        const float rel =
            xd[src_copy[static_cast<std::size_t>(ei)] * c + j] -
            xd[dst_copy[static_cast<std::size_t>(ei)] * c + j];
        if (mt == MessageType::Distance)
          return (gm(ei, 0) * (0.5f / norm[static_cast<std::size_t>(ei)])) *
                 (2.f * rel);
        // Full: direct rel channels plus the distance channel.
        return gm(ei, 2 * c + j) +
               (gm(ei, 3 * c) * (0.5f / norm[static_cast<std::size_t>(ei)])) *
                   (2.f * rel);
      };
      // Per-edge gradient w.r.t. the source / destination feature row. The
      // combinations mirror how the reference tape sums each gather's
      // contributions before scattering them back into x.
      auto src_grad = [&](std::int64_t ei, std::int64_t j) -> float {
        switch (mt) {
          case MessageType::SourcePos: return gm(ei, j);
          case MessageType::TargetPos: return 0.f;
          case MessageType::RelPos: return gm(ei, j);
          case MessageType::Distance: return rel_grad(ei, j);
          case MessageType::SourceRel: return gm(ei, j) + gm(ei, c + j);
          case MessageType::TargetRel: return gm(ei, c + j);
          case MessageType::Full: return gm(ei, c + j) + rel_grad(ei, j);
        }
        return 0.f;
      };
      auto dst_grad = [&](std::int64_t ei, std::int64_t j) -> float {
        switch (mt) {
          case MessageType::SourcePos: return 0.f;
          case MessageType::TargetPos: return gm(ei, j);
          case MessageType::RelPos: return -gm(ei, j);
          case MessageType::Distance: return -rel_grad(ei, j);
          case MessageType::SourceRel: return -gm(ei, c + j);
          case MessageType::TargetRel: return gm(ei, j) - gm(ei, c + j);
          case MessageType::Full: return gm(ei, j) - rel_grad(ei, j);
        }
        return 0.f;
      };

      const std::int64_t grain = fused_node_grain(n, e, c);
      auto gather_into = [&](const detail::IndexCsr& csr, auto&& edge_grad) {
        std::vector<float> buf(static_cast<std::size_t>(n * c), 0.f);
        core::parallel_for(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t v = lo; v < hi; ++v) {
            float* row = buf.data() + v * c;
            const std::int64_t b = csr.row_ptr[static_cast<std::size_t>(v)];
            const std::int64_t t = csr.row_ptr[static_cast<std::size_t>(v) + 1];
            for (std::int64_t s = b; s < t; ++s) {
              const std::int64_t ei = csr.items[static_cast<std::size_t>(s)];
              for (std::int64_t j = 0; j < c; ++j) row[j] += edge_grad(ei, j);
            }
          }
        });
        return buf;
      };

      const bool has_src = mt != MessageType::TargetPos;
      const bool has_dst = mt != MessageType::SourcePos;
      std::vector<float> sbuf, dbuf;
      if (has_src) {
        const detail::IndexCsr by_src =
            detail::group_by_index(src_copy, n, "aggregate");
        sbuf = gather_into(by_src, src_grad);
      }
      // The destination grouping is reused from the forward pass (captured
      // above) — dst_copy would sort to the identical CSR.
      if (has_dst) dbuf = gather_into(by_dst, dst_grad);
      // Accumulation order mirrors the reference tape's reverse-topological
      // execution: for messages listing the target part first in the concat
      // (TargetRel, Full) the source gather's backward runs first; otherwise
      // the destination gather's does.
      const bool src_first =
          mt == MessageType::TargetRel || mt == MessageType::Full;
      if (src_first) {
        if (has_src) p.accumulate_grad(std::move(sbuf));
        if (has_dst) p.accumulate_grad(std::move(dbuf));
      } else {
        if (has_dst) p.accumulate_grad(std::move(dbuf));
        if (has_src) p.accumulate_grad(std::move(sbuf));
      }
    };
  });
}

Tensor global_max_pool(const Tensor& x) {
  Tensor m = max_axis0(x);
  return reshape(m, {1, m.shape()[0]});
}

Tensor global_mean_pool(const Tensor& x) {
  Tensor m = mean_axis(x, 0);
  return reshape(m, {1, m.shape()[0]});
}

EdgeConv::EdgeConv(std::int64_t in_dim, std::int64_t out_dim, Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  lin_ = std::make_unique<nn::Linear>(2 * in_dim, out_dim, rng);
  bn_ = std::make_unique<nn::BatchNorm1d>(out_dim);
}

Tensor EdgeConv::forward(const Tensor& x, const graph::EdgeList& g) {
  Tensor msgs = build_messages(x, g, MessageType::TargetRel);  // [E, 2*in]
  Tensor h = lin_->forward(msgs);
  h = bn_->forward(h);
  h = leaky_relu(h, 0.2f);  // DGCNN uses LeakyReLU(0.2)
  return scatter_reduce(h, g.dst, g.num_nodes, Reduce::Max);
}

std::vector<Tensor> EdgeConv::parameters() const {
  std::vector<Tensor> out;
  for (auto& p : lin_->parameters()) out.push_back(p);
  for (auto& p : bn_->parameters()) out.push_back(p);
  return out;
}

void EdgeConv::set_training(bool training) {
  Module::set_training(training);
  lin_->set_training(training);
  bn_->set_training(training);
}

GcnNorm gcn_norm(const graph::EdgeList& g) {
  const std::int64_t n = g.num_nodes;
  std::vector<float> inv_sqrt(static_cast<std::size_t>(n), 1.f);
  for (auto d : g.dst) inv_sqrt[static_cast<std::size_t>(d)] += 1.f;
  for (float& d : inv_sqrt) d = 1.f / std::sqrt(d);
  GcnNorm norm;
  norm.edge.resize(g.src.size());
  for (std::size_t e = 0; e < g.src.size(); ++e)
    norm.edge[e] = inv_sqrt[static_cast<std::size_t>(g.src[e])] *
                   inv_sqrt[static_cast<std::size_t>(g.dst[e])];
  norm.self.resize(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < norm.self.size(); ++v)
    norm.self[v] = inv_sqrt[v] * inv_sqrt[v];
  return norm;
}

GcnLayer::GcnLayer(std::int64_t in_dim, std::int64_t out_dim, Rng& rng,
                   Reduce reduce)
    : in_dim_(in_dim), out_dim_(out_dim), reduce_(reduce) {
  lin_ = std::make_unique<nn::Linear>(in_dim, out_dim, rng);
}

Tensor GcnLayer::forward(const Tensor& x, const graph::EdgeList& g) {
  if (x.shape()[0] != g.num_nodes)
    throw std::invalid_argument("GcnLayer: node count mismatch");
  Tensor h = lin_->forward(x);  // transform first: cheaper when out < in

  // Edge messages scaled by the symmetric normalisation, plus the
  // self-loop term.
  const std::int64_t n = g.num_nodes;
  GcnNorm norm = gcn_norm(g);
  Tensor msgs = gather_rows(h, g.src);  // [E, out]
  Tensor scale_t =
      Tensor::from_vector({g.num_edges(), 1}, std::move(norm.edge));
  msgs = mul(msgs, scale_t);
  Tensor agg = scatter_reduce(msgs, g.dst, n, reduce_);
  Tensor self_t = Tensor::from_vector({n, 1}, std::move(norm.self));
  return add(agg, mul(h, self_t));
}

std::vector<Tensor> GcnLayer::parameters() const { return lin_->parameters(); }

}  // namespace hg::gnn
