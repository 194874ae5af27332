// gnn.hpp — graph-neural-network operators.
//
// Implements the decoupled message-passing (MP) paradigm the HGNAS design
// space is built from (paper §II, Fig. 2a): Sample constructs the graph
// (see graph::), Aggregate builds per-edge messages and reduces them onto
// nodes, Combine transforms node features. EdgeConv (the DGCNN layer) is
// provided as the fused reference building block for baselines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "graph/graph.hpp"
#include "nn/nn.hpp"
#include "tensor/tensor.hpp"

namespace hg::gnn {

/// Message construction methods (Table I, "Message type").
/// For an edge u -> v with node features x: the message is built from the
/// neighbour (source u) and centre (target v) features.
enum class MessageType : std::int64_t {
  SourcePos = 0,  // x_u
  TargetPos,      // x_v
  RelPos,         // x_u - x_v
  Distance,       // ||x_u - x_v||_2 (1 channel)
  SourceRel,      // x_u || (x_u - x_v)
  TargetRel,      // x_v || (x_u - x_v)   — DGCNN's EdgeConv message
  Full,           // x_v || x_u || (x_u - x_v) || dist
};

constexpr std::int64_t kNumMessageTypes = 7;

std::string message_type_name(MessageType mt);

/// Output channel count of a message built from `in_dim` features.
std::int64_t message_dim(MessageType mt, std::int64_t in_dim);

/// Build the [num_edges x message_dim] message matrix for a graph.
/// Differentiable w.r.t. x.
Tensor build_messages(const Tensor& x, const graph::EdgeList& g,
                      MessageType mt);

/// Aggregate = build_messages + scatter_reduce onto destination nodes,
/// fused: each edge's message is built on the fly and reduced straight
/// into its destination node, so neither the forward nor the backward pass
/// ever materialises an [num_edges x message_dim] tensor. Returns
/// [num_nodes x message_dim]. Edges are grouped per node and visited in
/// ascending edge order, and the backward accumulation mirrors the
/// reference tape order, making the results (values and gradients)
/// bit-for-bit identical to aggregate_materialized for every MessageType /
/// Reduce combination and any thread count.
Tensor aggregate(const Tensor& x, const graph::EdgeList& g, MessageType mt,
                 Reduce reduce);

/// Reference Aggregate: materialise the full [num_edges x message_dim]
/// message tensor, then scatter-reduce it (the composite-op definition;
/// every intermediate lives on the autograd tape). The oracle aggregate()
/// is tested and benchmarked against.
Tensor aggregate_materialized(const Tensor& x, const graph::EdgeList& g,
                              MessageType mt, Reduce reduce);

/// Global max pool over nodes: [N, C] -> [1, C]. The standard point-cloud
/// readout (DGCNN uses max).
Tensor global_max_pool(const Tensor& x);
Tensor global_mean_pool(const Tensor& x);

/// EdgeConv (Wang et al., DGCNN): per-edge MLP on the Target||Rel message
/// followed by max aggregation. h_v = max_u MLP(x_v || x_u - x_v).
class EdgeConv final : public nn::Module {
 public:
  EdgeConv(std::int64_t in_dim, std::int64_t out_dim, Rng& rng);

  /// x: [N, in_dim]; g: graph whose messages to aggregate.
  Tensor forward(const Tensor& x, const graph::EdgeList& g);

  std::vector<Tensor> parameters() const override;
  void set_training(bool training) override;

  std::int64_t in_dim() const { return in_dim_; }
  std::int64_t out_dim() const { return out_dim_; }
  const nn::BatchNorm1d& batch_norm() const { return *bn_; }

 private:
  std::int64_t in_dim_, out_dim_;
  std::unique_ptr<nn::Linear> lin_;
  std::unique_ptr<nn::BatchNorm1d> bn_;
};

/// Symmetric GCN normalisation with self-loops, deg counting the loop:
/// edge e scales by 1/sqrt(deg_src) * 1/sqrt(deg_dst), node v's self-loop
/// by 1/sqrt(deg_v)^2. Shared by GcnLayer and the latency predictor's
/// tape-free forward, so both scale by the same floats.
struct GcnNorm {
  std::vector<float> edge;  // [num_edges]
  std::vector<float> self;  // [num_nodes]
};
GcnNorm gcn_norm(const graph::EdgeList& g);

/// Plain GCN layer (Kipf & Welling) with symmetric-normalised adjacency and
/// self-loops — used by the latency predictor ("use GNN to perceive GNNs").
/// Aggregator is configurable; the paper's predictor uses sum.
class GcnLayer final : public nn::Module {
 public:
  GcnLayer(std::int64_t in_dim, std::int64_t out_dim, Rng& rng,
           Reduce reduce = Reduce::Sum);

  Tensor forward(const Tensor& x, const graph::EdgeList& g);

  std::vector<Tensor> parameters() const override;

  /// The x·W + b transform, for tape-free inference over the same weights.
  const nn::Linear& linear() const { return *lin_; }

 private:
  std::int64_t in_dim_, out_dim_;
  Reduce reduce_;
  std::unique_ptr<nn::Linear> lin_;
};

}  // namespace hg::gnn
