#include "predictor/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "pointcloud/pointcloud.hpp"
#include "tensor/optim.hpp"

namespace hg::predictor {

namespace {

constexpr char kCheckScope[] = "predictor: ";

// Node-type slots of the 7-dim one-hot.
enum NodeType : std::int64_t {
  kInput = 0,
  kOutput,
  kGlobal,
  kConnect,
  kAggregate,
  kCombine,
  kSample,
};

// Function slots of the 9-dim one-hot.
enum FunctionSlot : std::int64_t {
  kFnSkip = 0,
  kFnIdentity,
  kFnKnn,
  kFnRandom,
  kFnSum,
  kFnMin,
  kFnMax,
  kFnMean,
  kFnNone,
};

std::int64_t function_slot(const hgnas::PositionGene& g) {
  switch (g.op) {
    case hgnas::OpType::Connect:
      return g.fn.connect == hgnas::ConnectFunc::SkipConnect ? kFnSkip
                                                             : kFnIdentity;
    case hgnas::OpType::Sample:
      return g.fn.sample == hgnas::SampleFunc::Knn ? kFnKnn : kFnRandom;
    case hgnas::OpType::Aggregate:
      switch (g.fn.aggr) {
        case hgnas::AggrType::Sum: return kFnSum;
        case hgnas::AggrType::Min: return kFnMin;
        case hgnas::AggrType::Max: return kFnMax;
        case hgnas::AggrType::Mean: return kFnMean;
      }
      return kFnNone;
    case hgnas::OpType::Combine:
      return kFnNone;  // the dimension is carried by the channel scalars
  }
  return kFnNone;
}

std::int64_t node_type_of(const hgnas::PositionGene& g) {
  switch (g.op) {
    case hgnas::OpType::Connect: return kConnect;
    case hgnas::OpType::Aggregate: return kAggregate;
    case hgnas::OpType::Combine: return kCombine;
    case hgnas::OpType::Sample: return kSample;
  }
  return kConnect;
}

float log_channel(std::int64_t c) {
  return std::log2(static_cast<float>(std::max<std::int64_t>(c, 1))) / 8.f;
}

}  // namespace

ArchGraph arch_to_graph(const hgnas::Arch& arch, const hgnas::Workload& w,
                        int device_slot) {
  HG_CHECK(!arch.genes.empty(), "arch_to_graph: empty architecture");
  HG_CHECK(device_slot >= -1 && device_slot < hw::kNumDevices,
           "arch_to_graph: device_slot out of range");
  const std::int64_t P = arch.num_positions();
  // Node ids: 0 input, 1..P positions, P+1 output, P+2 global.
  const std::int64_t n_nodes = P + 3;
  const std::int64_t out_node = P + 1;
  const std::int64_t global_node = P + 2;

  graph::EdgeList e;
  e.num_nodes = n_nodes;
  auto bi_edge = [&e](std::int64_t a, std::int64_t b) {
    e.add_edge(a, b);
    e.add_edge(b, a);
  };
  // Dataflow chain (plus reverse edges so GCN messages flow both ways).
  for (std::int64_t i = 0; i <= P; ++i) bi_edge(i, i + 1);
  // Skip-connect edges: from the previous Connect checkpoint (or input).
  std::int64_t checkpoint = 0;
  for (std::int64_t i = 0; i < P; ++i) {
    const auto& g = arch.genes[static_cast<std::size_t>(i)];
    if (g.op == hgnas::OpType::Connect) {
      if (g.fn.connect == hgnas::ConnectFunc::SkipConnect &&
          checkpoint != i)  // the chain edge already exists for i-1 -> i
        bi_edge(checkpoint, i + 1);
      checkpoint = i + 1;
    }
  }
  // Global node star (improves connectivity; carries data properties).
  for (std::int64_t i = 0; i < global_node; ++i) bi_edge(i, global_node);

  // ---- features -------------------------------------------------------------
  const auto flow = channel_flow(arch, w);
  std::vector<float> feat(
      static_cast<std::size_t>(n_nodes * kFeatureDim), 0.f);
  auto at = [&feat](std::int64_t node, std::int64_t dim) -> float& {
    return feat[static_cast<std::size_t>(node * kFeatureDim + dim)];
  };
  const std::int64_t fn_off = kNodeTypeDim;
  const std::int64_t msg_off = fn_off + kFunctionDim;
  const std::int64_t ch_off = msg_off + kMessageDim;
  const std::int64_t exec_off = ch_off + kChannelDim;
  const std::int64_t glob_off = exec_off + kExecDim;
  const hgnas::ExecMarks marks = hgnas::compute_exec_marks(arch);

  at(0, kInput) = 1.f;
  at(0, ch_off + 1) = log_channel(w.in_dim);
  at(out_node, kOutput) = 1.f;
  at(out_node, ch_off) = log_channel(flow.back());

  for (std::int64_t i = 0; i < P; ++i) {
    const auto& g = arch.genes[static_cast<std::size_t>(i)];
    const std::int64_t node = i + 1;
    at(node, node_type_of(g)) = 1.f;
    at(node, fn_off + function_slot(g)) = 1.f;
    if (g.op == hgnas::OpType::Aggregate)
      at(node, msg_off + static_cast<std::int64_t>(g.fn.msg)) = 1.f;
    at(node, ch_off) = log_channel(flow[static_cast<std::size_t>(i)]);
    at(node, ch_off + 1) = log_channel(flow[static_cast<std::size_t>(i + 1)]);
    if (marks.sample_executes[static_cast<std::size_t>(i)])
      at(node, exec_off) = 1.f;
    if (marks.implicit_initial_knn[static_cast<std::size_t>(i)])
      at(node, exec_off + 1) = 1.f;
  }

  // Global node: 16-dim data-property encoding (paper: "number of nodes,
  // density, etc."). Unused slots stay zero for forward compatibility.
  at(global_node, kGlobal) = 1.f;
  const std::int64_t kk = std::min<std::int64_t>(w.k, w.num_points - 1);
  const double edges_d =
      static_cast<double>(w.num_points) * static_cast<double>(kk);
  at(global_node, glob_off + 0) =
      std::log2(static_cast<float>(w.num_points)) / 16.f;
  at(global_node, glob_off + 1) =
      std::log2(static_cast<float>(edges_d) + 1.f) / 24.f;
  at(global_node, glob_off + 2) = static_cast<float>(
      edges_d / (static_cast<double>(w.num_points) *
                 std::max<double>(1.0, static_cast<double>(w.num_points - 1))));
  at(global_node, glob_off + 3) = static_cast<float>(kk) / 64.f;
  at(global_node, glob_off + 4) = static_cast<float>(w.in_dim) / 8.f;
  at(global_node, glob_off + 5) = static_cast<float>(w.num_classes) / 64.f;
  at(global_node, glob_off + 6) =
      static_cast<float>(P) / 16.f;  // positions in the chain
  // Slots 8..11: target-device one-hot ("information on the target
  // device", §III-D) for the shared cross-device predictor.
  if (device_slot >= 0) at(global_node, glob_off + 8 + device_slot) = 1.f;

  ArchGraph ag;
  ag.edges = std::move(e);
  ag.features = Tensor::from_vector({n_nodes, kFeatureDim}, std::move(feat));
  return ag;
}

LatencyPredictor::LatencyPredictor(const PredictorConfig& cfg,
                                   const hgnas::Workload& w, Rng& rng)
    : cfg_(cfg), workload_(w) {
  HG_CHECK(!cfg_.gcn_dims.empty(), "need at least one GCN layer");
  HG_CHECK(cfg_.batch_size > 0, "batch_size must be positive");
  HG_CHECK(cfg_.mlp_dims.size() >= 2 && cfg_.mlp_dims.back() == 1,
           "MLP must end in a single scalar output");
  std::int64_t d = kFeatureDim;
  for (auto h : cfg_.gcn_dims) {
    gcn_.push_back(std::make_unique<gnn::GcnLayer>(d, h, rng, Reduce::Sum));
    d = h;
  }
  std::vector<std::int64_t> mlp_dims = cfg_.mlp_dims;
  mlp_dims.insert(mlp_dims.begin(), d);
  mlp_ = std::make_unique<nn::Mlp>(mlp_dims, rng, nn::Activation::Relu,
                                   nn::Activation::None);
}

Tensor LatencyPredictor::forward(const ArchGraph& g) {
  Tensor h = g.features;
  for (auto& layer : gcn_) h = relu(layer->forward(h, g.edges));
  // Additive head: total latency is a sum of per-operation costs, so the
  // MLP scores every node and the readout sums positive per-node
  // contributions. softplus keeps contributions positive without the
  // gradient saturation a hard clamp would cause:
  //   softplus(z) = relu(z) + log(1 + exp(-|z|))   (numerically stable).
  Tensor z = mlp_->forward(h);  // [N, 1]
  Tensor contrib =
      add(relu(z), log_op(add(exp_op(neg(abs_op(z))), 1.f)));
  Tensor total = sum_all(contrib);
  return reshape(total, {1, 1});
}

double LatencyPredictor::predict_ms(const hgnas::Arch& arch) const {
  return predict_batch_ms(std::span<const hgnas::Arch>(&arch, 1))[0];
}

std::vector<double> LatencyPredictor::predict_batch_ms(
    std::span<const hgnas::Arch> archs) const {
  // A part's kernels are too small to split across the pool, so a batch is
  // split instead: one forward per pool thread, over contiguous parts.
  // Every answer depends on its own graph only, so the split never changes
  // one.
  const auto n = static_cast<std::int64_t>(archs.size());
  const std::int64_t parts = std::min(n, core::num_threads());
  std::vector<double> latencies_ms(archs.size());
  core::parallel_invoke(parts, [&](std::int64_t p) {
    const std::int64_t lo = n * p / parts;
    const std::int64_t hi = n * (p + 1) / parts;
    forward_no_tape(archs.subspan(static_cast<std::size_t>(lo),
                                  static_cast<std::size_t>(hi - lo)),
                    latencies_ms.data() + lo);
  });
  return latencies_ms;
}

namespace {

/// y[rows, out] = x[rows, in] · W + b: matmul()'s kernel, then the bias
/// added to each row as add(y, bias) does, reading the weights in place.
void linear_rows(const nn::Linear& lin, const float* x, float* y,
                 std::int64_t rows) {
  const std::int64_t out = lin.out_features();
  detail::raw_matmul(x, lin.weight().data().data(), y, rows,
                     lin.in_features(), out);
  const float* b = lin.bias().data().data();
  for (std::int64_t i = 0; i < rows; ++i)
    for (std::int64_t j = 0; j < out; ++j) y[i * out + j] += b[j];
}

void relu_in_place(float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] = x[i] > 0.f ? x[i] : 0.f;
}

}  // namespace

void LatencyPredictor::forward_no_tape(std::span<const hgnas::Arch> archs,
                                       double* latencies_ms) const {
  // Pack the graphs block-diagonally: node ids offset per graph, features
  // stacked row-wise. No edge crosses a graph boundary, and every step
  // below is local to a node, an edge or a row, so the packed pass
  // computes exactly what a lone forward() of each graph computes.
  std::vector<ArchGraph> graphs;
  graphs.reserve(archs.size());
  // Graph i owns the packed nodes [node_begin[i], node_begin[i + 1]).
  std::vector<std::int64_t> node_begin = {0};
  node_begin.reserve(archs.size() + 1);
  std::int64_t n_edges = 0;
  for (const hgnas::Arch& arch : archs) {
    graphs.push_back(arch_to_graph(arch, workload_, cfg_.device_slot));
    node_begin.push_back(node_begin.back() + graphs.back().edges.num_nodes);
    n_edges += graphs.back().edges.num_edges();
  }
  const std::int64_t n = node_begin.back();

  std::int64_t width = kFeatureDim;
  for (const auto& layer : gcn_)
    width = std::max(width, layer->linear().out_features());
  for (std::size_t i = 0; i < mlp_->num_layers(); ++i)
    width = std::max(width, mlp_->layer(i).out_features());
  // Two [n, width] scratch buffers: every layer reads one and writes the
  // other, each holding dense [n, dim] rows of the current layer's width.
  std::vector<float> a(static_cast<std::size_t>(n * width));
  std::vector<float> b(static_cast<std::size_t>(n * width));

  graph::EdgeList packed;
  packed.num_nodes = n;
  packed.src.reserve(static_cast<std::size_t>(n_edges));
  packed.dst.reserve(static_cast<std::size_t>(n_edges));
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const ArchGraph& g = graphs[gi];
    const std::int64_t offset = node_begin[gi];
    for (std::size_t e = 0; e < g.edges.src.size(); ++e)
      packed.add_edge(g.edges.src[e] + offset, g.edges.dst[e] + offset);
    const auto fd = g.features.data();
    std::copy(fd.begin(), fd.end(), a.begin() + offset * kFeatureDim);
  }
  const gnn::GcnNorm norm = gnn::gcn_norm(packed);
  const detail::IndexCsr by_dst =
      detail::group_by_index(packed.dst, n, "predictor");

  // GCN layers: b = a·W + bias, then a[v] = the sum over v's in-edges, in
  // ascending edge order, of scale * b[src], plus the self-loop term, then
  // ReLU — the taped layer's gather/scale/scatter-sum/add, element for
  // element.
  for (const auto& layer : gcn_) {
    const nn::Linear& lin = layer->linear();
    const std::int64_t c = lin.out_features();
    linear_rows(lin, a.data(), b.data(), n);
    for (std::int64_t v = 0; v < n; ++v) {
      float* orow = a.data() + v * c;
      std::fill(orow, orow + c, 0.f);
      const auto vs = static_cast<std::size_t>(v);
      for (std::int64_t s = by_dst.row_ptr[vs]; s < by_dst.row_ptr[vs + 1];
           ++s) {
        const auto e = static_cast<std::size_t>(
            by_dst.items[static_cast<std::size_t>(s)]);
        simd::axpy(orow, norm.edge[e], b.data() + packed.src[e] * c, c);
      }
      simd::axpy(orow, norm.self[vs], b.data() + v * c, c);
      relu_in_place(orow, c);
    }
  }

  // MLP: ReLU after every layer but the last; the last leaves z [n, 1].
  float* x = a.data();
  float* y = b.data();
  for (std::size_t i = 0; i < mlp_->num_layers(); ++i) {
    const nn::Linear& lin = mlp_->layer(i);
    linear_rows(lin, x, y, n);
    if (i + 1 < mlp_->num_layers()) relu_in_place(y, n * lin.out_features());
    std::swap(x, y);
  }

  // Softplus head (see forward()), summed per graph in ascending node
  // order like forward()'s sum_all.
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    float total = 0.f;
    for (std::int64_t v = node_begin[gi]; v < node_begin[gi + 1]; ++v) {
      const float z = x[v];
      total += (z > 0.f ? z : 0.f) + std::log(std::exp(-std::fabs(z)) + 1.f);
    }
    latencies_ms[gi] = std::max(0.0, static_cast<double>(total) * scale_ms_);
  }
}

double LatencyPredictor::fit(const std::vector<LabeledArch>& train,
                             Rng& rng) {
  HG_CHECK(!train.empty(), "fit: empty training set");
  // Normalisation scale: the geometric-mean label, so targets sit near 1
  // whatever the device's latency range.
  double acc = 0.0;
  for (const auto& s : train) {
    HG_CHECK(s.latency_ms > 0.0, "fit: non-positive latency label");
    acc += std::log(s.latency_ms);
  }
  scale_ms_ = std::exp(acc / static_cast<double>(train.size()));

  // Pre-build graphs once (they are label-independent).
  std::vector<ArchGraph> graphs;
  graphs.reserve(train.size());
  for (const auto& s : train)
    graphs.push_back(arch_to_graph(s.arch, workload_, cfg_.device_slot));

  Adam opt(parameters(), cfg_.lr);
  nn::DataParallelStep step;  // one mini-batch's samples across the pool
  const auto batch = static_cast<std::size_t>(cfg_.batch_size);
  double last_epoch_mape = 0.0;
  for (std::int64_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    opt.set_lr(cosine_lr(cfg_.lr, cfg_.lr * 0.02f, epoch, cfg_.epochs));
    auto order = pointcloud::shuffled_indices(train.size(), rng);
    double mape_sum = 0.0;
    for (std::size_t first = 0; first < order.size(); first += batch) {
      const std::size_t n = std::min(batch, order.size() - first);
      const std::vector<float> losses = step.run(
          static_cast<std::int64_t>(n), [&](std::int64_t s) {
            const std::size_t i = order[first + static_cast<std::size_t>(s)];
            const float y =
                static_cast<float>(train[i].latency_ms / scale_ms_);
            Tensor pred = forward(graphs[i]);  // [1,1]
            // MAPE contribution: |pred - y| / y.
            return mean_all(div(abs_op(sub(pred, y)), y));
          });
      for (const float loss : losses) mape_sum += loss;
      opt.step();
      opt.zero_grad();
    }
    last_epoch_mape = mape_sum / static_cast<double>(train.size());
  }
  return last_epoch_mape;
}

PredictorMetrics LatencyPredictor::evaluate(
    const std::vector<LabeledArch>& test) {
  HG_CHECK(!test.empty(), "evaluate: empty test set");
  PredictorMetrics m;
  double se = 0.0;
  std::int64_t within = 0;
  for (const auto& s : test) {
    const double pred = predict_ms(s.arch);
    const double rel = std::abs(pred - s.latency_ms) / s.latency_ms;
    m.mape += rel;
    if (rel <= 0.10) ++within;
    se += (pred - s.latency_ms) * (pred - s.latency_ms);
  }
  const auto n = static_cast<double>(test.size());
  m.mape /= n;
  m.within_10pct = static_cast<double>(within) / n;
  m.rmse_ms = std::sqrt(se / n);
  return m;
}

std::vector<Tensor> LatencyPredictor::parameters() const {
  std::vector<Tensor> out;
  for (const auto& l : gcn_)
    for (auto& p : l->parameters()) out.push_back(p);
  for (auto& p : mlp_->parameters()) out.push_back(p);
  return out;
}

std::vector<LabeledArch> collect_labeled_archs(const hw::Device& device,
                                               const hgnas::SpaceConfig& space,
                                               const hgnas::Workload& w,
                                               std::int64_t count,
                                               std::uint64_t seed) {
  HG_CHECK(count > 0, "collect_labeled_archs: count must be positive");
  const CollectSpec spec{&device, count, seed};
  return std::move(collect_labeled_archs_multi({&spec, 1}, space, w)[0]);
}

std::vector<std::vector<LabeledArch>> collect_labeled_archs_multi(
    std::span<const CollectSpec> specs, const hgnas::SpaceConfig& space,
    const hgnas::Workload& w) {
  for (const CollectSpec& spec : specs) {
    HG_CHECK(spec.device != nullptr,
             "collect_labeled_archs_multi: null device");
    HG_CHECK(spec.count > 0,
             "collect_labeled_archs_multi: count must be positive");
  }
  const std::size_t n_dev = specs.size();
  std::vector<std::vector<LabeledArch>> out(n_dev);

  // This is the dominant cost of predictor-backed engine startup (the
  // paper's 30K-sample collection). Each device owns an RNG: architectures
  // and per-measurement seeds come serially off it, every device's
  // lowering + simulated measurements of a round share one parallel_invoke
  // (one queue for the whole fleet), and OOM filtering replays serially in
  // draw order. A device's labelled set therefore depends on its own spec
  // only — not on the pool width, nor on the other devices in the fleet.
  struct DeviceState {
    Rng rng;
    std::int64_t attempts = 0;
    std::int64_t max_attempts = 0;
    explicit DeviceState(std::uint64_t seed) : rng(seed) {}
  };
  struct Drawn {
    std::size_t device_index = 0;
    hgnas::Arch arch;
    std::uint64_t seed = 0;
    hw::Measurement meas;
  };
  std::vector<DeviceState> states;
  states.reserve(n_dev);
  for (std::size_t d = 0; d < n_dev; ++d) {
    states.emplace_back(specs[d].seed);
    states[d].max_attempts = specs[d].count * 20;
    out[d].reserve(static_cast<std::size_t>(specs[d].count));
  }

  for (;;) {
    std::vector<Drawn> round;
    std::vector<std::size_t> round_begin(n_dev + 1, 0);
    for (std::size_t d = 0; d < n_dev; ++d) {
      round_begin[d] = round.size();
      DeviceState& st = states[d];
      const std::int64_t remaining =
          specs[d].count - static_cast<std::int64_t>(out[d].size());
      if (remaining <= 0 || st.attempts >= st.max_attempts) continue;
      const std::int64_t n =
          std::min<std::int64_t>(remaining, st.max_attempts - st.attempts);
      for (std::int64_t i = 0; i < n; ++i) {
        Drawn drawn;
        drawn.device_index = d;
        drawn.arch = hgnas::random_arch(space, st.rng);
        drawn.seed = st.rng.next();
        round.push_back(std::move(drawn));
      }
      st.attempts += n;
    }
    round_begin[n_dev] = round.size();
    if (round.empty()) break;

    core::parallel_invoke(
        static_cast<std::int64_t>(round.size()), [&](std::int64_t i) {
          Drawn& drawn = round[static_cast<std::size_t>(i)];
          Rng meas_rng(drawn.seed);
          drawn.meas = specs[drawn.device_index].device->measure(
              lower_to_trace(drawn.arch, w), meas_rng);
        });

    for (std::size_t d = 0; d < n_dev; ++d) {
      for (std::size_t i = round_begin[d]; i < round_begin[d + 1]; ++i) {
        Drawn& drawn = round[i];
        if (static_cast<std::int64_t>(out[d].size()) == specs[d].count) break;
        if (drawn.meas.oom || drawn.meas.latency_ms <= 0.0) continue;
        out[d].push_back(
            LabeledArch{std::move(drawn.arch), drawn.meas.latency_ms});
      }
    }
  }

  for (std::size_t d = 0; d < n_dev; ++d)
    HG_CHECK(static_cast<std::int64_t>(out[d].size()) == specs[d].count,
             "collect_labeled_archs: too many OOM architectures on " +
                 specs[d].device->name());
  return out;
}

hgnas::LatencyFn make_predictor_evaluator(
    std::shared_ptr<LatencyPredictor> predictor, double query_cost_s) {
  HG_CHECK(predictor != nullptr, "make_predictor_evaluator: null predictor");
  return [predictor, query_cost_s](const hgnas::Arch& arch)
             -> hgnas::LatencyEval {
    return {predictor->predict_ms(arch), query_cost_s, false};
  };
}

}  // namespace hg::predictor
