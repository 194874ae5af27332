// predictor.hpp — GNN-based hardware performance predictor (paper §III-D).
//
// "Use GNN to perceive GNNs": a candidate architecture is abstracted into a
// directed graph (operation nodes + input/output nodes + a global node that
// encodes input-data properties and improves connectivity), node features
// are one-hot encodings of operation type and function, and a small GCN +
// MLP regresses the inference latency on a target device.
//
// Faithfulness notes:
//  * The predictor is trained purely on (architecture, measured latency)
//    pairs where "measured" = hw::Device::measure — the noisy simulated
//    measurement, never the analytical formula. This mirrors the paper's
//    setup of labels collected on physical devices (30K architectures).
//  * Node features follow the paper's layout: operation-type one-hot
//    (7-dim: input/output/global/connect/aggregate/combine/sample) and
//    function one-hot (9-dim: skip, identity, knn, random, sum, min, max,
//    mean, none), plus — since the paper trains on a fixed 1024-point
//    workload but leaves the exact global encoding open — a 7-dim message
//    -type one-hot, per-node channel scalars, and a 16-dim global-node
//    block holding graph/data properties (point count, k, density, ...).
//  * One predictor instance per target device (the paper likewise trains
//    per-platform labels; the "target device" input selects the instance).
//  * Loss: MAPE, as in the paper. Predictions are scaled by the training
//    -set geometric-mean latency so one set of hyper-parameters serves
//    devices whose latency ranges differ by 100x.
//  * Head: the MLP scores every node and a softplus keeps each score
//    positive; the latency is the sum of the node scores, because a
//    network's latency is a sum of per-operation costs.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "gnn/gnn.hpp"
#include "hgnas/arch.hpp"
#include "hgnas/search.hpp"
#include "hw/device.hpp"
#include "nn/nn.hpp"

namespace hg::predictor {

/// Architecture-graph abstraction fed to the GCN.
struct ArchGraph {
  graph::EdgeList edges;  // includes reverse edges and the global node star
  Tensor features;        // [num_nodes, kFeatureDim]
};

// Feature layout (see header comment).
constexpr std::int64_t kNodeTypeDim = 7;
constexpr std::int64_t kFunctionDim = 9;
constexpr std::int64_t kMessageDim = 7;
constexpr std::int64_t kChannelDim = 2;  // log2(in_ch)/8, log2(out_ch)/8
// Execution marks: sample-actually-runs, aggregate-pays-implicit-KNN —
// merged or dead samples are free at run time (Fig. 10), and the predictor
// needs to see that to rank candidates correctly.
constexpr std::int64_t kExecDim = 2;
constexpr std::int64_t kGlobalDim = 16;
constexpr std::int64_t kFeatureDim = kNodeTypeDim + kFunctionDim +
                                     kMessageDim + kChannelDim + kExecDim +
                                     kGlobalDim;

/// Abstract an architecture (+ its workload) into the predictor's input
/// graph: chain of position nodes between input and output nodes, skip
/// edges for skip-connects, a fully-connected global node carrying the
/// 16-dim data-property encoding, and reverse edges for message flow.
///
/// `device_slot` (the paper's "information on the target device" input):
/// when in [0, 4), a one-hot device id is written into the global node so
/// one predictor can serve several platforms; -1 leaves it blank for the
/// per-device-instance setup.
ArchGraph arch_to_graph(const hgnas::Arch& arch, const hgnas::Workload& w,
                        int device_slot = -1);

struct PredictorConfig {
  // Paper dimensions: gcn {256, 512, 512}, mlp {256, 128, 1}. Defaults are
  // scaled for single-core CPU training; tests cover both.
  std::vector<std::int64_t> gcn_dims = {64, 128, 128};
  std::vector<std::int64_t> mlp_dims = {64, 32, 1};
  float lr = 2e-3f;  // stable for the softplus-sum head; 5e-3 diverges
  std::int64_t epochs = 60;
  std::int64_t batch_size = 16;
  /// Device one-hot written into the global node (-1: single-device
  /// predictor). Enables one shared predictor across platforms.
  int device_slot = -1;
};

/// One labelled example.
struct LabeledArch {
  hgnas::Arch arch;
  double latency_ms = 0.0;
};

struct PredictorMetrics {
  double mape = 0.0;              // mean absolute percentage error
  double within_10pct = 0.0;      // fraction inside a 10% error bound
  double rmse_ms = 0.0;
};

/// GCN + MLP latency regressor for one target device.
class LatencyPredictor final : public nn::Module {
 public:
  LatencyPredictor(const PredictorConfig& cfg, const hgnas::Workload& w,
                   Rng& rng);

  /// Predicted latency (ms) for an architecture. Never negative. Runs
  /// through predict_batch_ms at batch size 1.
  double predict_ms(const hgnas::Arch& arch) const;

  /// Predicted latencies for N architectures: the serving path behind
  /// predict_ms, the search-side evaluator and the engine's predictions.
  /// The batch splits into one contiguous part per pool thread. Each part
  /// runs one forward without the autograd tape: its graphs stacked
  /// block-diagonally (node ids offset, features concatenated), the GCN
  /// normalisation and the by-destination edge grouping built once, every
  /// layer run over two scratch buffers, the trained weights read in
  /// place, and the readout summed per graph.
  /// Every output element sees the same float operations in the same order
  /// as forward() on that architecture's graph alone, so answers are bit
  /// for bit the taped forward's, for any batch and pool width (asserted in
  /// tests/test_predictor.cpp). Safe to call concurrently: it only reads
  /// the trained weights.
  std::vector<double> predict_batch_ms(
      std::span<const hgnas::Arch> archs) const;

  /// Train on labelled architectures (MAPE loss, Adam). Returns final
  /// training-set MAPE.
  double fit(const std::vector<LabeledArch>& train, Rng& rng);

  PredictorMetrics evaluate(const std::vector<LabeledArch>& test);

  std::vector<Tensor> parameters() const override;

  const hgnas::Workload& workload() const { return workload_; }

  /// Training and reference forward of one graph through the autograd
  /// tape: fit() trains through it, and predict_batch_ms is tested bit
  /// for bit against it. Returns the [1, 1] prediction in units of
  /// scale_ms(); the served latency is max(0, output * scale_ms()).
  Tensor forward(const ArchGraph& g);

  /// Latency unit of forward()'s output: the training set's geometric-mean
  /// latency (ms), set by fit().
  double scale_ms() const { return scale_ms_; }

 private:
  /// The serving path's forward over one part of a batch; writes the
  /// part's latencies to latencies_ms[0..).
  void forward_no_tape(std::span<const hgnas::Arch> archs,
                       double* latencies_ms) const;

  PredictorConfig cfg_;
  hgnas::Workload workload_;
  std::vector<std::unique_ptr<gnn::GcnLayer>> gcn_;
  std::unique_ptr<nn::Mlp> mlp_;
  double scale_ms_ = 1.0;
};

/// Sample `count` random architectures and label them with simulated
/// measurements on `device` (the paper's 30K-sample collection step).
/// Architectures that OOM are skipped (no valid latency label). The
/// one-device case of collect_labeled_archs_multi.
std::vector<LabeledArch> collect_labeled_archs(
    const hw::Device& device, const hgnas::SpaceConfig& space,
    const hgnas::Workload& w, std::int64_t count, std::uint64_t seed);

/// One device's slice of a multi-device collection run.
struct CollectSpec {
  const hw::Device* device = nullptr;
  std::int64_t count = 0;
  std::uint64_t seed = 0;
};

/// Label architectures for M devices through ONE pooled measurement queue:
/// per-device draws stay serial (each device owns an RNG seeded from its
/// spec), but the expensive lowering + simulated measurements of every
/// device fan out across the shared execution pool together, so fitting
/// predictors for a fleet shares one queue instead of M sequential
/// collection passes. Result i depends on specs[i] alone: arch for arch
/// and label for label, it is that device's set collected on its own, at
/// any pool width.
std::vector<std::vector<LabeledArch>> collect_labeled_archs_multi(
    std::span<const CollectSpec> specs, const hgnas::SpaceConfig& space,
    const hgnas::Workload& w);

/// Wrap a trained predictor as a search-side latency evaluator. Each query
/// costs `query_cost_s` seconds of simulated search time (default 5 ms:
/// the paper's predictor answers in milliseconds, §III-D).
hgnas::LatencyFn make_predictor_evaluator(
    std::shared_ptr<LatencyPredictor> predictor, double query_cost_s = 0.005);

}  // namespace hg::predictor
