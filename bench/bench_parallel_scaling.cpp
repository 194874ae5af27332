// bench_parallel_scaling — serial vs pooled wall-clock for the three layers
// the parallel backbone rewired: tensor kernels (matmul), GNN operators
// (EdgeConv forward, fused vs materializing Aggregate), graph construction
// (KNN), plus the latency-predictor fit (data-parallel training steps) and
// the end-to-end Engine::search() on the quickstart workload.
//
// Every comparison runs the identical computation at num_threads=1 (every
// pooled loop inline on the caller, recorded as `*/serial`) and at the
// hardware thread count; results are bit-for-bit thread-count invariant,
// so the speedup is pure scheduling. The Aggregate pair is the exception:
// its `serial` side times the materializing reference, its `parallel` side
// the fused kernel.
// Results are printed and written to BENCH_parallel_scaling.json
// (wall-clock ms, pool width, problem size, git rev).
//
// Usage: bench_parallel_scaling [--quick]
//   --quick  small problem sizes and a tiny search (CI smoke-perf job).
#include <algorithm>
#include <cstring>
#include <string>

#include "api/engine.hpp"
#include "bench_util.hpp"
#include "gnn/gnn.hpp"
#include "graph/graph.hpp"
#include "hw/device.hpp"
#include "predictor/predictor.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace hg;

std::vector<float> random_values(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.normal();
  return v;
}

/// Wall time plus the pool width the timed region ACTUALLY ran with —
/// the pool may clamp a request (e.g. to the hardware thread count), and
/// the JSON records must name the effective width, not the asked-for one.
struct Timed {
  double ms = 0.0;
  std::int64_t threads = 1;
};

/// Best-of-`reps` wall time of `fn` at the given pool width.
template <typename Fn>
Timed time_at(std::int64_t threads, int reps, Fn&& fn) {
  core::ScopedNumThreads scoped(threads);
  Timed out;
  out.threads = core::num_threads();
  out.ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    bench::Timer t;
    fn();
    out.ms = std::min(out.ms, t.ms());
  }
  return out;
}

void report_pair(bench::JsonReporter& json, const std::string& name,
                 const std::string& problem, const Timed& serial,
                 const Timed& parallel) {
  const double speedup = parallel.ms > 0.0 ? serial.ms / parallel.ms : 0.0;
  std::printf("%-28s %-26s serial %9.2f ms | %2lld threads %9.2f ms | %.2fx\n",
              name.c_str(), problem.c_str(), serial.ms,
              static_cast<long long>(parallel.threads), parallel.ms, speedup);
  json.add(name + "/serial", serial.ms, problem, 0.0, "", serial.threads);
  json.add(name + "/parallel", parallel.ms, problem, speedup, "x",
           parallel.threads);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const std::int64_t hw = core::hardware_threads();
  bench::JsonReporter json("parallel_scaling");
  bench::print_header("parallel scaling (hardware threads: " +
                      std::to_string(hw) + (quick ? ", quick mode)" : ")"));

  Rng rng(2024);
  const int reps = quick ? 2 : 3;

  // ---- tensor kernel: dense matmul -----------------------------------------
  {
    const std::int64_t n = quick ? 256 : 512;
    const auto av = random_values(n * n, rng);
    const auto bv = random_values(n * n, rng);
    Tensor a = Tensor::from_vector({n, n}, av);
    Tensor b = Tensor::from_vector({n, n}, bv);
    auto run = [&] {
      detail::NoGradGuard ng;
      Tensor c = matmul(a, b);
      (void)c;
    };
    report_pair(json, "matmul",
                std::to_string(n) + "x" + std::to_string(n),
                time_at(1, reps, run), time_at(hw, reps, run));
  }

  // ---- graph construction: KNN ---------------------------------------------
  const std::int64_t points_n = quick ? 1024 : 4096;
  const std::int64_t k = 16;
  const auto pts = random_values(points_n * 3, rng);
  {
    auto run = [&] { (void)graph::knn_graph(pts, points_n, k); };
    report_pair(json, "knn_graph",
                std::to_string(points_n) + " pts k=" + std::to_string(k),
                time_at(1, reps, run), time_at(hw, reps, run));
  }

  // ---- GNN operator: EdgeConv forward --------------------------------------
  const graph::EdgeList g = graph::knn_graph(pts, points_n, k);
  const std::int64_t channels = 64;
  const auto feat = random_values(points_n * channels, rng);
  {
    gnn::EdgeConv conv(channels, channels, rng);
    conv.set_training(false);
    Tensor x = Tensor::from_vector({points_n, channels}, feat);
    auto run = [&] {
      detail::NoGradGuard ng;
      (void)conv.forward(x, g);
    };
    report_pair(json, "edgeconv_forward",
                std::to_string(points_n) + " pts k=" + std::to_string(k) +
                    " c=" + std::to_string(channels),
                time_at(1, reps, run), time_at(hw, reps, run));
  }

  // ---- fused vs materializing Aggregate (Full message, max reduce) ---------
  {
    Tensor x = Tensor::from_vector({points_n, channels}, feat);
    auto fused = [&] {
      detail::NoGradGuard ng;
      (void)gnn::aggregate(x, g, gnn::MessageType::Full, Reduce::Max);
    };
    auto materialized = [&] {
      detail::NoGradGuard ng;
      (void)gnn::aggregate_materialized(x, g, gnn::MessageType::Full,
                                        Reduce::Max);
    };
    const std::string problem = std::to_string(points_n) +
                                " pts k=" + std::to_string(k) +
                                " c=" + std::to_string(channels) + " full/max";
    const Timed mat = time_at(1, reps, materialized);
    const Timed fused_t = time_at(hw, reps, fused);
    report_pair(json, "aggregate_fused_vs_mat", problem, mat, fused_t);
  }

  // ---- training: the latency-predictor fit --------------------------------
  {
    // The served fit's scale (jetson-tx2, 200 labels, 20 epochs); --quick
    // fits 64 labels for 4 epochs. Each run fits a fresh predictor from
    // the same seed.
    const hgnas::Workload w;
    const hgnas::SpaceConfig space;
    const hw::Device dev = hw::make_device(hw::DeviceKind::JetsonTx2);
    const std::vector<predictor::LabeledArch> labels =
        predictor::collect_labeled_archs(dev, space, w, quick ? 64 : 200, 7);
    predictor::PredictorConfig pcfg;
    pcfg.epochs = quick ? 4 : 20;
    auto run = [&] {
      Rng fit_rng(11);
      predictor::LatencyPredictor pred(pcfg, w, fit_rng);
      (void)pred.fit(labels, fit_rng);
    };
    const Timed serial = time_at(1, reps, run);
    // Leaving width 1 restarts the pool's threads; their first fit pays
    // for warming each thread's allocator, so one untimed fit goes first.
    run();
    report_pair(json, "predictor_fit",
                std::to_string(labels.size()) + " labels " +
                    std::to_string(pcfg.epochs) + " epochs",
                serial, time_at(hw, reps, run));
  }

  // ---- end-to-end: Engine::search on the quickstart workload --------------
  {
    api::EngineConfig cfg =
        quick ? api::EngineConfig::tiny() : api::EngineConfig{};
    if (!quick) {
      cfg.samples_per_class = 10;  // the quickstart example's scale
      cfg.iterations = 8;
    }
    auto search_at = [&](std::int64_t threads) {
      cfg.num_threads = threads;
      Timed out;
      {
        // The engine resolves cfg.num_threads through the same pool clamp
        // as everyone else; record the width it will actually get.
        core::ScopedNumThreads probe(threads);
        out.threads = core::num_threads();
      }
      bench::Timer t;
      api::Result<api::Engine> engine = api::Engine::create(cfg);
      if (!engine.ok()) {
        std::fprintf(stderr, "engine: %s\n",
                     engine.status().to_string().c_str());
        out.ms = -1.0;
        return out;
      }
      api::Result<api::SearchReport> r = engine.value().search();
      if (!r.ok()) {
        std::fprintf(stderr, "search: %s\n", r.status().to_string().c_str());
        out.ms = -1.0;
        return out;
      }
      out.ms = t.ms();
      return out;
    };
    const Timed serial = search_at(1);
    const Timed parallel = search_at(hw);
    if (serial.ms >= 0.0 && parallel.ms >= 0.0)
      report_pair(json, "engine_search",
                  quick ? "tiny config" : "quickstart workload", serial,
                  parallel);
    core::set_num_threads(0);  // restore the default pool width
  }

  json.write();
  return 0;
}
