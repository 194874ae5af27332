// Table II reproduction: per-device comparison of HGNAS designs against
// DGCNN and the manual optimisations [6][7] — model size, overall accuracy
// (OA), balanced accuracy (mAcc), inference latency and peak memory.
//
// Latency / memory / size: paper-scale cost models through
// Engine::profile_baseline / profile. OA / mAcc: CPU-scale training through
// Engine::train_baseline / train on the 10-class synthetic dataset —
// baseline accuracy is device-independent and trains exactly once. The
// JSON record holds each train_baseline call's wall time (train_dgcnn,
// train_li, train_tailor) next to the whole bench's.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace hg;

struct Row {
  std::string name;
  double size_mb;
  double oa;
  double macc;
  double latency_ms;
  double mem_mb;
};

void print_row(const Row& r, double dgcnn_ms, double dgcnn_mb) {
  std::printf("%-14s %8.2f %7.1f %7.1f %11.1f (%4.1fx) %9.1f (%5.1f%%)\n",
              r.name.c_str(), r.size_mb, 100.0 * r.oa, 100.0 * r.macc,
              r.latency_ms, dgcnn_ms / r.latency_ms, r.mem_mb,
              100.0 * (1.0 - r.mem_mb / dgcnn_mb));
}

}  // namespace

int main() {
  hg::bench::JsonReporter bench_json("tab2_comparison");
  hg::bench::Timer bench_timer;

  // --- Device-independent accuracy training (shared across devices) -------
  api::EngineConfig acc_cfg = bench::default_engine_config("rtx3080");
  acc_cfg.samples_per_class = 16;
  acc_cfg.dataset_seed = 2718;
  acc_cfg.train_epochs = 15;
  acc_cfg.train_lr = 2e-3f;
  acc_cfg.seed = 10;
  api::Engine acc_engine =
      bench::unwrap(api::Engine::create(acc_cfg), "create(accuracy engine)");
  // Each baseline's training wall time goes into the JSON record.
  auto train_timed = [&](const std::string& name) {
    hg::bench::Timer timer;
    const std::string what = "train " + name;
    api::TrainReport report =
        bench::unwrap(acc_engine.train_baseline(name), what.c_str());
    const double ms = timer.ms();
    std::printf("train_baseline(%s): %.0f ms\n", name.c_str(), ms);
    bench_json.add("train_" + name, ms,
                   "train_baseline at the Table II accuracy config");
    return report;
  };
  const api::TrainReport dgcnn_eval = train_timed("dgcnn");
  const api::TrainReport li_eval = train_timed("li");
  const api::TrainReport tailor_eval = train_timed("tailor");

  const std::vector<std::string> devices =
      api::Registry::global().device_names();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const std::string& dev_name = devices[d];

    std::vector<Row> rows;
    std::string full_name;
    double dgcnn_ms = 0.0, dgcnn_mb = 0.0;

    // --- HGNAS Device-Acc and Device-Fast ---------------------------------
    for (int mode = 0; mode < 2; ++mode) {
      api::EngineConfig cfg = bench::default_engine_config(dev_name);
      cfg.constrain_to_reference = true;
      cfg.alpha = 1.0;
      cfg.beta = mode == 0 ? 0.1 : 1.0;
      cfg.samples_per_class = 12;
      cfg.dataset_seed = 1234;
      cfg.seed = 333 + static_cast<std::uint64_t>(d * 2 + mode);
      api::Engine engine =
          bench::unwrap(api::Engine::create(cfg), "create(search engine)");

      if (mode == 0) {
        full_name = engine.device().name();
        const api::ProfileReport dgcnn = bench::unwrap(
            engine.profile_baseline("dgcnn"), "profile dgcnn");
        dgcnn_ms = dgcnn.latency_ms;
        dgcnn_mb = dgcnn.peak_memory_mb;
        rows.push_back({"DGCNN", dgcnn.param_mb, dgcnn_eval.overall_acc,
                        dgcnn_eval.balanced_acc, dgcnn_ms, dgcnn_mb});
        const api::ProfileReport li =
            bench::unwrap(engine.profile_baseline("li"), "profile li");
        rows.push_back({"[6] Li", li.param_mb, li_eval.overall_acc,
                        li_eval.balanced_acc, li.latency_ms,
                        li.peak_memory_mb});
        const api::ProfileReport tailor = bench::unwrap(
            engine.profile_baseline("tailor"), "profile tailor");
        rows.push_back({"[7] Tailor", tailor.param_mb,
                        tailor_eval.overall_acc, tailor_eval.balanced_acc,
                        tailor.latency_ms, tailor.peak_memory_mb});
      }

      const api::SearchReport report =
          bench::unwrap(engine.search(), "search");
      const api::Arch& best = report.result.best_arch;
      const api::TrainReport eval =
          bench::unwrap(acc_engine.train(best), "train winner");
      const api::ProfileReport prof =
          bench::unwrap(engine.profile(best), "profile winner");
      rows.push_back({std::string(bench::short_device_name(dev_name)) +
                          (mode == 0 ? "-Acc" : "-Fast"),
                      prof.param_mb, eval.overall_acc, eval.balanced_acc,
                      prof.latency_ms, prof.peak_memory_mb});
    }

    bench::print_header(std::string("Table II: ") + full_name);
    std::printf("%-14s %8s %7s %7s %18s %18s\n", "network", "size_MB",
                "OA_%", "mAcc_%", "latency_ms (spd)", "mem_MB (red)");
    for (const auto& r : rows) print_row(r, dgcnn_ms, dgcnn_mb);
  }
  std::printf("\n(paper: HGNAS-Fast reaches up to 10.6x / 10.2x / 7.5x / "
              "7.4x speedup and up to 88%% memory reduction vs DGCNN with "
              "similar accuracy)\n");
  bench_json.add("total", bench_timer.ms(), "whole bench");
  return 0;
}
