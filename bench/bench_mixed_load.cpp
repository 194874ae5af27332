// bench_mixed_load — predict tail latency while a long search is in flight.
//
// The serving layer's generation-sliced scheduler exists for exactly one
// number: the p99 of a small predict probe submitted while an exclusive
// search occupies the service. Run-to-completion (exclusive_slice_ms = 0)
// parks the probe behind the whole search; with a slice, the search is
// preempted at the next generation boundary and the probe is answered in
// between slices. Same context, same requests, same results — only the
// interleaving differs.
//
// Method: one worker (the worst case — no second worker to absorb pure
// traffic), one long search submitted, then a closed loop of predict
// probes until the search completes; each probe's wall time is one sample.
// Repeated for slice=0 and slice=5 ms.
//
// Results are printed and written to BENCH_mixed_load.json; CI's
// smoke-perf job gates the --quick run against
// bench/baseline/BENCH_mixed_load.json and requires
// predict_p99_slice0 >= 3x predict_p99_sliced.
//
// Usage: bench_mixed_load [--quick]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "serve/service.hpp"

namespace {

using namespace hg;

double percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::JsonReporter json("mixed_load");
  bench::print_header(std::string("mixed-load predict tail latency") +
                      (quick ? " (quick mode)" : ""));

  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.device = "jetson-tx2";
  cfg.evaluator = "predictor";
  cfg.predictor_samples = quick ? 60 : 200;
  cfg.predictor_epochs = quick ? 8 : 20;
  // A search long enough that probes genuinely contend with it (several
  // hundred ms even on a fast host).
  cfg.iterations = quick ? 20 : 40;
  // One kernel thread: the numbers isolate scheduling, not parallelism.
  cfg.num_threads = 1;

  bench::Timer startup;
  api::Result<std::shared_ptr<api::EvalContext>> ctx =
      api::EvalContext::create(cfg);
  if (!ctx.ok()) {
    std::fprintf(stderr, "context: %s\n", ctx.status().to_string().c_str());
    return 1;
  }
  std::printf("context ready (predictor fitted) in %.0f ms\n", startup.ms());

  api::Engine engine =
      bench::unwrap(api::Engine::create(cfg, ctx.value()), "engine");
  const api::Arch probe_arch = engine.sample_arch();

  const std::int64_t slice_ms = 5;
  for (const std::int64_t slice : {std::int64_t{0}, slice_ms}) {
    serve::ServiceConfig scfg;
    scfg.num_workers = 1;  // worst case: nobody else can take pure work
    scfg.exclusive_slice_ms = slice;
    api::Result<std::shared_ptr<serve::Service>> service =
        serve::Service::create(cfg, ctx.value(), scfg);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().to_string().c_str());
      return 1;
    }

    bench::Timer search_timer;
    std::future<api::Result<api::SearchReport>> search =
        service.value()->submit(serve::SearchRequest{});
    // Let the worker claim the search before the first probe, so every
    // sample below really contends with a running search.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // Closed-loop probing: submit one predict, wait for its answer, record
    // the wall time, repeat while the search is still in flight. Under
    // run-to-completion the first probe simply waits out the search — that
    // IS the tail a mixed-load client sees.
    std::vector<double> samples_ms;
    const std::size_t max_probes = quick ? 400 : 2000;
    do {
      bench::Timer t;
      api::Result<api::LatencyReport> r =
          service.value()
              ->submit(serve::PredictLatencyRequest{probe_arch})
              .get();
      if (!r.ok()) {
        std::fprintf(stderr, "probe: %s\n", r.status().to_string().c_str());
        return 1;
      }
      samples_ms.push_back(t.ms());
    } while (search.wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready &&
             samples_ms.size() < max_probes);

    if (!search.get().ok()) {
      std::fprintf(stderr, "search failed\n");
      return 1;
    }
    const double search_wall_ms = search_timer.ms();
    const obs::Snapshot stats = service.value()->metrics_snapshot();
    service.value()->shutdown();

    const double p50 = percentile(samples_ms, 0.50);
    const double p99 = percentile(samples_ms, 0.99);
    const std::string tag = slice == 0 ? "slice0" : "sliced";
    const std::string problem =
        std::to_string(samples_ms.size()) + " probes vs search";
    std::printf(
        "slice=%-2lld ms  %-24s p50 %9.2f ms  p99 %9.2f ms  "
        "(search %8.0f ms, %lld slices, %lld preemptions, %lld resumes)\n",
        static_cast<long long>(slice), problem.c_str(), p50, p99,
        search_wall_ms,
        static_cast<long long>(stats.at("serve.exclusive_slices")),
        static_cast<long long>(stats.at("serve.exclusive_preemptions")),
        static_cast<long long>(stats.at("serve.exclusive_resumes")));
    json.add("mixed/predict_p50_" + tag, p50, problem);
    json.add("mixed/predict_p99_" + tag, p99, problem,
             static_cast<double>(samples_ms.size()), "probes");
    json.add("mixed/search_wall_" + tag, search_wall_ms, problem);
  }

  json.write();
  return 0;
}
