// bench_mixed_load — predict tail latency while a long search is in flight.
//
// A search runs on the service's runner thread and predictions on its
// workers, so a predict probe must not wait for the search. This bench
// measures how far a running search still moves a probe's latency: the
// p99 of small predict probes with the service idle, against the p99 of
// the same probes while a search runs, on the same service in the same
// run.
//
// Method: one worker (the worst case — no second worker to absorb pure
// traffic) and a closed loop of predict probes, each probe's wall time
// one sample. First a fixed number of probes on the idle service (after
// an untimed warm-up), then one long search submitted and the loop again
// until the search completes.
//
// Results are printed and written to BENCH_mixed_load.json; CI's
// smoke-perf job gates the --quick run against
// bench/baseline/BENCH_mixed_load.json and requires
// predict_p99_search <= 3x predict_p99_idle.
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

  serve::ServiceConfig scfg;
  scfg.num_workers = 1;  // worst case: nobody else can take pure work
  api::Result<std::shared_ptr<serve::Service>> service =
      serve::Service::create(cfg, ctx.value(), scfg);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.status().to_string().c_str());
    return 1;
  }

  // Closed-loop probing: submit one predict, wait for its answer, record
  // the wall time, repeat while `more()` holds (at most max_probes).
  const std::size_t idle_probes = quick ? 400 : 2000;
  const std::size_t max_probes = 200000;
  auto probe_while = [&](auto more, std::vector<double>* samples_ms) {
    do {
      bench::Timer t;
      api::Result<api::LatencyReport> r =
          service.value()
              ->submit(serve::PredictLatencyRequest{probe_arch})
              .get();
      if (!r.ok()) {
        std::fprintf(stderr, "probe: %s\n", r.status().to_string().c_str());
        return false;
      }
      samples_ms->push_back(t.ms());
    } while (more() && samples_ms->size() < max_probes);
    return true;
  };

  // Untimed warm-up, so that the idle p99 is not a cold start's.
  std::vector<double> warm_ms, idle_ms;
  if (!probe_while([&] { return warm_ms.size() < 100; }, &warm_ms) ||
      !probe_while([&] { return idle_ms.size() < idle_probes; }, &idle_ms))
    return 1;

  bench::Timer search_timer;
  std::future<api::Result<api::SearchReport>> search =
      service.value()->submit(serve::SearchRequest{});
  // Let the runner take the search before the first probe, so every
  // sample below really overlaps a running search.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<double> search_ms;
  if (!probe_while(
          [&] {
            return search.wait_for(std::chrono::seconds(0)) !=
                   std::future_status::ready;
          },
          &search_ms))
    return 1;
  if (!search.get().ok()) {
    std::fprintf(stderr, "search failed\n");
    return 1;
  }
  const double search_wall_ms = search_timer.ms();
  service.value()->shutdown();

  for (const auto& [tag, samples] :
       {std::pair<const char*, const std::vector<double>*>{"idle", &idle_ms},
        {"search", &search_ms}}) {
    const double p50 = percentile(*samples, 0.50);
    const double p99 = percentile(*samples, 0.99);
    const std::string problem =
        std::to_string(samples->size()) + " probes, " + tag;
    std::printf("%-6s  %-24s p50 %9.3f ms  p99 %9.3f ms\n", tag,
                problem.c_str(), p50, p99);
    json.add(std::string("mixed/predict_p50_") + tag, p50, problem);
    json.add(std::string("mixed/predict_p99_") + tag, p99, problem,
             static_cast<double>(samples->size()), "probes");
  }
  std::printf("search wall %.0f ms\n", search_wall_ms);
  json.add("mixed/search_wall", search_wall_ms,
           std::to_string(search_ms.size()) + " probes, search");

  json.write();
  return 0;
}
