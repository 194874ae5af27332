// net_server_demo — a remotely queryable NAS service on a loopback port.
//
// Builds one net::Server (wire protocol in front of serve::Service) and
// serves until interrupted — or, with --once, until the first client
// connection closes (CI drives net_client_demo against it this way and
// the demo exits 0 with a stats report).
//
//   net_server_demo [--port N] [--device name] [--workers N]
//                   [--window-us N] [--max-queue N]
//                   [--oracle] [--once] [--drain-after-ms N]
//                   [--trace-out PATH]
//
// Defaults: port 7171, jetson-tx2, 3 workers, a 2 ms predict-coalescing
// window, queue bounded at 256 (searches run on the service's runner
// thread, so predict traffic never waits for them), GNN latency predictor
// as evaluator
// (--oracle swaps in the analytical oracle: instant startup, used by the
// CI smoke run). --drain-after-ms N demonstrates the graceful wind-down:
// after N ms the server stops accepting, finishes and answers everything
// already admitted, half-closes, and exits with the stats report.
// --trace-out PATH enables request-scoped tracing for the whole session
// and writes the spans as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto) when the service shuts down.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/server.hpp"

int main(int argc, char** argv) {
  using namespace hg;

  std::uint16_t port = 7171;
  std::string device = "jetson-tx2";
  std::int64_t workers = 3;
  std::int64_t window_us = 2000;
  std::int64_t max_queue = 256;
  std::int64_t drain_after_ms = -1;  // -1 = never
  std::string trace_out;
  bool oracle = false;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    if (arg == "--port" && has_next)
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    else if (arg == "--device" && has_next)
      device = argv[++i];
    else if (arg == "--workers" && has_next)
      workers = std::atoll(argv[++i]);
    else if (arg == "--window-us" && has_next)
      window_us = std::atoll(argv[++i]);
    else if (arg == "--max-queue" && has_next)
      max_queue = std::atoll(argv[++i]);
    else if (arg == "--drain-after-ms" && has_next)
      drain_after_ms = std::atoll(argv[++i]);
    else if (arg == "--trace-out" && has_next)
      trace_out = argv[++i];
    else if (arg == "--oracle")
      oracle = true;
    else if (arg == "--once")
      once = true;
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  api::EngineConfig cfg;
  cfg.device = device;
  cfg.evaluator = oracle ? "oracle" : "predictor";
  cfg.strategy = "multistage";
  cfg.num_positions = 8;
  cfg.samples_per_class = 6;
  cfg.population = 10;
  cfg.parents = 5;
  cfg.iterations = 4;
  cfg.eval_val_samples = 10;
  cfg.predictor_samples = 160;
  cfg.predictor_epochs = 20;
  cfg.constrain_to_reference = true;

  net::ServerConfig server_cfg;
  server_cfg.port = port;
  server_cfg.service.num_workers = workers;
  server_cfg.service.predict_window_us = window_us;
  server_cfg.service.max_queue_depth = max_queue;
  server_cfg.service.trace_path = trace_out;

  std::printf("starting %s service on %s (evaluator: %s)...\n",
              device.c_str(), server_cfg.host.c_str(),
              cfg.evaluator.c_str());
  std::fflush(stdout);
  api::Result<std::shared_ptr<net::Server>> server =
      net::Server::create(cfg, server_cfg);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().to_string().c_str());
    return 1;
  }
  std::printf("listening on %s:%u (workers %lld, predict window %lld us, "
              "queue bound %lld)\n",
              server_cfg.host.c_str(), server.value()->port(),
              static_cast<long long>(workers),
              static_cast<long long>(window_us),
              static_cast<long long>(max_queue));
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  auto drain_deadline = std::chrono::steady_clock::time_point::max();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const obs::Snapshot stats = server.value()->service()->metrics_snapshot();
    const std::int64_t opened = stats.at("net.connections_opened");
    const std::int64_t closed = stats.at("net.connections_closed");
    if (once && opened > 0 && closed >= opened) break;
    const auto now = std::chrono::steady_clock::now();
    if (drain_after_ms >= 0 && !server.value()->draining() &&
        now - started >= std::chrono::milliseconds(drain_after_ms)) {
      std::printf("draining: no new work; finishing %lld queued "
                  "request(s)...\n",
                  static_cast<long long>(stats.at("serve.queue_depth")));
      std::fflush(stdout);
      server.value()->drain();
      // Grace period for queued replies to flush and peers to hang up.
      drain_deadline = now + std::chrono::seconds(5);
    }
    if (server.value()->draining() &&
        (now >= drain_deadline ||
         (server.value()->service()->queue_depth() == 0 &&
          closed >= opened)))
      break;
  }

  server.value()->stop();
  // One registry holds both layers: net.* frame counters (the server
  // registers its instruments into the service's registry) and serve.*
  // admission / latency / per-step metrics. Rendering is shared with
  // serve_demo; histograms report .p50_us/.p99_us/.count.
  std::printf("\n-- session report --\n");
  const obs::Snapshot report = server.value()->service()->metrics_snapshot();
  std::fputs(obs::render_snapshot(report).c_str(), stdout);
  std::printf("drain %s\n", report.at("serve.drain_started") > 0
                                ? "completed"
                                : "never started");
  if (!trace_out.empty()) {
    // stop() shut the service down, which exported the collected spans.
    std::printf("trace written to %s (Chrome trace_event JSON)\n",
                trace_out.c_str());
  }
  return 0;
}
