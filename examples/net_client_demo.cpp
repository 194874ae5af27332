// net_client_demo — mixed remote load against a running net_server_demo.
//
//   net_client_demo [--host H] [--port N] [--positions N] [--no-search]
//                   [--retries N] [--stats]
//
// One connection, pipelined request ids: a health ping first, then a
// deployment reference (profile_baseline), a batched latency query (one
// frame, N archs), a trickle of lone predictions (they meet the server's
// coalescing window), a full NAS search, and a deployment profile of the
// search winner. Everything the server answers is printed with its
// round-trip time; exits non-zero on the first failed request. --stats
// finishes with a remote metrics scrape (kStats): the server's full
// registry snapshot — serve.* and net.* — rendered like the server's own
// session report.
//
// The blocking verbs ride a RetryPolicy (--retries, default 3 attempts):
// pure verbs reconnect and retry transport failures with backed-off
// jitter, honoring any retry_after_us hint the server attaches to
// refused-before-running replies.
//
// The architectures are sampled locally (hgnas::random_arch) — a remote
// client needs no engine, only the design-space shape (--positions must
// match the server's config; the demos agree at 8).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "hgnas/arch.hpp"
#include "net/client.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hg;

  std::string host = "127.0.0.1";
  std::uint16_t port = 7171;
  std::int64_t positions = 8;
  int retries = 3;
  bool run_search = true;
  bool scrape_stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    if (arg == "--host" && has_next)
      host = argv[++i];
    else if (arg == "--port" && has_next)
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    else if (arg == "--positions" && has_next)
      positions = std::atoll(argv[++i]);
    else if (arg == "--retries" && has_next)
      retries = std::atoi(argv[++i]);
    else if (arg == "--no-search")
      run_search = false;
    else if (arg == "--stats")
      scrape_stats = true;
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  net::ClientConfig client_cfg;
  client_cfg.host = host;
  client_cfg.port = port;
  client_cfg.retry.max_attempts = retries;
  api::Result<net::Client> connected = net::Client::connect(client_cfg);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 connected.status().to_string().c_str());
    return 1;
  }
  net::Client client = std::move(connected).value();
  std::printf("connected to %s:%u (retry budget: %d attempts)\n",
              host.c_str(), port, retries);

  // Health first: is this server worth sending work to?
  auto t0 = std::chrono::steady_clock::now();
  api::Result<net::HealthReport> health = client.ping();
  if (!health.ok()) {
    std::fprintf(stderr, "ping: %s\n", health.status().to_string().c_str());
    return 1;
  }
  std::printf("server health: %s, queue depth %lld, %lld workers, up "
              "%.1f s  (round trip %.1f ms)\n",
              net::health_state_name(health.value().state),
              static_cast<long long>(health.value().queue_depth),
              static_cast<long long>(health.value().workers),
              static_cast<double>(health.value().uptime_us) / 1e6,
              ms_since(t0));

  hgnas::SpaceConfig space;
  space.num_positions = positions;
  Rng rng(7);
  std::vector<api::Arch> archs;
  for (int i = 0; i < 10; ++i)
    archs.push_back(hgnas::random_arch(space, rng));

  // Deployment reference for the target device.
  t0 = std::chrono::steady_clock::now();
  api::Result<api::ProfileReport> reference =
      client.profile_baseline("dgcnn");
  if (!reference.ok()) {
    std::fprintf(stderr, "profile_baseline: %s\n",
                 reference.status().to_string().c_str());
    return 1;
  }
  std::printf("DGCNN reference: %.1f ms on-device  (round trip %.1f ms)\n",
              reference.value().latency_ms, ms_since(t0));

  // Batched latency query: one frame carries every arch.
  t0 = std::chrono::steady_clock::now();
  api::Result<std::vector<api::LatencyReport>> batched =
      client.predict_batch(archs);
  if (!batched.ok()) {
    std::fprintf(stderr, "predict_batch: %s\n",
                 batched.status().to_string().c_str());
    return 1;
  }
  std::printf("batched predict: %zu archs in one frame  (round trip "
              "%.1f ms)\n",
              archs.size(), ms_since(t0));

  // Trickle of lone predictions: pipelined sends a few ms apart, so they
  // coalesce inside the server's predict window.
  t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> ids;
  for (const api::Arch& a : archs) {
    api::Result<std::uint64_t> id = client.send(net::verbs::kPredictLatency, a);
    if (!id.ok()) {
      std::fprintf(stderr, "send: %s\n", id.status().to_string().c_str());
      return 1;
    }
    ids.push_back(id.value());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::printf("%5s %15s %15s\n", "arch", "predicted_ms", "batched_ms");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    api::Result<api::LatencyReport> lone =
        client.wait(net::verbs::kPredictLatency, ids[i]);
    if (!lone.ok()) {
      std::fprintf(stderr, "predict: %s\n",
                   lone.status().to_string().c_str());
      return 1;
    }
    std::printf("%5zu %15.2f %15.2f\n", i, lone.value().latency_ms,
                batched.value()[i].latency_ms);
  }
  std::printf("trickle of %zu lone predictions answered in %.1f ms\n",
              ids.size(), ms_since(t0));

  if (run_search) {
    t0 = std::chrono::steady_clock::now();
    api::Result<api::SearchReport> search = client.search();
    if (!search.ok()) {
      std::fprintf(stderr, "search: %s\n",
                   search.status().to_string().c_str());
      return 1;
    }
    std::printf("search winner: objective %.3f, %.1f ms predicted, "
                "%zu frontier points  (round trip %.1f ms)\n",
                search.value().result.best_objective,
                search.value().result.best_latency_ms,
                search.value().result.frontier.size(), ms_since(t0));
    api::Result<api::ProfileReport> winner =
        client.profile(search.value().result.best_arch);
    if (!winner.ok()) {
      std::fprintf(stderr, "profile: %s\n",
                   winner.status().to_string().c_str());
      return 1;
    }
    std::printf("winner on-device: %.1f ms, %.1f MB, %.2fx vs DGCNN\n",
                winner.value().latency_ms, winner.value().peak_memory_mb,
                winner.value().speedup_vs_reference);
  }

  if (scrape_stats) {
    t0 = std::chrono::steady_clock::now();
    api::Result<obs::Snapshot> snap = client.stats();
    if (!snap.ok()) {
      std::fprintf(stderr, "stats: %s\n",
                   snap.status().to_string().c_str());
      return 1;
    }
    std::printf("server metrics (%zu instruments, round trip %.1f ms):\n",
                snap.value().size(), ms_since(t0));
    std::fputs(obs::render_snapshot(snap.value()).c_str(), stdout);
  }

  std::printf("done; closing connection.\n");
  return 0;
}
