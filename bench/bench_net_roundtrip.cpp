// bench_net_roundtrip — what the wire costs, and what batching buys back:
//
//  1. Lone predictions: N sequential predict_latency round-trips through
//     net::Client -> loopback net::Server, vs the same N submissions
//     through the in-process serve::Service (the futures API the server
//     wraps). Reports requests/sec plus p50/p99 per-request round-trip.
//  2. Batched remote predict: the same N archs in ONE kPredictBatchN
//     frame (net::Client::predict_batch) — the transport overhead (frame + syscall + wakeup) is paid
//     once instead of N times.
//  3. Mixed pipelined load: N predictions + N profiles with pipelined
//     request ids (all in flight at once), requests/sec.
//  4. Degraded mode: the same lone predictions through a chaotic client
//     transport that kills ~1% of frames mid-header, with a RetryPolicy
//     that reconnects and retries — what fault tolerance costs when the
//     network actually misbehaves, vs the fault-free run above.
//
// Results are printed and written to BENCH_net_roundtrip.json; CI's
// smoke-net job gates the --quick run against
// bench/baseline/BENCH_net_roundtrip.json.
//
// Usage: bench_net_roundtrip [--quick]
#include <algorithm>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/chaos.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace {

using namespace hg;

double percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::JsonReporter json("net_roundtrip");
  bench::print_header(std::string("net round-trip") +
                      (quick ? " (quick mode)" : ""));

  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.device = "jetson-tx2";
  cfg.evaluator = "oracle";  // deterministic, zero-cost queries: the
                             // numbers below are pure serving overhead
  // Pin the kernel pool to one thread so the records are comparable
  // across differently-sized machines (as in bench_serve_throughput).
  cfg.num_threads = 1;

  net::ServerConfig server_cfg;
  server_cfg.service.num_workers = 2;
  // The pipelined stage deliberately keeps thousands of requests in
  // flight; an unbounded queue keeps the measurement about throughput,
  // not about where the back-pressure bound happens to sit.
  server_cfg.service.max_queue_depth = 0;
  api::Result<std::shared_ptr<net::Server>> server =
      net::Server::create(cfg, server_cfg);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 server.status().to_string().c_str());
    return 1;
  }
  api::Result<net::Client> connected =
      net::Client::connect("127.0.0.1", server.value()->port());
  if (!connected.ok()) {
    std::fprintf(stderr, "client: %s\n",
                 connected.status().to_string().c_str());
    return 1;
  }
  net::Client client = std::move(connected).value();
  const std::shared_ptr<serve::Service>& service = server.value()->service();

  api::Engine engine = bench::unwrap(
      api::Engine::create(cfg, service->context()), "engine");
  // Quick mode still sends enough requests that the gated totals sit
  // well above check_perf_regression.py's 5 ms noise floor.
  const std::int64_t n = quick ? 512 : 2048;
  std::vector<api::Arch> archs;
  archs.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    archs.push_back(engine.sample_arch());
  const std::string problem = std::to_string(n) + " predicts";

  // Warm both paths.
  (void)client.predict_latency(archs[0]);
  (void)service->submit(serve::PredictLatencyRequest{archs[0], {}}).get();

  // ---- lone predictions: in-process futures vs loopback round-trips ----
  double inproc_ms = 0.0;
  {
    bench::Timer t;
    for (const api::Arch& a : archs)
      if (!service->submit(serve::PredictLatencyRequest{a, {}}).get().ok())
        return 1;
    inproc_ms = t.ms();
    const double rps = static_cast<double>(n) / (inproc_ms / 1e3);
    std::printf("predict inproc   %-16s %9.2f ms   %8.0f req/s\n",
                problem.c_str(), inproc_ms, rps);
    json.add("predict/inproc", inproc_ms, problem, rps, "req/s");
  }
  {
    std::vector<double> rtt;
    rtt.reserve(static_cast<std::size_t>(n));
    bench::Timer t;
    for (const api::Arch& a : archs) {
      bench::Timer one;
      if (!client.predict_latency(a).ok()) return 1;
      rtt.push_back(one.ms());
    }
    const double remote_ms = t.ms();
    const double rps = static_cast<double>(n) / (remote_ms / 1e3);
    const double p50 = percentile(rtt, 0.50);
    const double p99 = percentile(rtt, 0.99);
    std::printf("predict remote   %-16s %9.2f ms   %8.0f req/s   "
                "p50 %.3f ms  p99 %.3f ms\n",
                problem.c_str(), remote_ms, rps, p50, p99);
    json.add("predict/remote_lone", remote_ms, problem, rps, "req/s");
    json.add("predict/remote_p50", p50, problem, p50, "ms");
    json.add("predict/remote_p99", p99, problem, p99, "ms");

    // ---- the same N archs in one batched frame ----
    bench::Timer tb;
    api::Result<std::vector<api::LatencyReport>> batched =
        client.predict_batch(archs);
    if (!batched.ok()) return 1;
    const double batched_ms = tb.ms();
    const double speedup = batched_ms > 0.0 ? remote_ms / batched_ms : 0.0;
    std::printf("predict batched  %-16s %9.2f ms   %.2fx vs lone remote\n",
                problem.c_str(), batched_ms, speedup);
    json.add("predict/remote_batched", batched_ms, problem, speedup, "x");
  }

  // ---- mixed pipelined load: everything in flight at once ----
  {
    const std::int64_t rounds = quick ? 2 : 4;
    bench::Timer t;
    for (std::int64_t round = 0; round < rounds; ++round) {
      std::vector<std::uint64_t> predict_ids, profile_ids;
      for (const api::Arch& a : archs) {
        api::Result<std::uint64_t> p =
            client.send(net::verbs::kPredictLatency, a);
        api::Result<std::uint64_t> q = client.send(net::verbs::kProfile, a);
        if (!p.ok() || !q.ok()) return 1;
        predict_ids.push_back(p.value());
        profile_ids.push_back(q.value());
      }
      for (std::uint64_t id : predict_ids)
        if (!client.wait(net::verbs::kPredictLatency, id).ok()) return 1;
      for (std::uint64_t id : profile_ids)
        if (!client.wait(net::verbs::kProfile, id).ok()) return 1;
    }
    const double wall_ms = t.ms();
    const double total = static_cast<double>(2 * rounds * n);
    const double rps = wall_ms > 0.0 ? total / (wall_ms / 1e3) : 0.0;
    const std::string mixed_problem =
        std::to_string(static_cast<long long>(total)) + " mixed pipelined";
    std::printf("mixed pipelined  %-16s %9.2f ms   %8.0f req/s\n",
                mixed_problem.c_str(), wall_ms, rps);
    json.add("mixed/remote_pipelined", wall_ms, mixed_problem, rps, "req/s");
  }

  // ---- degraded mode: ~1% of frames die mid-header; retries absorb it ----
  {
    net::testing::ChaosConfig chaos;
    chaos.seed = 99;  // fixed: the same fault schedule on every run
    chaos.reset_send_rate = 0.005;
    chaos.reset_recv_rate = 0.005;
    net::testing::ChaosStats faults;
    net::ClientConfig degraded_cfg;
    degraded_cfg.host = "127.0.0.1";
    degraded_cfg.port = server.value()->port();
    degraded_cfg.wrap_transport = net::testing::chaos_wrap(chaos, &faults);
    degraded_cfg.retry.max_attempts = 4;
    degraded_cfg.retry.initial_backoff_us = 200;
    degraded_cfg.retry.max_backoff_us = 2'000;
    api::Result<net::Client> degraded_conn =
        net::Client::connect(degraded_cfg);
    if (!degraded_conn.ok()) return 1;
    net::Client degraded = std::move(degraded_conn).value();

    std::vector<double> rtt;
    rtt.reserve(static_cast<std::size_t>(n));
    bench::Timer t;
    for (const api::Arch& a : archs) {
      bench::Timer one;
      if (!degraded.predict_latency(a).ok()) return 1;
      rtt.push_back(one.ms());
    }
    const double wall_ms = t.ms();
    const double rps = static_cast<double>(n) / (wall_ms / 1e3);
    const double p99 = percentile(rtt, 0.99);
    std::printf("predict degraded %-16s %9.2f ms   %8.0f req/s   "
                "p99 %.3f ms   (%lld resets absorbed, %lld reconnects)\n",
                problem.c_str(), wall_ms, rps, p99,
                static_cast<long long>(faults.resets.load()),
                static_cast<long long>(degraded.connections_dialed() - 1));
    json.add("predict/remote_degraded", wall_ms, problem, rps, "req/s");
    json.add("predict/remote_degraded_p99", p99, problem, p99, "ms");
  }

  server.value()->stop();
  json.write();
  return 0;
}
