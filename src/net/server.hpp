// server.hpp — hg::net::Server, the TCP front end of a serve::Service.
//
// One server owns one serve::Service and a single poll-based I/O thread
// that multiplexes any number of client connections onto it:
//
//   accept ──► read frames ──► decode request ──► Service::submit(...)
//                                                    │  (worker pool)
//   write replies ◄── encode Result ◄── future ready ◄┘ (self-pipe wakeup)
//
// Per-request semantics, end to end:
//   * Deadlines: a frame's deadline_us (queue-time budget from receipt)
//     becomes RequestOptions::deadline; a request still queued when it
//     expires is answered DEADLINE_EXCEEDED without running.
//   * Back-pressure: the service's bounded queue
//     (ServiceConfig::max_queue_depth, wired from ServerConfig) refuses
//     over-limit submissions with an immediate RESOURCE_EXHAUSTED reply
//     instead of growing without bound.
//   * Cancellation: every connection carries one cancel flag, shared by
//     its in-flight requests; a disconnect sets it, so that connection's
//     still-queued requests are abandoned (CANCELLED, never run) instead
//     of occupying workers for a peer that is gone.
//   * Robustness: malformed payloads are answered INVALID_ARGUMENT;
//     unframeable input (bad magic / version / oversized length) drops
//     the connection. Neither crashes nor over-reads (tests/test_net.cpp
//     fuzzes this).
//
// The I/O thread never blocks on the service: submissions return
// std::futures, completion wakes the poll loop through a self-pipe
// (RequestOptions::notify), and replies go out in completion order —
// pipelined request ids may be answered out of order by design.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "api/status.hpp"
#include "net/transport.hpp"
#include "serve/service.hpp"

namespace hg::net {

struct ServerConfig {
  /// Listen address. Default loopback only; "0.0.0.0" exposes the fleet.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral port chosen by the kernel (read it back via port()).
  std::uint16_t port = 0;
  /// Accepted connections beyond this are refused at accept time.
  std::int64_t max_connections = 64;
  /// The owned service (worker pool, coalescing, bounded queue, window).
  /// max_queue_depth here is the server's back-pressure bound; the
  /// default bounds it at 1024 instead of serve's unbounded default,
  /// because a socket front end must not let a fast peer grow the queue
  /// without limit.
  serve::ServiceConfig service{.max_queue_depth = 1024};
  /// retry_after_us hint attached to refused-before-running replies
  /// (queue-full RESOURCE_EXHAUSTED sheds, drain-time UNAVAILABLE
  /// refusals): "come back in about this long". Clients floor their
  /// retry backoff at it. 0 disables the hint.
  std::uint64_t shed_retry_after_us = 5'000;
  /// Test seam: wraps every accepted connection's transport (see
  /// net/chaos.hpp). Empty = use the socket directly.
  TransportWrap wrap_transport;
};

class Server {
 public:
  /// Build the service from `cfg` (fitting the predictor when configured)
  /// and start listening. Binding failures surface as UNAVAILABLE.
  static api::Result<std::shared_ptr<Server>> create(
      const api::EngineConfig& cfg, const ServerConfig& server_cfg = {});

  /// Same, on an existing shared context (fleet startup).
  static api::Result<std::shared_ptr<Server>> create(
      const api::EngineConfig& cfg, std::shared_ptr<api::EvalContext> ctx,
      const ServerConfig& server_cfg = {});

  /// stop() + join; drains the owned service.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The port actually bound (resolves port 0).
  std::uint16_t port() const { return port_; }

  /// Stop accepting, close every connection (cancelling its queued
  /// requests), drain and shut down the service. Idempotent.
  void stop();

  /// Graceful wind-down, non-blocking and idempotent: close the listen
  /// socket (new connects are refused), refuse new frames with
  /// UNAVAILABLE + retry_after_us, finish every request already
  /// admitted, flush its reply, then half-close each connection and wait
  /// for the peer's FIN. Pings still answer (state = draining): a
  /// connection is only FIN'd after it has been answered during the
  /// drain, so an idle peer keeps its connection until it next speaks
  /// (it gets that answer, then the FIN). Call stop() afterwards to join
  /// the I/O thread and the workers.
  void drain();
  bool draining() const;

  /// The owned service. Its metrics_snapshot() also carries this
  /// server's "net.*" counters: it is exactly what kStats answers.
  const std::shared_ptr<serve::Service>& service() const { return service_; }

 private:
  struct Impl;

  Server() = default;

  std::shared_ptr<serve::Service> service_;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

}  // namespace hg::net
