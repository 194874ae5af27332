// client.hpp — hg::net::Client, the blocking remote counterpart of the
// Engine verbs.
//
// One client owns one TCP connection to a net::Server and mirrors the
// facade vocabulary over it: search / predict_latency (single and batch) /
// profile / profile_baseline / train_baseline, each returning the same
// Result<T> the in-process verb would (remote answers are bit-identical —
// asserted in tests/test_net.cpp). Transport failures surface as
// UNAVAILABLE; everything else is the server's own Status relayed
// verbatim.
//
// Pipelining: send(verb, args) writes any service verb's frame
// (net/verbs.hpp) and returns its request id at once; wait(verb, id)
// blocks until THAT id's reply arrives, stashing any other reply that
// lands first (the server answers in completion order, not submission
// order). This is how a single connection keeps many requests in flight —
// e.g. trickling predictions into the server's coalescing window while a
// search runs. The blocking verbs are send + wait with retries.
//
// Deadlines: `deadline_us` (0 = none) rides the frame header as the
// request's queue-time budget, measured from server receipt. An expired
// request is answered DEADLINE_EXCEEDED without running; a request
// already running is unaffected.
//
// Fault tolerance (blocking verbs only): with a RetryPolicy of more than
// one attempt, a verb that fails in TRANSPORT (send/recv errno, torn or
// unframeable reply, receive timeout — all surfaced as UNAVAILABLE)
// reconnects and retries with exponential backoff and decorrelated
// jitter. Retry is idempotency-aware: pure verbs (Verb::idempotent, and
// ping and stats) retry transparently; mutating verbs (search,
// train_baseline) surface the UNAVAILABLE instead — a transport failure
// cannot prove the request never ran — unless
// RetryPolicy::retry_mutating opts in. The exception is a reply carrying
// a retry_after_us hint: the server attaches it only to requests it
// REFUSED before running (queue-full sheds, drain refusals), so hinted
// refusals are retried for every verb, with the backoff floored at the
// server's hint. A deterministic send failure (a request payload over
// kMaxPayloadBytes: INVALID_ARGUMENT) is never retried. Retries never
// extend past the verb's deadline_us, measured from verb entry; each
// attempt's frame carries only the remaining budget. The pipelined
// send / wait API never retries (ids are tied to one connection).
//
// A Client is NOT thread-safe: drive one instance from one thread (open
// several connections for concurrent callers).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/engine.hpp"
#include "api/status.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "net/verbs.hpp"
#include "tensor/rng.hpp"

namespace hg::net {

/// Retry schedule for the blocking verbs. The default (one attempt) is
/// plain v1 behavior: every failure surfaces immediately.
struct RetryPolicy {
  /// Total attempts, the first one included; <= 1 disables retry.
  int max_attempts = 1;
  /// Decorrelated-jitter backoff: attempt n sleeps
  /// uniform(initial_backoff_us, 3 * previous_sleep), clamped to
  /// max_backoff_us and floored at the server's retry_after_us hint
  /// when one was given.
  std::int64_t initial_backoff_us = 2'000;
  std::int64_t max_backoff_us = 200'000;
  /// Seeds the jitter stream — deterministic backoff sequences in tests.
  std::uint64_t jitter_seed = 1;
  /// Opt in to retrying search / train_baseline on transport failures.
  /// Only safe when the caller knows duplicated execution is acceptable
  /// (e.g. deterministic seeds make a re-run idempotent anyway).
  bool retry_mutating = false;
};

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// recv() blocks at most this long before the call fails UNAVAILABLE;
  /// 0 = block forever. A safety net against a hung peer, not a request
  /// deadline (use deadline_us for that).
  std::int64_t recv_timeout_ms = 0;
  RetryPolicy retry;
  /// Test seam: wraps the freshly connected transport (and every
  /// reconnect's) — see net/chaos.hpp. Empty = use the socket directly.
  TransportWrap wrap_transport;
};

class Client {
 public:
  static api::Result<Client> connect(const ClientConfig& cfg);
  static api::Result<Client> connect(const std::string& host,
                                     std::uint16_t port) {
    ClientConfig cfg;
    cfg.host = host;
    cfg.port = port;
    return connect(cfg);
  }

  Client(Client&& other) noexcept = default;
  Client& operator=(Client&& other) noexcept = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() = default;

  // ---- blocking verbs (send + wait, retried per ClientConfig::retry) ----
  api::Result<api::SearchReport> search(
      std::optional<api::EngineConfig> cfg = {}, std::uint64_t deadline_us = 0);
  api::Result<api::LatencyReport> predict_latency(
      const api::Arch& arch, std::uint64_t deadline_us = 0);
  /// Mirrors Engine::predict_batch: element i is the answer to archs[i].
  /// The server evaluates elements independently (its coalescing queue
  /// packs them back together); if any element failed, the first failing
  /// element's Status is returned for the whole call, like the engine
  /// verb.
  api::Result<std::vector<api::LatencyReport>> predict_batch(
      const std::vector<api::Arch>& archs, std::uint64_t deadline_us = 0);
  api::Result<api::ProfileReport> profile(const api::Arch& arch,
                                          std::uint64_t deadline_us = 0);
  api::Result<api::ProfileReport> profile_baseline(
      const std::string& name,
      const std::optional<api::Workload>& workload = {},
      std::uint64_t deadline_us = 0);
  api::Result<api::TrainReport> train_baseline(const std::string& name,
                                               std::uint64_t deadline_us = 0);
  /// Health probe (protocol v2): answered from the server's I/O thread
  /// even when every worker is busy, so it reports saturation instead of
  /// queueing behind it.
  api::Result<HealthReport> ping(std::uint64_t deadline_us = 0);
  /// Remote metrics scrape (protocol v2, kStats): the server's full
  /// obs::Registry snapshot — serve.* counters/histograms plus the
  /// net.* frame counters — answered from the I/O thread like ping.
  api::Result<obs::Snapshot> stats(std::uint64_t deadline_us = 0);

  // ---- pipelined form of any service verb (net/verbs.hpp) ----
  /// Writes the verb's request frame and returns its id at once.
  template <typename V>
  api::Result<std::uint64_t> send(const V& verb,
                                  const typename V::Args& args,
                                  std::uint64_t deadline_us = 0) {
    Writer w;
    verb.encode_args(args, &w);
    return send_frame(verb.type, deadline_us, w.bytes());
  }
  /// Blocks until the reply to `id` (sent as `verb`) arrives, stashing
  /// any other reply that lands first.
  template <typename V>
  typename V::Reply wait(const V& verb, std::uint64_t id) {
    const api::Result<std::string> payload = recv_reply(id, verb.type);
    if (!payload.ok()) return payload.status();
    Reader r(payload.value());
    typename V::Reply out = api::Status::Internal("unparsed reply");
    if (!verb.decode_reply(&r, &out, nullptr))
      return api::Status::Unavailable("malformed reply payload");
    return out;
  }

  bool connected() const { return transport_ != nullptr; }

  /// Connections dialed over this client's lifetime (1 after connect();
  /// grows with every automatic reconnect). Observability for tests and
  /// callers curious whether their verbs have been riding retries.
  std::int64_t connections_dialed() const { return connections_dialed_; }

  /// Announce "no more requests" (a kGoodbye frame) and FIN the write
  /// side. The read side stays open: outstanding wait calls still
  /// collect their replies, after which the server closes the
  /// connection. Use this before abandoning a pipelining client whose
  /// in-flight requests should be *answered* — a plain close() makes the
  /// server cancel them instead. Further send calls fail UNAVAILABLE.
  api::Status goodbye();

  /// Close the connection (any still-queued server-side work for it gets
  /// cancelled on the server). Idempotent; further calls fail UNAVAILABLE.
  void close();

 private:
  Client() = default;

  /// Parses one reply payload, reporting the server's retry_after_us hint
  /// (0 = none). Returns false on malformed bytes — a transport-class
  /// failure, distinct from a decoded error Status.
  template <typename Reply>
  using DecodeReply = bool (*)(Reader*, Reply*, std::uint64_t* retry_after_us);

  /// Dial cfg.host:cfg.port (EINTR-safe) and apply cfg.wrap_transport.
  static api::Result<std::unique_ptr<Transport>> dial(
      const ClientConfig& cfg);
  /// Re-dial after a dropped connection; refused after goodbye()/close().
  api::Status reconnect();
  /// Tear down the transport and any half-accumulated frame. Stashed
  /// complete replies survive (their ids are never reused).
  void drop_connection();

  /// The blocking-verb engine: send, await the reply, parse — retrying
  /// per cfg_.retry as documented at the top of this header.
  template <typename Reply>
  Reply roundtrip(FrameType type, const std::string& payload,
                  std::uint64_t deadline_us, bool idempotent,
                  DecodeReply<Reply> decode);
  /// roundtrip for one service verb.
  template <typename V>
  typename V::Reply call(const V& verb, const typename V::Args& args,
                         std::uint64_t deadline_us);

  api::Result<std::uint64_t> send_frame(FrameType type,
                                        std::uint64_t deadline_us,
                                        const std::string& payload);
  /// Blocks until the reply for `id` arrives (stashing others), then
  /// checks its type and hands back the payload.
  api::Result<std::string> recv_reply(std::uint64_t id, FrameType type);

  ClientConfig cfg_;
  std::unique_ptr<Transport> transport_;
  Rng jitter_{1};
  std::int64_t connections_dialed_ = 0;
  std::uint64_t next_id_ = 1;
  bool sent_goodbye_ = false;  // write side FIN'd; reads still live
  bool user_closed_ = false;   // explicit close(): no auto-reconnect
  std::string in_;  // partial-frame accumulation
  std::map<std::uint64_t, std::pair<std::uint16_t, std::string>> stash_;
};

}  // namespace hg::net
