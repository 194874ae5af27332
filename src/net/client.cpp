#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace hg::net {

namespace {

api::Status transport_error(const std::string& what) {
  return api::Status::Unavailable(what + ": " + errno_string(errno));
}

api::Status disconnected_status() {
  return api::Status::Unavailable("client is not connected");
}

std::int64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

api::Result<std::unique_ptr<Transport>> Client::dial(const ClientConfig& cfg) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return transport_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg.port);
  if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return api::Status::InvalidArgument(
        "ClientConfig::host is not an IPv4 address: " + cfg.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    bool established = false;
    if (errno == EINTR) {
      // POSIX: an EINTR'd connect(2) keeps establishing in the
      // background; re-calling connect() races the in-flight handshake
      // (EALREADY/EISCONN). Wait for writability, then read the real
      // outcome from SO_ERROR.
      pollfd p{};
      p.fd = fd;
      p.events = POLLOUT;
      int rc = 0;
      do {
        rc = ::poll(&p, 1, -1);
      } while (rc < 0 && errno == EINTR);
      if (rc > 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
          err = errno;
        }
        if (err == 0) {
          established = true;
        } else {
          errno = err;
        }
      }
    }
    if (!established) {
      // ECONNREFUSED / ETIMEDOUT / EHOSTUNREACH all land here: the
      // server is not reachable right now — UNAVAILABLE, retryable.
      const api::Status status = transport_error(
          "connect(" + cfg.host + ":" + std::to_string(cfg.port) +
          ") failed");
      ::close(fd);
      return status;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (cfg.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = cfg.recv_timeout_ms / 1000;
    tv.tv_usec = (cfg.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  std::unique_ptr<Transport> transport = std::make_unique<SocketTransport>(fd);
  if (cfg.wrap_transport) transport = cfg.wrap_transport(std::move(transport));
  return transport;
}

api::Result<Client> Client::connect(const ClientConfig& cfg) {
  api::Result<std::unique_ptr<Transport>> transport = dial(cfg);
  if (!transport.ok()) return transport.status();
  Client client;
  client.cfg_ = cfg;
  client.jitter_ = Rng(cfg.retry.jitter_seed);
  client.transport_ = std::move(transport).value();
  client.connections_dialed_ = 1;
  return client;
}

api::Status Client::reconnect() {
  if (user_closed_) return disconnected_status();
  if (sent_goodbye_)
    return api::Status::Unavailable("no more requests after goodbye()");
  api::Result<std::unique_ptr<Transport>> transport = dial(cfg_);
  if (!transport.ok()) return transport.status();
  transport_ = std::move(transport).value();
  ++connections_dialed_;
  in_.clear();
  return api::Status::Ok();
}

void Client::drop_connection() {
  transport_.reset();
  in_.clear();
}

void Client::close() {
  drop_connection();
  user_closed_ = true;
}

api::Status Client::goodbye() {
  if (sent_goodbye_) return api::Status::Ok();  // idempotent
  api::Result<std::uint64_t> id = send_frame(FrameType::kGoodbye, 0, "");
  if (!id.ok()) return id.status();
  sent_goodbye_ = true;
  transport_->shutdown_write();
  return api::Status::Ok();
}

api::Result<std::uint64_t> Client::send_frame(FrameType type,
                                              std::uint64_t deadline_us,
                                              const std::string& payload) {
  if (!connected()) return disconnected_status();
  // After goodbye() the write side is gone but replies are still being
  // collected: refuse here instead of letting EPIPE tear down the whole
  // connection (and with it the pending replies).
  if (sent_goodbye_)
    return api::Status::Unavailable("no more requests after goodbye()");
  if (payload.size() > kMaxPayloadBytes)
    return api::Status::InvalidArgument("request payload exceeds the wire "
                                        "limit");
  const std::uint64_t id = next_id_++;
  const std::string frame =
      encode_frame(type, /*reply=*/false, id, deadline_us, payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        transport_->send(frame.data() + sent, frame.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    const api::Status status = transport_error("send() failed");
    drop_connection();
    return status;
  }
  return id;
}

api::Result<std::string> Client::recv_reply(std::uint64_t id,
                                            FrameType type) {
  const std::uint16_t want_type =
      static_cast<std::uint16_t>(type) | kReplyBit;
  for (;;) {
    // Served already (a pipelined peer's reply landed first)?
    auto it = stash_.find(id);
    if (it != stash_.end()) {
      std::pair<std::uint16_t, std::string> reply = std::move(it->second);
      stash_.erase(it);
      if (reply.first != want_type)
        return api::Status::Unavailable(
            "reply type mismatch (got " + std::to_string(reply.first) +
            ", want " + std::to_string(want_type) + ")");
      return std::move(reply.second);
    }
    if (!connected()) return disconnected_status();

    // Pull complete frames off the socket into the stash.
    while (in_.size() >= kHeaderSize) {
      FrameHeader h;
      const HeaderDecode hd = decode_header_ex(in_.data(), in_.size(), &h);
      if (hd == HeaderDecode::kBadVersion) {
        // A server speaking another protocol version: its farewell (or
        // any reply) is unparseable beyond the header. Typed, terminal,
        // never retried.
        drop_connection();
        return api::Status::FailedPrecondition(
            "protocol version mismatch: server speaks v" +
            std::to_string(h.version) + ", client speaks v" +
            std::to_string(kProtocolVersion));
      }
      if (hd != HeaderDecode::kOk) {
        drop_connection();
        return api::Status::Unavailable("unframeable reply stream");
      }
      if (in_.size() < kHeaderSize + h.payload_len) break;
      stash_[h.request_id] = {h.type,
                              in_.substr(kHeaderSize, h.payload_len)};
      in_.erase(0, kHeaderSize + h.payload_len);
    }
    if (stash_.count(id)) continue;

    char buf[64 * 1024];
    const ssize_t n = transport_->recv(buf, sizeof(buf));
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const api::Status status =
        n == 0 ? api::Status::Unavailable("server closed the connection")
        : (errno == EAGAIN || errno == EWOULDBLOCK)
            ? api::Status::Unavailable("receive timed out")
            : transport_error("recv() failed");
    drop_connection();
    return status;
  }
}

// ---- retrying roundtrip ----------------------------------------------------

template <typename Reply>
Reply Client::roundtrip(FrameType type, const std::string& payload,
                        std::uint64_t deadline_us, bool idempotent,
                        DecodeReply<Reply> decode) {
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  if (sent_goodbye_)
    return api::Status::Unavailable("no more requests after goodbye()");
  const int max_attempts = std::max(1, cfg_.retry.max_attempts);
  std::int64_t prev_sleep_us = cfg_.retry.initial_backoff_us;
  api::Status failure = disconnected_status();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // The frame carries the REMAINING budget, not the original figure —
    // the server's queue-time clock starts at receipt, and a retried
    // request has already spent part of the caller's patience.
    std::uint64_t remaining = deadline_us;
    if (deadline_us > 0) {
      const std::int64_t elapsed = elapsed_us(start);
      if (elapsed >= static_cast<std::int64_t>(deadline_us))
        return api::Status::DeadlineExceeded(
            "request deadline expired after " + std::to_string(attempt - 1) +
            " attempt(s); last failure: " + failure.message());
      remaining = deadline_us - static_cast<std::uint64_t>(elapsed);
    }

    std::uint64_t hint_us = 0;
    bool hinted_refusal = false;
    bool attempt_failed = false;
    if (!connected()) {
      const api::Status status = reconnect();
      if (!status.ok()) {
        // Non-UNAVAILABLE dial failures (bad host) are config errors.
        if (status.code() != api::StatusCode::kUnavailable) return status;
        failure = status;
        attempt_failed = true;
      }
    }
    if (!attempt_failed) {
      const api::Result<std::uint64_t> id =
          send_frame(type, remaining, payload);
      if (!id.ok()) {
        // An oversized payload (INVALID_ARGUMENT) fails every attempt the
        // same way; only UNAVAILABLE is transport-class.
        if (id.status().code() != api::StatusCode::kUnavailable)
          return id.status();
        failure = id.status();
        attempt_failed = true;
      } else {
        const api::Result<std::string> reply = recv_reply(id.value(), type);
        if (!reply.ok()) {
          // Version mismatch (FAILED_PRECONDITION) is terminal; every
          // UNAVAILABLE here is transport-class.
          if (reply.status().code() != api::StatusCode::kUnavailable)
            return reply.status();
          failure = reply.status();
          attempt_failed = true;
        } else {
          Reader r(reply.value());
          Reply parsed = api::Status::Internal("unparsed reply");
          if (!decode(&r, &parsed, &hint_us)) {
            drop_connection();
            failure = api::Status::Unavailable("malformed reply payload");
            attempt_failed = true;
          } else if (!parsed.ok() && hint_us > 0) {
            // A hinted refusal: the server turned the request away
            // BEFORE running it (shed / draining), so retrying is safe
            // for every verb, mutating ones included.
            failure = parsed.status();
            hinted_refusal = true;
            attempt_failed = true;
          } else {
            return parsed;  // success, or the server's own typed answer
          }
        }
      }
    }

    const bool retryable =
        hinted_refusal || idempotent || cfg_.retry.retry_mutating;
    if (!retryable || attempt == max_attempts) return failure;
    // A hinted refusal leaves a healthy connection — keep it. Everything
    // else reconnects from scratch on the next attempt.
    if (!hinted_refusal) drop_connection();

    // Decorrelated jitter: sleep uniform(initial, 3 * previous sleep),
    // clamped to max_backoff_us and floored at the server's pacing hint.
    const std::int64_t lo = std::max<std::int64_t>(0,
                                                   cfg_.retry.initial_backoff_us);
    const std::int64_t hi = std::max(lo, prev_sleep_us * 3);
    std::int64_t sleep_us = lo;
    if (hi > lo)
      sleep_us = lo + static_cast<std::int64_t>(jitter_.uniform_int(
                          static_cast<std::uint64_t>(hi - lo + 1)));
    sleep_us = std::min(sleep_us, cfg_.retry.max_backoff_us);
    if (hint_us > 0)
      sleep_us = std::max(sleep_us, static_cast<std::int64_t>(hint_us));
    if (deadline_us > 0 &&
        elapsed_us(start) + sleep_us >=
            static_cast<std::int64_t>(deadline_us))
      return api::Status::DeadlineExceeded(
          "retry backoff would overrun the request deadline; last "
          "failure: " +
          failure.message());
    prev_sleep_us = std::max<std::int64_t>(sleep_us, 1);
    if (sleep_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
  return failure;  // unreachable: the loop returns on its last attempt
}

template <typename V>
typename V::Reply Client::call(const V& verb, const typename V::Args& args,
                               std::uint64_t deadline_us) {
  Writer w;
  verb.encode_args(args, &w);
  return roundtrip(verb.type, w.bytes(), deadline_us, verb.idempotent,
                   verb.decode_reply);
}

// ---- blocking verbs --------------------------------------------------------

api::Result<api::SearchReport> Client::search(
    std::optional<api::EngineConfig> cfg, std::uint64_t deadline_us) {
  return call(verbs::kSearch, cfg, deadline_us);
}

api::Result<api::LatencyReport> Client::predict_latency(
    const api::Arch& arch, std::uint64_t deadline_us) {
  return call(verbs::kPredictLatency, arch, deadline_us);
}

api::Result<std::vector<api::LatencyReport>> Client::predict_batch(
    const std::vector<api::Arch>& archs, std::uint64_t deadline_us) {
  return call(verbs::kPredictBatch, archs, deadline_us);
}

api::Result<api::ProfileReport> Client::profile(const api::Arch& arch,
                                                std::uint64_t deadline_us) {
  return call(verbs::kProfile, arch, deadline_us);
}

api::Result<api::ProfileReport> Client::profile_baseline(
    const std::string& name, const std::optional<api::Workload>& workload,
    std::uint64_t deadline_us) {
  return call(verbs::kProfileBaseline, {name, workload}, deadline_us);
}

api::Result<api::TrainReport> Client::train_baseline(
    const std::string& name, std::uint64_t deadline_us) {
  return call(verbs::kTrainBaseline, name, deadline_us);
}

api::Result<HealthReport> Client::ping(std::uint64_t deadline_us) {
  return roundtrip<api::Result<HealthReport>>(
      FrameType::kPing, "", deadline_us, /*idempotent=*/true,
      &decode_report_reply<&decode_health_report>);
}

api::Result<obs::Snapshot> Client::stats(std::uint64_t deadline_us) {
  return roundtrip<api::Result<obs::Snapshot>>(
      FrameType::kStats, "", deadline_us, /*idempotent=*/true,
      &decode_report_reply<&decode_stats_snapshot>);
}

}  // namespace hg::net
