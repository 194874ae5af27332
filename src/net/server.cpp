#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/annotations.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "net/verbs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hg::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

constexpr std::size_t kReadChunk = 64 * 1024;

/// Write-side back-pressure: stop reading a connection whose unflushed
/// replies exceed this, so a peer that pipelines requests without ever
/// draining its answers cannot grow c.out without bound. Reads resume
/// once the buffer flushes below the mark. (Replies for requests already
/// admitted still append past it — bounded by the service queue depth.)
constexpr std::size_t kMaxBufferedReplyBytes = 4 * 1024 * 1024;

/// Most reply buffers handed to one sendv(2) call. Linux caps a single
/// sendmsg at IOV_MAX (1024) iovecs; 64 already amortizes the syscall
/// across a coalesced window's replies without building giant arrays.
constexpr int kMaxFlushIovecs = 64;

/// The write side of a connection: one encoded reply frame per buffer,
/// flushed with a single gathered sendv instead of concatenating into
/// (and erasing from the front of) one ever-reallocating string. The
/// head buffer may be partially written; head_off tracks how far.
class OutQueue {
 public:
  bool empty() const { return bytes_ == 0; }
  std::size_t size() const { return bytes_; }

  void append(std::string frame) {
    if (frame.empty()) return;
    bytes_ += frame.size();
    bufs_.push_back(std::move(frame));
  }

  /// Fills `iov` (capacity kMaxFlushIovecs) with the unflushed prefix;
  /// returns the iovec count.
  int gather(struct iovec* iov) const {
    int n = 0;
    std::size_t off = head_off_;
    for (const std::string& b : bufs_) {
      if (n == kMaxFlushIovecs) break;
      iov[n].iov_base =
          const_cast<char*>(b.data()) + static_cast<std::ptrdiff_t>(off);
      iov[n].iov_len = b.size() - off;
      ++n;
      off = 0;
    }
    return n;
  }

  /// Advances past `n` written bytes (which may end mid-buffer).
  void consume(std::size_t n) {
    bytes_ -= n;
    while (n > 0) {
      const std::size_t head_left = bufs_.front().size() - head_off_;
      if (n < head_left) {
        head_off_ += n;
        return;
      }
      n -= head_left;
      head_off_ = 0;
      bufs_.pop_front();
    }
  }

 private:
  std::deque<std::string> bufs_;
  std::size_t head_off_ = 0;  // flushed prefix of bufs_.front()
  std::size_t bytes_ = 0;     // total unflushed bytes across bufs_
};

/// The queue-full sheds in a service answer: its RESOURCE_EXHAUSTED
/// statuses.
template <typename T>
int count_sheds(const api::Result<T>& answer) {
  return !answer.ok() &&
         answer.status().code() == api::StatusCode::kResourceExhausted;
}

template <typename T>
int count_sheds(const std::vector<api::Result<T>>& answers) {
  int n = 0;
  for (const api::Result<T>& a : answers) n += count_sheds(a);
  return n;
}

}  // namespace

struct Server::Impl {
  /// One submitted request whose reply has not been written yet.
  /// Alternative I of the future variant is the answer of verbs::kAll's
  /// verb I.
  using Futures = decltype(std::apply(
      [](const auto&... verb) {
        return std::variant<std::future<
            typename std::decay_t<decltype(verb)>::Served>...>{};
      },
      verbs::kAll));
  struct Pending {
    std::uint64_t id = 0;
    FrameType type = FrameType::kSearch;
    Futures future;
    // Frame receipt, for the end-to-end "net.request" span (receipt ->
    // reply encoded).
    std::chrono::steady_clock::time_point received_at;

    bool ready() const {
      return std::visit(
          [](const auto& f) {
            return f.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
          },
          future);
    }
  };

  struct Conn {
    // Owns the fd (closes it on destruction). The map key is the same
    // fd, used for poll(2).
    std::unique_ptr<Transport> transport;
    std::string in;
    OutQueue out;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::deque<Pending> pending;
    // The peer sent kGoodbye: no more requests will arrive, but the ones
    // already submitted are still served and their replies flushed
    // before the connection is closed. A FIN *without* a goodbye is an
    // abandoning disconnect and cancels this connection's queued work.
    bool goodbye = false;
    // A goodbye peer's FIN arrived (it shutdown(SHUT_WR) after the
    // goodbye); stop polling its read side.
    bool peer_eof = false;
    // Server-side drain: we FIN'd our write side after the last reply
    // flushed; reads are discarded until the peer's FIN closes the
    // connection for good.
    bool half_closed = false;
    // We answered this peer (a reply, a ping, a refusal) while draining:
    // it has been TOLD about the drain, so once its work is flushed the
    // FIN below is not a surprise hangup. A peer idle since drain began
    // keeps its connection (it may still want to ping) until it next
    // speaks or stop() closes everything.
    bool answered_in_drain = false;
  };

  Impl(serve::Service& svc, const ServerConfig& server_cfg)
      : service(&svc), cfg(server_cfg) {}

  serve::Service* service;
  ServerConfig cfg;
  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::thread loop;
  std::atomic<bool> stopping{false};
  // Server::drain(): written by any thread, acted on by the poll thread
  // (which closes the listen fd and starts refusing new frames).
  std::atomic<bool> draining{false};
  const std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  core::Mutex stop_mutex;  // serializes concurrent Server::stop() callers

  // The "net.*" counters live in the owned service's registry (so one
  // kStats snapshot tells the whole story); each registers itself here and
  // is bumped lock-free from the poll thread. All are monotone.
  struct NetCounters {
    obs::Registry& r;
    obs::Counter& connections_opened = r.counter("net.connections_opened");
    obs::Counter& connections_closed = r.counter("net.connections_closed");
    // Accepts over max_connections.
    obs::Counter& connections_refused = r.counter("net.connections_refused");
    obs::Counter& frames_received = r.counter("net.frames_received");
    // Malformed payloads (INVALID_ARGUMENT replies).
    obs::Counter& frames_rejected = r.counter("net.frames_rejected");
    // Unframeable input (bad magic / oversized length).
    obs::Counter& connections_dropped = r.counter("net.connections_dropped");
    obs::Counter& replies_sent = r.counter("net.replies_sent");
    // Reply bodies over kMaxPayloadBytes, answered RESOURCE_EXHAUSTED: from
    // healthy traffic, so kept apart from frames_rejected.
    obs::Counter& oversized_replies = r.counter("net.oversized_replies");
    // Peers on another protocol version (one farewell, then dropped).
    obs::Counter& version_mismatches = r.counter("net.version_mismatches");
  };
  NetCounters nc{service->registry()};

  // The connection table (fds, buffered frames, reply buffers, pending
  // futures) is owned by the poll thread alone after start: run() is the
  // only code that touches it until shutdown_io() has joined the thread.
  // No mutex — single-threaded by construction, checked by TSan in CI.
  std::map<int, Conn> conns;

  // ---- lifecycle -----------------------------------------------------------
  api::Status listen_on(const std::string& host, std::uint16_t port,
                        std::uint16_t* bound) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0)
      return api::Status::Unavailable("socket() failed: " +
                                      errno_string(errno));
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
      return api::Status::InvalidArgument("ServerConfig::host is not an "
                                          "IPv4 address: " + host);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
      return api::Status::Unavailable("bind(" + host + ":" +
                                      std::to_string(port) + ") failed: " +
                                      errno_string(errno));
    if (::listen(listen_fd, 64) != 0)
      return api::Status::Unavailable(std::string("listen() failed: ") +
                                      errno_string(errno));
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&actual),
                      &len) != 0)
      return api::Status::Unavailable(std::string("getsockname() failed: ") +
                                      errno_string(errno));
    *bound = ntohs(actual.sin_port);
    if (!set_nonblocking(listen_fd))
      return api::Status::Unavailable("cannot make listen socket "
                                      "non-blocking");
    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0)
      return api::Status::Unavailable(std::string("pipe() failed: ") +
                                      errno_string(errno));
    wake_read = pipe_fds[0];
    wake_write = pipe_fds[1];
    set_nonblocking(wake_read);
    set_nonblocking(wake_write);
    return api::Status::Ok();
  }

  void wake() const {
    if (wake_write >= 0) {
      const char b = 1;
      // Non-blocking; a full pipe already guarantees a wakeup is queued.
      (void)!::write(wake_write, &b, 1);
    }
  }

  // ---- the poll loop -------------------------------------------------------
  void run() {
    while (!stopping.load(std::memory_order_acquire)) {
      // Draining: close the listen socket here, on the thread that owns
      // it, so a late client sees a refused connection instead of a
      // backlog nobody will ever accept. A pollfd with fd < 0 is
      // ignored, so the (now -1) listen slot below stays harmless.
      if (draining.load(std::memory_order_acquire) && listen_fd >= 0) {
        ::close(listen_fd);
        listen_fd = -1;
      }
      std::vector<pollfd> fds;
      fds.push_back({wake_read, POLLIN, 0});
      const bool can_accept =
          static_cast<std::int64_t>(conns.size()) < cfg.max_connections;
      fds.push_back({listen_fd, static_cast<short>(can_accept ? POLLIN : 0),
                     0});
      for (const auto& [fd, c] : conns) {
        const bool throttled =
            c.peer_eof || c.out.size() > kMaxBufferedReplyBytes;
        fds.push_back({fd, static_cast<short>(
                               (throttled ? 0 : POLLIN) |
                               (c.out.empty() ? 0 : POLLOUT)),
                       0});
      }

      // The self-pipe wakes us on any service completion; 200 ms is only
      // a safety net (e.g. a missed edge during shutdown races).
      (void)::poll(fds.data(), fds.size(), 200);
      if (stopping.load(std::memory_order_acquire)) break;

      if (fds[0].revents & POLLIN) drain_wake_pipe();
      if (fds[1].revents & POLLIN) accept_new();

      std::vector<int> dead;
      for (std::size_t i = 2; i < fds.size(); ++i) {
        auto it = conns.find(fds[i].fd);
        if (it == conns.end()) continue;
        Conn& c = it->second;
        bool drop = (fds[i].revents & (POLLERR | POLLNVAL)) != 0;
        if (!drop && (fds[i].revents & (POLLIN | POLLHUP)))
          drop = !read_from(c);
        if (!drop && (fds[i].revents & POLLOUT)) drop = !flush(c);
        if (drop) dead.push_back(fds[i].fd);
      }
      for (int fd : dead) close_conn(fd);

      pump_completions();
    }
  }

  void drain_wake_pipe() const {
    char buf[256];
    while (::read(wake_read, buf, sizeof(buf)) > 0) {
    }
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient error: try next round
      if (static_cast<std::int64_t>(conns.size()) >= cfg.max_connections) {
        ::close(fd);
        nc.connections_refused.inc();
        continue;
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Conn c;
      c.transport = std::make_unique<SocketTransport>(fd);
      if (cfg.wrap_transport)
        c.transport = cfg.wrap_transport(std::move(c.transport));
      c.cancel = std::make_shared<std::atomic<bool>>(false);
      conns.emplace(fd, std::move(c));
      nc.connections_opened.inc();
    }
  }

  /// True when c.in holds a complete, well-framed kGoodbye frame. A
  /// header-only walk — nothing is submitted, so an abandoning FIN can
  /// be recognized without first handing the dead peer's final requests
  /// to the service.
  static bool buffered_goodbye(const Conn& c) {
    std::size_t pos = 0;
    while (c.in.size() - pos >= kHeaderSize) {
      FrameHeader h;
      if (!decode_header(c.in.data() + pos, c.in.size() - pos, &h))
        return false;  // unframeable: the caller drops the connection
      if (c.in.size() - pos < kHeaderSize + h.payload_len) break;
      // Only a well-formed goodbye counts: handle_frame rejects a
      // payload-bearing one without setting the drain flag, which would
      // otherwise submit the dead peer's requests only to cancel them.
      if (h.type == static_cast<std::uint16_t>(FrameType::kGoodbye) &&
          h.payload_len == 0)
        return true;
      pos += kHeaderSize + h.payload_len;
    }
    return false;
  }

  /// Reads everything available; false when the connection must be
  /// dropped (read error, unframeable stream, or the peer is gone).
  /// After a kGoodbye the peer's FIN is expected — requests pipelined
  /// before the goodbye keep the connection alive until their replies
  /// are flushed (see pump_completions). A FIN with no goodbye is an
  /// abandoning disconnect: the final buffered frames are discarded
  /// unsubmitted and dropping the connection cancels its queued work
  /// (close_conn). A half-closed (server-drain) connection only reads
  /// to discard: its peer's FIN is the close.
  bool read_from(Conn& c) {
    char buf[kReadChunk];
    for (;;) {
      const ssize_t n = c.transport->recv(buf, sizeof(buf));
      if (n > 0) {
        if (!c.half_closed) c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {  // orderly shutdown by the peer
        if (c.half_closed) return false;  // drain handshake complete
        if (!c.goodbye && !buffered_goodbye(c)) return false;  // abandoned
        if (!parse_frames(c)) return false;
        if (!c.goodbye) return false;  // the goodbye was malformed
        c.peer_eof = true;
        return !(c.pending.empty() && c.out.empty());
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    return c.half_closed || parse_frames(c);
  }

  bool parse_frames(Conn& c) {
    std::size_t consumed = 0;
    while (!c.goodbye && c.in.size() - consumed >= kHeaderSize) {
      FrameHeader h;
      const HeaderDecode hd = decode_header_ex(
          c.in.data() + consumed, c.in.size() - consumed, &h);
      if (hd == HeaderDecode::kBadVersion) {
        // A peer speaking another protocol version: answer its frame
        // with one FAILED_PRECONDITION farewell framed in ITS version
        // (best-effort flush below), then drop — the rest of its stream
        // cannot be parsed.
        nc.version_mismatches.inc();
        c.out.append(encode_version_farewell(h));
        (void)flush(c);
        return false;
      }
      if (hd != HeaderDecode::kOk) {
        // Bad magic / oversized length: byte-stream framing is lost,
        // nothing downstream can be trusted. Drop the connection.
        nc.connections_dropped.inc();
        return false;
      }
      if (c.in.size() - consumed < kHeaderSize + h.payload_len) break;
      handle_frame(c, h, c.in.data() + consumed + kHeaderSize,
                   h.payload_len);
      consumed += kHeaderSize + h.payload_len;
    }
    if (c.goodbye)
      c.in.clear();  // nothing after a goodbye is meaningful
    else
      c.in.erase(0, consumed);
    return true;
  }

  void reply_error(Conn& c, FrameType type, std::uint64_t id,
                   const api::Status& status) {
    Writer w;
    encode_status(status, &w);
    send_reply(c, type, id, w.take());
    nc.frames_rejected.inc();
  }

  /// A refused-before-running reply (drain-time UNAVAILABLE): carries the
  /// retry_after_us hint so the peer can pace its retry. Not counted as a
  /// rejected frame — the request was well-formed, just turned away.
  void reply_refusal(Conn& c, FrameType type, std::uint64_t id,
                     const api::Status& status) {
    Writer w;
    encode_status(status, &w, cfg.shed_retry_after_us);
    send_reply(c, type, id, w.take());
    if (cfg.shed_retry_after_us > 0) service->record_shed_hint();
  }

  void send_reply(Conn& c, FrameType type, std::uint64_t id,
                  std::string payload) {
    if (payload.size() > kMaxPayloadBytes) {
      // The peer's decode_header rejects frames above kMaxPayloadBytes
      // (and past 4 GB the u32 length field would truncate): framing an
      // oversized body would kill the whole stream on the client side.
      // Answer this one request with a clean error instead.
      Writer w;
      encode_status(
          api::Status::ResourceExhausted(
              "reply payload (" + std::to_string(payload.size()) +
              " bytes) exceeds the wire limit"),
          &w);
      payload = w.take();
      nc.oversized_replies.inc();
    }
    c.out.append(encode_frame(type, /*reply=*/true, id, 0, payload));
    nc.replies_sent.inc();
    if (draining.load(std::memory_order_acquire)) c.answered_in_drain = true;
  }

  void handle_frame(Conn& c, const FrameHeader& h, const char* payload,
                    std::size_t len) {
    const auto type = static_cast<FrameType>(h.type & ~kReplyBit);
    if (!is_request_type(h.type)) {
      reply_error(c, type, h.request_id,
                  api::Status::InvalidArgument(
                      "unknown frame type " + std::to_string(h.type)));
      return;
    }
    nc.frames_received.inc();
    if (verbs::with_verb(h.type, [&](auto index) {
          submit(c, index, h, payload, len);
        }))
      return;
    // Goodbye, ping and stats: answered here on the I/O thread, without a
    // payload.
    if (len != 0) {
      reply_error(c, type, h.request_id,
                  api::Status::InvalidArgument(
                      std::string(type == FrameType::kGoodbye ? "goodbye"
                                  : type == FrameType::kPing  ? "ping"
                                                              : "stats") +
                      " frame carries a payload"));
      return;
    }
    if (type == FrameType::kGoodbye) {
      c.goodbye = true;  // no reply: the close after the drain is the ack
    } else if (type == FrameType::kPing) {
      // A ping must come back even when every worker is wedged, which is
      // exactly when callers need the report.
      service->record_ping();
      HealthReport rep;
      rep.queue_depth = service->queue_depth();
      rep.state = draining.load(std::memory_order_acquire)
                      ? HealthState::kDraining
                      : (cfg.service.max_queue_depth > 0 &&
                                 rep.queue_depth >= cfg.service.max_queue_depth
                             ? HealthState::kOverloaded
                             : HealthState::kAccepting);
      rep.workers = cfg.service.num_workers;
      rep.uptime_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - started)
              .count());
      send_reply(c, type, h.request_id,
                 encode_reply<HealthReport>(rep, encode_health_report));
    } else {
      // A metrics scrape must not queue behind the very backlog it is
      // trying to diagnose, and it still answers while draining.
      send_reply(c, type, h.request_id,
                 encode_reply<obs::Snapshot>(service->metrics_snapshot(),
                                             encode_stats_snapshot));
    }
  }

  /// Decodes the request of verbs::kAll's verb I and submits it, or
  /// answers it here when the payload is malformed or the verb refuses it
  /// up front.
  template <std::size_t I>
  void submit(Conn& c, std::integral_constant<std::size_t, I>,
              const FrameHeader& h, const char* payload, std::size_t len) {
    const auto& verb = std::get<I>(verbs::kAll);
    using V = std::decay_t<decltype(verb)>;
    if (draining.load(std::memory_order_acquire)) {
      // Refused BEFORE submission: this request never ran, which the
      // retry_after_us hint certifies — safe to retry elsewhere (or
      // here, if the drain is a rolling restart) for every verb.
      reply_refusal(c, verb.type, h.request_id,
                    api::Status::Unavailable("server is draining"));
      return;
    }
    const std::chrono::steady_clock::time_point received_at =
        std::chrono::steady_clock::now();
    typename V::Args args{};
    Reader r(payload, len);
    if (!verb.decode_args(&r, &args) || !r.exhausted()) {
      reply_error(c, verb.type, h.request_id,
                  api::Status::InvalidArgument(std::string("malformed ") +
                                               verb.name +
                                               " request payload"));
      return;
    }
    if (verb.refuse != nullptr) {
      if (std::optional<typename V::Served> refusal = verb.refuse(args)) {
        send_reply(c, verb.type, h.request_id,
                   verb.encode_reply(*refusal, 0));
        return;
      }
    }
    serve::RequestOptions opts;
    if (h.deadline_us > 0) {
      // Saturate the peer-controlled budget before it meets the clock: a
      // huge value (hostile, or a bit-flip in the header) must not
      // overflow the time_point arithmetic into UB / a deadline in the
      // past. One day of queue time is "no deadline" in practice.
      constexpr std::uint64_t kMaxDeadlineUs = 86'400'000'000ULL;
      opts.deadline = received_at + std::chrono::microseconds(std::min(
                                        h.deadline_us, kMaxDeadlineUs));
    }
    opts.cancel = c.cancel;
    opts.notify = [this] { wake(); };
    // The wire request id doubles as the trace id: a traced server's
    // spans for this request carry the id the client chose, so a remote
    // call is attributable end to end.
    opts.trace_id = h.request_id;
    c.pending.push_back(
        Pending{h.request_id, verb.type,
                Futures(std::in_place_index<I>,
                        service->submit(verb.to_request(std::move(args),
                                                        std::move(opts)))),
                received_at});
  }

  /// Encode every completed pending request's reply, preserving
  /// completion order across requests (pipelined ids resolve out of
  /// order by design).
  void pump_completions() {
    const bool drain_mode = draining.load(std::memory_order_acquire);
    std::vector<int> dead;
    for (auto& [fd, c] : conns) {
      bool wrote = false;
      for (std::size_t scan = 0; scan < c.pending.size();) {
        if (!c.pending[scan].ready()) {
          ++scan;
          continue;
        }
        Pending p = std::move(c.pending[scan]);
        c.pending.erase(c.pending.begin() +
                        static_cast<std::ptrdiff_t>(scan));
        send_answer(c, p);
        wrote = true;
      }
      if (wrote && !flush(c)) {
        dead.push_back(fd);
        continue;
      }
      // A peer that said goodbye is done once its last reply flushed.
      if (c.goodbye && c.pending.empty() && c.out.empty()) {
        dead.push_back(fd);
        continue;
      }
      // Server drain: once a connection's admitted work is answered and
      // flushed, FIN our write side — "that was the last byte" — and
      // keep reading until the peer's FIN completes the handshake. Only
      // connections we have ANSWERED during the drain are FIN'd: a peer
      // idle since drain began still deserves its ping (state=draining)
      // or refusal first; it gets the FIN right after that answer.
      if (drain_mode && c.answered_in_drain && !c.half_closed &&
          c.pending.empty() && c.out.empty()) {
        c.transport->shutdown_write();
        c.half_closed = true;
      }
    }
    for (int fd : dead) close_conn(fd);
  }

  /// Encodes a resolved Pending's answer and queues its reply. A
  /// RESOURCE_EXHAUSTED answer is the service's queue-full shed — refused
  /// before running — so it carries the retry_after_us hint (encode_reply
  /// attaches it to that code only).
  void send_answer(Conn& c, Pending& p) {
    const std::uint64_t hint = cfg.shed_retry_after_us;
    verbs::with_verb(static_cast<std::uint16_t>(p.type), [&](auto index) {
      const auto& verb = std::get<index>(verbs::kAll);
      const auto answer = std::get<index>(p.future).get();
      if (hint > 0)
        for (int i = count_sheds(answer); i > 0; --i)
          service->record_shed_hint();
      std::string reply = verb.encode_reply(answer, hint);
      // End-to-end wire span: frame receipt -> reply encoded, under the
      // request id the client chose.
      obs::record_span("net.request", "net", p.id, p.received_at,
                       std::chrono::steady_clock::now());
      send_reply(c, verb.type, p.id, std::move(reply));
    });
  }

  /// False when the connection broke mid-write. One gathered sendv per
  /// round flushes up to kMaxFlushIovecs reply frames in one syscall —
  /// the batch of replies a coalesced window resolves together goes out
  /// as one write instead of one per frame.
  bool flush(Conn& c) {
    if (c.out.empty()) return true;
    HG_TRACE_SCOPE("net.flush", "net");
    struct iovec iov[kMaxFlushIovecs];
    while (!c.out.empty()) {
      const int cnt = c.out.gather(iov);
      const ssize_t n = c.transport->sendv(iov, cnt);
      if (n > 0) {
        c.out.consume(static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return true;  // decorator wrote nothing; retry later
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    return true;
  }

  void close_conn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    // Abandon this connection's still-queued work: the service resolves
    // it CANCELLED without running. Futures die with the Conn; the
    // service side holds its own promise references, so late
    // resolutions are harmless. The transport closes the fd.
    it->second.cancel->store(true, std::memory_order_relaxed);
    conns.erase(it);
    nc.connections_closed.inc();
  }

  void shutdown_io() {
    stopping.store(true, std::memory_order_release);
    wake();
    if (loop.joinable()) loop.join();
    for (auto& [fd, c] : conns)
      c.cancel->store(true, std::memory_order_relaxed);
    conns.clear();  // transports close their fds
    // Close the listen socket now (not in ~Impl): a late client must see
    // a refused/reset connection, not sit in a backlog nobody accepts.
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }
};

api::Result<std::shared_ptr<Server>> Server::create(
    const api::EngineConfig& cfg, const ServerConfig& server_cfg) {
  api::Result<std::shared_ptr<api::EvalContext>> ctx =
      api::EvalContext::create(cfg);
  if (!ctx.ok()) return ctx.status();
  return create(cfg, std::move(ctx).value(), server_cfg);
}

api::Result<std::shared_ptr<Server>> Server::create(
    const api::EngineConfig& cfg, std::shared_ptr<api::EvalContext> ctx,
    const ServerConfig& server_cfg) {
  if (server_cfg.max_connections < 1)
    return api::Status::InvalidArgument(
        "ServerConfig::max_connections must be >= 1");
  api::Result<std::shared_ptr<serve::Service>> service =
      serve::Service::create(cfg, std::move(ctx), server_cfg.service);
  if (!service.ok()) return service.status();

  std::shared_ptr<Server> server(new Server());
  server->service_ = std::move(service).value();
  server->impl_ = std::make_unique<Impl>(*server->service_, server_cfg);
  api::Status listening = server->impl_->listen_on(
      server_cfg.host, server_cfg.port, &server->port_);
  if (!listening.ok()) return listening;
  Impl* impl = server->impl_.get();
  impl->loop = std::thread([impl] { impl->run(); });
  return server;
}

Server::~Server() { stop(); }

void Server::stop() {
  if (impl_ == nullptr) return;
  // Serializes concurrent stop() callers (a second caller would join the
  // same I/O thread). Order matters: stop I/O first (no new submissions,
  // queued work of closed connections flagged cancelled), then drain the
  // service — its completion notifies still hit the (open, non-blocking)
  // wake pipe harmlessly. The fds close with impl_.
  core::MutexLock lock(impl_->stop_mutex);
  impl_->shutdown_io();
  if (service_) service_->shutdown();
}

void Server::drain() {
  if (impl_ == nullptr) return;
  // Order matters: the service refuses new admissions first, so a frame
  // racing the flag flip gets a clean refusal from one layer or the
  // other — never queued work that no one will answer.
  service_->drain();
  impl_->draining.store(true, std::memory_order_release);
  impl_->wake();
}

bool Server::draining() const {
  return impl_ != nullptr &&
         impl_->draining.load(std::memory_order_acquire);
}

}  // namespace hg::net
