#include "openloop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <fcntl.h>
#include <future>
#include <memory>
#include <mutex>

#include "obs/trace.hpp"

namespace pb {

namespace {

using hg::net::FrameType;

double to_s(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// How long outstanding requests may take after sending stops before they
/// count as failed.
constexpr std::chrono::seconds kDrainTimeout{30};

/// The fixed-rate schedule: request i is due at t0 + i / rate.
struct Schedule {
  Clock::time_point t0;
  double rate;
  Clock::time_point due(std::int64_t i) const {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  }
};

/// Wait until `fds` are ready or `wake` passes (nanosecond resolution:
/// poll(2)'s millisecond timeout is coarser than the schedule).
void wait_until(std::vector<pollfd>& fds, Clock::time_point wake) {
  const Clock::duration left = wake - Clock::now();
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(left).count());
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

/// Wake-ups to the nanosecond on this thread while in scope: the default
/// 50 us timer slack would make every ppoll return that late, and show as
/// generator lag. Set per phase, not per process, so the server's threads
/// keep the default slack.
class PreciseTimers {
 public:
  PreciseTimers() : saved_(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~PreciseTimers() {
    if (saved_ > 0)
      ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved_), 0, 0, 0);
  }
  PreciseTimers(const PreciseTimers&) = delete;
  PreciseTimers& operator=(const PreciseTimers&) = delete;

 private:
  int saved_;
};

struct ProbeSlot {
  Clock::time_point due;
  std::uint32_t arch = 0;
  bool answered = false;
};

/// Count `n` failures, remembering the first reason.
void fail(LoadResult* res, const std::string& why, std::int64_t n = 1) {
  res->failed += n;
  if (res->first_error.empty()) res->first_error = why;
}

/// Check one probe answer and book it.
void book_probe(LoadResult* res, const ProbeSlot& slot, Clock::time_point t0,
                Clock::time_point answered_at,
                const hg::api::Result<hg::api::LatencyReport>& answer,
                const ProbeSet& probes) {
  if (!answer.ok()) {
    fail(res, "probe failed: " + answer.status().to_string());
    return;
  }
  if (!same_answer(answer.value(), probes.expected[slot.arch])) {
    fail(res, "probe answer differs from the direct Engine answer");
    return;
  }
  ++res->ok;
  res->latency_us.push_back(to_us(answered_at - slot.due));
  res->intended_s.push_back(to_s(slot.due - t0));
}

}  // namespace

bool same_answer(const hg::api::LatencyReport& a,
                 const hg::api::LatencyReport& b) {
  return std::bit_cast<std::uint64_t>(a.latency_ms) ==
             std::bit_cast<std::uint64_t>(b.latency_ms) &&
         std::bit_cast<std::uint64_t>(a.peak_memory_mb) ==
             std::bit_cast<std::uint64_t>(b.peak_memory_mb) &&
         a.oom == b.oom;
}

hg::api::Result<RemoteLoad> RemoteLoad::connect(std::uint16_t port,
                                                int connections) {
  using hg::api::Status;
  if (connections < 1 || connections > 4)
    return Status::InvalidArgument("generator connections must be 1..4");
  RemoteLoad load;
  for (int c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::Unavailable("socket: " + hg::net::errno_string(errno));
    load.conns_.push_back(Conn{fd, {}, {}, 0});
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int rc = 0;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0)
      return Status::Unavailable("connect: " + hg::net::errno_string(errno));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return load;
}

RemoteLoad::~RemoteLoad() {
  for (const Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

LoadResult RemoteLoad::run(const LoadSpec& spec, const ProbeSet& probes) {
  using namespace hg;
  const PreciseTimers precise;
  LoadResult res;
  const bool predict = spec.probe == FrameType::kPredictLatency;
  std::vector<std::string> payloads;
  if (predict) {
    for (const api::Arch& arch : probes.archs) {
      net::Writer w;
      net::encode_predict_request(arch, &w);
      payloads.push_back(w.take());
    }
  }
  const bool has_probes =
      spec.rate_per_s > 0.0 && (!predict || !payloads.empty());
  const bool has_searches = !spec.searches.empty();
  const auto n_window = static_cast<std::int64_t>(
      spec.rate_per_s * spec.duration_s);
  const Schedule sched{Clock::now() + std::chrono::milliseconds(1),
                       has_probes ? spec.rate_per_s : 1.0};
  const Clock::duration window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(spec.duration_s));

  // Probes take the even ids above `base`, searches the odd ones.
  const std::uint64_t base = next_id_;
  std::vector<ProbeSlot> slots;
  slots.reserve(static_cast<std::size_t>(std::max<std::int64_t>(n_window, 0)) + 16);
  std::int64_t outstanding = 0;
  std::size_t searches_sent = 0;
  bool search_in_flight = false;
  bool searches_finished = !has_searches;
  bool sending = true;
  bool broken = false;
  Clock::time_point send_end{};

  auto send_search = [&](Clock::time_point now) {
    net::Writer w;
    net::encode_search_request(spec.searches[searches_sent], &w);
    const std::uint64_t id = base + 2 * searches_sent + 1;
    conns_[0].out += net::encode_frame(FrameType::kSearch, false, id, 0, w.take());
    res.search_sent_s.push_back(to_s(now - sched.t0));
    ++searches_sent;
    search_in_flight = true;
  };

  auto on_frame = [&](const net::FrameHeader& h, const char* payload,
                      Clock::time_point at) {
    const std::uint64_t rel = h.request_id - base;
    if (h.request_id < base || (rel & 1) != 0) {
      // A search report.
      const std::size_t j = rel / 2;
      if (h.request_id < base || j + 1 != searches_sent || !search_in_flight ||
          h.type != (static_cast<std::uint16_t>(FrameType::kSearch) | net::kReplyBit)) {
        broken = true;
        fail(&res, "unexpected reply id or type");
        return;
      }
      net::Reader r(payload, h.payload_len);
      api::Result<api::SearchReport> report =
          api::Status::Internal("undecodable search reply");
      if (!net::decode_reply(&r, net::decode_search_report, &report))
        report = api::Status::Internal("undecodable search reply");
      res.search_done_s.push_back(to_s(at - sched.t0));
      if (spec.traced)
        obs::record_span("bench.search", "bench", h.request_id,
                         sched.t0 + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            res.search_sent_s.back())),
                         at);
      res.search_reports.push_back(std::move(report));
      search_in_flight = false;
      if (searches_sent < spec.searches.size() && at - sched.t0 < window)
        send_search(at);
      else
        searches_finished = true;
      return;
    }
    const std::size_t i = rel / 2;
    if (i >= slots.size() || slots[i].answered ||
        h.type != (static_cast<std::uint16_t>(spec.probe) | net::kReplyBit)) {
      broken = true;
      fail(&res, "unexpected reply id or type");
      return;
    }
    ProbeSlot& slot = slots[i];
    slot.answered = true;
    --outstanding;
    if (spec.traced)
      obs::record_span("bench.request", "bench", h.request_id, slot.due, at);
    net::Reader r(payload, h.payload_len);
    if (predict) {
      api::Result<api::LatencyReport> answer =
          api::Status::Internal("undecodable predict reply");
      if (!net::decode_reply(&r, net::decode_latency_report, &answer))
        answer = api::Status::Internal("undecodable predict reply");
      book_probe(&res, slot, sched.t0, at, answer, probes);
      return;
    }
    api::Result<net::HealthReport> health =
        api::Status::Internal("undecodable ping reply");
    if (!net::decode_reply(&r, net::decode_health_report, &health) ||
        !health.ok()) {
      fail(&res, "ping failed");
      return;
    }
    ++res.ok;
    res.latency_us.push_back(to_us(at - slot.due));
    res.intended_s.push_back(to_s(slot.due - sched.t0));
  };

  std::vector<pollfd> fds(conns_.size());
  char buf[1 << 16];
  if (has_searches) send_search(Clock::now());
  std::int64_t next = 0;
  while (!broken) {
    Clock::time_point now = Clock::now();
    if (sending) {
      while (has_probes && (has_searches ? !searches_finished : next < n_window) &&
             sched.due(next) <= now) {
        Conn& c = conns_[static_cast<std::size_t>(next) % conns_.size()];
        const std::uint64_t id = base + 2 * static_cast<std::uint64_t>(next);
        const auto arch = static_cast<std::uint32_t>(
            predict ? static_cast<std::size_t>(next) % payloads.size() : 0);
        c.out += net::encode_frame(spec.probe, false, id, 0,
                                   predict ? payloads[arch] : std::string());
        slots.push_back(ProbeSlot{sched.due(next), arch, false});
        res.lag_us.push_back(to_us(now - sched.due(next)));
        ++outstanding;
        ++next;
      }
      if (spec.max_backlog > 0 && outstanding > spec.max_backlog)
        res.backlog_exceeded = true;
      const bool more = !res.backlog_exceeded &&
                        (has_searches ? !searches_finished
                                      : (has_probes && next < n_window));
      if (!more) {
        sending = false;
        send_end = now;
        res.backlog_at_end = outstanding;
      }
    }
    for (Conn& c : conns_) {
      while (!c.out.empty()) {
        const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
          c.out.erase(0, static_cast<std::size_t>(n));
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            broken = true;
            fail(&res, "send: " + net::errno_string(errno));
          }
          break;
        }
      }
    }
    if (broken) break;
    if (!sending && outstanding == 0 && !search_in_flight) break;
    if (!sending && now - send_end > kDrainTimeout) {
      fail(&res, "replies still outstanding after the drain timeout",
           outstanding + (search_in_flight ? 1 : 0));
      break;
    }
    Clock::time_point wake = now + std::chrono::milliseconds(50);
    if (sending && has_probes) wake = std::min(wake, sched.due(next));
    for (std::size_t k = 0; k < conns_.size(); ++k)
      fds[k] = pollfd{conns_[k].fd,
                      static_cast<short>(POLLIN | (conns_[k].out.empty() ? 0 : POLLOUT)),
                      0};
    wait_until(fds, wake);
    for (std::size_t k = 0; k < conns_.size() && !broken; ++k) {
      if ((fds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns_[k];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          broken = true;
          fail(&res, "connection lost");
        }
        break;
      }
      const Clock::time_point at = Clock::now();
      while (!broken && c.in.size() - c.in_pos >= net::kHeaderSize) {
        net::FrameHeader h;
        if (!net::decode_header(c.in.data() + c.in_pos, c.in.size() - c.in_pos, &h)) {
          broken = true;
          fail(&res, "unframeable reply");
          break;
        }
        if (c.in.size() - c.in_pos < net::kHeaderSize + h.payload_len) break;
        on_frame(h, c.in.data() + c.in_pos + net::kHeaderSize, at);
        c.in_pos += net::kHeaderSize + h.payload_len;
      }
      if (c.in_pos == c.in.size() || c.in_pos > (1u << 20)) {
        c.in.erase(0, c.in_pos);
        c.in_pos = 0;
      }
    }
  }
  if (broken) fail(&res, "connection broken", outstanding);
  res.sent = next;
  next_id_ = base + 2 * (std::max<std::uint64_t>(static_cast<std::uint64_t>(next),
                                                 searches_sent) + 1);
  return res;
}

LoadResult run_inproc(hg::serve::Service& service, const LoadSpec& spec,
                      const ProbeSet& probes) {
  using namespace hg;
  // The eventfd lives as long as the last notify hook that may write it.
  struct Completions {
    int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    std::mutex mu;
    std::vector<std::uint32_t> done;
    ~Completions() {
      if (efd >= 0) ::close(efd);
    }
  };
  auto comp = std::make_shared<Completions>();
  const PreciseTimers precise;
  LoadResult res;
  if (comp->efd < 0 || spec.rate_per_s <= 0.0 || probes.archs.empty()) {
    fail(&res, "in-process load needs an eventfd, a rate and probes");
    return res;
  }
  const auto n = static_cast<std::int64_t>(spec.rate_per_s * spec.duration_s);
  const Schedule sched{Clock::now() + std::chrono::milliseconds(1),
                       spec.rate_per_s};
  std::vector<ProbeSlot> slots;
  std::vector<std::future<api::Result<api::LatencyReport>>> futures;
  slots.reserve(static_cast<std::size_t>(n));
  futures.reserve(static_cast<std::size_t>(n));
  std::vector<pollfd> fds(1);
  std::vector<std::uint32_t> ready;
  std::int64_t next = 0;
  std::int64_t outstanding = 0;
  Clock::time_point send_end{};
  for (;;) {
    const Clock::time_point now = Clock::now();
    while (next < n && sched.due(next) <= now) {
      const auto arch =
          static_cast<std::uint32_t>(static_cast<std::size_t>(next) % probes.archs.size());
      serve::PredictLatencyRequest req{probes.archs[arch], {}};
      const auto index = static_cast<std::uint32_t>(next);
      req.opts.notify = [comp, index] {
        {
          std::lock_guard<std::mutex> lock(comp->mu);
          comp->done.push_back(index);
        }
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t w = ::write(comp->efd, &one, sizeof(one));
      };
      slots.push_back(ProbeSlot{sched.due(next), arch, false});
      res.lag_us.push_back(to_us(now - sched.due(next)));
      futures.push_back(service.submit(std::move(req)));
      ++outstanding;
      if (++next == n) {
        send_end = now;
        res.backlog_at_end = outstanding;
      }
    }
    if (next == n && outstanding == 0) break;
    if (next == n && now - send_end > kDrainTimeout) {
      fail(&res, "in-process replies outstanding after the drain timeout",
           outstanding);
      break;
    }
    fds[0] = pollfd{comp->efd, POLLIN, 0};
    wait_until(fds, next < n ? sched.due(next)
                             : now + std::chrono::milliseconds(50));
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t r = ::read(comp->efd, &count, sizeof(count));
    {
      std::lock_guard<std::mutex> lock(comp->mu);
      ready.swap(comp->done);
    }
    const Clock::time_point at = Clock::now();
    for (const std::uint32_t i : ready) {
      slots[i].answered = true;
      --outstanding;
      book_probe(&res, slots[i], sched.t0, at, futures[i].get(), probes);
    }
    ready.clear();
  }
  res.sent = next;
  return res;
}

}  // namespace pb
