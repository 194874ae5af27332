// openloop.hpp — the benchmark's open-loop load generator.
//
// Requests are due on a fixed-rate schedule (request i at t0 + i / rate),
// sent when due whether or not earlier ones have been answered, and timed
// from their INTENDED send time. A stall in the system under test therefore
// charges its wait to every request that fell due during it, instead of
// silently lowering the offered load (the coordinated-omission correction
// of wrk2; Gil Tene, "How NOT to measure latency"). How late the generator
// itself ran is recorded as `lag_us`.
//
// Two targets share the schedule:
//   * RemoteLoad speaks the hg::net wire protocol directly over a few
//     non-blocking loopback connections, all driven from ONE thread with
//     ppoll. Request ids come from one counter, so they are unique across
//     connections and double as trace ids: the server's own spans
//     (net.request, serve.*) join the generator's "bench.request" spans in
//     one Chrome trace.
//   * run_inproc submits the same schedule straight to a serve::Service;
//     completions come back through RequestOptions::notify and an eventfd,
//     so the generator observes them with one wake-up, like the server's
//     self-pipe.
// Every reply is checked against the answer a direct Engine call gave for
// the same architecture: a wrong or failed answer counts as failed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/engine.hpp"
#include "api/status.hpp"
#include "net/protocol.hpp"
#include "serve/service.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

/// The probe vocabulary: architectures and the answer each must get.
struct ProbeSet {
  std::vector<hg::api::Arch> archs;
  std::vector<hg::api::LatencyReport> expected;  // direct Engine answers
};

/// One open-loop phase.
struct LoadSpec {
  /// Probe arrivals per second; 0 sends no probes.
  double rate_per_s = 0.0;
  /// Probe send window. With searches, probes keep coming until the last
  /// search has answered; further searches are only started while the
  /// window is open (the first always is).
  double duration_s = 0.0;
  /// kPredictLatency (checked against ProbeSet::expected) or kPing.
  hg::net::FrameType probe = hg::net::FrameType::kPredictLatency;
  /// Searches sent back to back on the first connection: the next one
  /// goes out when the previous report arrives.
  std::vector<hg::api::EngineConfig> searches;
  /// Record one "bench.request" span per probe (obs::record_span, trace
  /// id = wire id) and one "bench.search" span per search.
  bool traced = false;
  /// Stop sending early once more than this many probes are outstanding
  /// (0 = never): an overloaded rung has failed already, and an unbounded
  /// backlog would only grow the server's memory.
  std::int64_t max_backlog = 0;
};

struct LoadResult {
  /// Completed probes, in completion order: latency from the intended send
  /// time, and the intended send time relative to the phase start.
  std::vector<double> latency_us;
  std::vector<double> intended_s;
  /// Send time minus intended send time, per probe sent.
  std::vector<double> lag_us;
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;  // error Status, wrong answer, or never answered
  /// Probes outstanding when the send window closed (backlog).
  std::int64_t backlog_at_end = 0;
  /// Sending stopped early at LoadSpec::max_backlog.
  bool backlog_exceeded = false;
  /// Per search: send and report times relative to the phase start.
  std::vector<double> search_sent_s;
  std::vector<double> search_done_s;
  std::vector<hg::api::Result<hg::api::SearchReport>> search_reports;
  std::string first_error;  // the first failure, for the log
};

class RemoteLoad {
 public:
  /// Open `connections` (1..4) loopback connections to a net::Server.
  static hg::api::Result<RemoteLoad> connect(std::uint16_t port,
                                             int connections);

  RemoteLoad(RemoteLoad&&) noexcept = default;
  RemoteLoad& operator=(RemoteLoad&&) = delete;
  RemoteLoad(const RemoteLoad&) = delete;
  RemoteLoad& operator=(const RemoteLoad&) = delete;
  ~RemoteLoad();

  LoadResult run(const LoadSpec& spec, const ProbeSet& probes);

 private:
  struct Conn {
    int fd = -1;
    std::string out;          // bytes not yet written
    std::string in;           // bytes not yet parsed
    std::size_t in_pos = 0;   // parse cursor into `in`
  };
  RemoteLoad() = default;

  std::vector<Conn> conns_;
  /// Wire ids, unique across connections and phases; high enough never to
  /// meet the small ids a net::Client control connection uses.
  std::uint64_t next_id_ = std::uint64_t{1} << 32;
};

/// The same schedule submitted in-process (PredictLatency probes only; no
/// searches). Used to split the remote latency into net and serve parts.
LoadResult run_inproc(hg::serve::Service& service, const LoadSpec& spec,
                      const ProbeSet& probes);

/// Bit-level equality of two latency answers (no tolerance: the remote and
/// coalesced paths promise identical bits).
bool same_answer(const hg::api::LatencyReport& a,
                 const hg::api::LatencyReport& b);

}  // namespace pb
