// layers.hpp — direct, benchmark-side timings of each module's public
// calls: the independently timed rows of the traced run's layer table.
// Nothing here reaches inside src/; every number is a steady_clock timer
// around a public function.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "api/engine.hpp"
#include "obs/trace.hpp"
#include "openloop.hpp"

namespace pb {

/// Median per-call time (us) of `fn`: `rounds` timed loops of `calls`
/// calls each, one warm-up loop first.
double us_per_call(const std::function<void()>& fn, int calls, int rounds);

/// net/protocol.hpp cost of one PredictLatency exchange, split by side:
/// request = encode_predict_request + encode_frame + decode_header +
/// decode_predict_request; reply = encode_reply + encode_frame +
/// decode_header + decode_reply.
double codec_request_us(const ProbeSet& probes);
double codec_reply_us(const ProbeSet& probes);

/// One traced phase split into consecutive layers, per request, from the
/// spans that share its wire id: the generator's "bench.request" and the
/// server's "net.request", "serve.queue_wait" and "serve.pure" /
/// "serve.predict_batch". The rows tile each request's interval, so the
/// sum of their medians lands near the median of the whole.
struct TraceBreakdown {
  std::vector<std::pair<std::string, double>> rows_p50_us;
  double total_p50_us = 0.0;  // median "bench.request" duration
  std::int64_t requests = 0;  // requests with every span present
  std::int64_t skipped = 0;   // requests missing a span (e.g. the packed
                              // forward carried a batchmate's id)
};
TraceBreakdown break_down_trace(const std::vector<hg::obs::TraceEvent>& events);

/// Per-phase step times of one search driven through
/// Engine::begin_search() — the scheduling unit serve::Service preempts.
struct StepProfile {
  std::map<std::string, double> mean_ms;       // by phase name
  std::map<std::string, std::int64_t> steps;   // by phase name
  double max_ms = 0.0;
  hg::api::Result<hg::api::SearchReport> report =
      hg::api::Status::Internal("search not run");
};
StepProfile profile_search_steps(hg::api::Engine& engine);

/// The multistage phases StepProfile reports, in run order.
inline constexpr std::array<const char*, 4> kStepPhases{"warmup", "stage1",
                                                        "pretrain", "stage2"};

}  // namespace pb
