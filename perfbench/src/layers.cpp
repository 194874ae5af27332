#include "layers.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "stats.hpp"

namespace pb {

namespace {

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

const char* phase_name(hg::hgnas::SearchProgress::Phase phase) {
  using Phase = hg::hgnas::SearchProgress::Phase;
  switch (phase) {
    case Phase::kWarmup: return "warmup";
    case Phase::kStage1: return "stage1";
    case Phase::kPretrain: return "pretrain";
    case Phase::kStage2: return "stage2";
    case Phase::kSampling: return "sampling";
    case Phase::kIdle:
    case Phase::kDone: break;
  }
  return "finish";
}

}  // namespace

double us_per_call(const std::function<void()>& fn, int calls, int rounds) {
  for (int i = 0; i < calls; ++i) fn();
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(elapsed_us(t) / calls);
  }
  return median(per_call);
}

double codec_request_us(const ProbeSet& probes) {
  using namespace hg::net;
  std::size_t i = 0;
  std::size_t sink = 0;
  const double us = us_per_call(
      [&] {
        const hg::api::Arch& arch = probes.archs[i++ % probes.archs.size()];
        Writer w;
        encode_predict_request(arch, &w);
        const std::string frame = encode_frame(FrameType::kPredictLatency,
                                               false, i, 0, w.bytes());
        FrameHeader h;
        hg::api::Arch decoded;
        Reader r(frame.data() + kHeaderSize, frame.size() - kHeaderSize);
        if (decode_header(frame.data(), frame.size(), &h) &&
            decode_predict_request(&r, &decoded))
          sink += decoded.genes.size();
      },
      256, 41);
  return sink == 0 ? 0.0 : us;
}

double codec_reply_us(const ProbeSet& probes) {
  using namespace hg::net;
  std::size_t i = 0;
  std::size_t sink = 0;
  const double us = us_per_call(
      [&] {
        const hg::api::Result<hg::api::LatencyReport> answer =
            probes.expected[i++ % probes.expected.size()];
        const std::string frame =
            encode_frame(FrameType::kPredictLatency, true, i, 0,
                         encode_reply(answer, encode_latency_report));
        FrameHeader h;
        hg::api::Result<hg::api::LatencyReport> decoded =
            hg::api::Status::Internal("");
        Reader r(frame.data() + kHeaderSize, frame.size() - kHeaderSize);
        if (decode_header(frame.data(), frame.size(), &h) &&
            decode_reply(&r, decode_latency_report, &decoded) && decoded.ok())
          ++sink;
      },
      256, 41);
  return sink == 0 ? 0.0 : us;
}

TraceBreakdown break_down_trace(const std::vector<hg::obs::TraceEvent>& events) {
  struct Span {
    std::int64_t start = -1;
    std::int64_t end = -1;
  };
  struct Request {
    Span bench, net, wait, exec;
  };
  std::unordered_map<std::uint64_t, Request> by_id;
  for (const hg::obs::TraceEvent& ev : events) {
    Request& r = by_id[ev.trace_id];
    Span* span = ev.name == "bench.request"      ? &r.bench
                 : ev.name == "net.request"      ? &r.net
                 : ev.name == "serve.queue_wait" ? &r.wait
                 : ev.name == "serve.pure" || ev.name == "serve.predict_batch"
                     ? &r.exec
                     : nullptr;
    if (span != nullptr) *span = Span{ev.ts_us, ev.ts_us + ev.dur_us};
  }
  static const char* const kRows[] = {
      "net.recv_us.p50",          // due -> server receipt (send, loopback, I/O wake)
      "net.decode_submit_us.p50", // receipt -> enqueued (decode, admission)
      "serve.wait_us.p50",        // enqueued -> dispatched (incl. worker wake)
      "serve.exec_us.p50",        // evaluator work
      "net.reply_us.p50",         // done -> reply encoded (promise, self-pipe, encode)
      "net.send_us.p50",          // encoded -> generator has it (flush, loopback, wake)
  };
  std::vector<std::vector<double>> rows(std::size(kRows));
  std::vector<double> totals;
  TraceBreakdown out;
  for (const auto& [id, r] : by_id) {
    if (r.bench.start < 0) continue;  // not a probe
    if (r.net.start < 0 || r.wait.start < 0 || r.exec.start < 0) {
      ++out.skipped;
      continue;
    }
    const std::int64_t edges[] = {r.bench.start, r.net.start, r.wait.start,
                                  r.wait.end,    r.exec.end,  r.net.end,
                                  r.bench.end};
    for (std::size_t k = 0; k < rows.size(); ++k)
      rows[k].push_back(static_cast<double>(edges[k + 1] - edges[k]));
    totals.push_back(static_cast<double>(r.bench.end - r.bench.start));
    ++out.requests;
  }
  for (std::size_t k = 0; k < rows.size(); ++k)
    out.rows_p50_us.emplace_back(kRows[k], median(rows[k]));
  out.total_p50_us = median(totals);
  return out;
}

StepProfile profile_search_steps(hg::api::Engine& engine) {
  StepProfile prof;
  hg::api::Result<std::unique_ptr<hg::api::SearchRun>> run =
      engine.begin_search();
  if (!run.ok()) {
    prof.report = run.status();
    return prof;
  }
  std::map<std::string, double> total_ms;
  bool more = true;
  while (more) {
    const Clock::time_point t = Clock::now();
    more = run.value()->step();
    const double ms = elapsed_us(t) / 1e3;
    const std::string phase = phase_name(run.value()->progress().phase);
    total_ms[phase] += ms;
    ++prof.steps[phase];
    prof.max_ms = std::max(prof.max_ms, ms);
  }
  for (const auto& [phase, ms] : total_ms)
    prof.mean_ms[phase] = ms / static_cast<double>(prof.steps[phase]);
  prof.report = run.value()->take_report();
  return prof;
}

}  // namespace pb
