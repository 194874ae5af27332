// trace.hpp — hg::obs request-scoped tracing: spans from socket to step,
// exported as Chrome trace_event JSON (load the file in chrome://tracing
// or https://ui.perfetto.dev).
//
// Model:
//   * A SPAN is one timed interval on one thread — "net.request",
//     "serve.queue_wait", "serve.run", "search.stage2", "train.epoch" —
//     recorded as a Chrome "complete" event (ph "X") with its wall-clock
//     start and duration.
//   * Every span carries a TRACE ID linking it to the request it serves.
//     The net layer uses the frame header's request id verbatim, so a
//     remote predict's server-side spans are attributable to the
//     originating client call; locally-submitted requests draw ids from a
//     process counter with the top bit set (so the two pools never
//     collide). The id rides a thread-local (ScopedTraceId), so spans
//     emitted deep inside a stepper inherit the request's id without any
//     plumbing through the call stack.
//   * The collector is a fixed-capacity ring: steady-state tracing keeps
//     the newest events and write_json() says how many were dropped.
//
// Overhead when disabled (the default): every HG_TRACE_* site is one
// relaxed atomic load and a branch — no clock read, no allocation, no
// lock. CI's --require-speedup perf gates run exactly this configuration.
// Compiling with -DHG_NO_TRACING removes the sites entirely (macros
// expand to nothing). When enabled, recording takes a short mutex hold on
// the ring — tracing is a diagnosis mode, not a production default.
//
// Usage:
//   obs::TraceCollector::global().start();            // enable
//   { HG_TRACE_SCOPE("serve.run", "serve"); ... }   // span the scope
//   obs::TraceCollector::global().write_json(path);   // export
//   obs::TraceCollector::global().stop();
//
// serve::Service wires this to ServiceConfig::trace_path: non-empty means
// start() at create and write_json(path) + stop() at shutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/annotations.hpp"

namespace hg::obs {

/// One completed span (Chrome "X" event).
struct TraceEvent {
  std::string name;           // e.g. "serve.run"
  const char* cat = "";       // layer: "net" / "serve" / "search" / "train"
  std::uint64_t trace_id = 0; // request attribution (0 = unattributed)
  std::int64_t ts_us = 0;     // start, us since the process trace epoch
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;      // small per-thread ordinal
};

class TraceCollector {
 public:
  static TraceCollector& global();

  /// Enable collection into a ring of `capacity` events (idempotent; a
  /// second start() keeps the existing ring). Oldest events are
  /// overwritten once full.
  void start(std::size_t capacity = 1 << 16);
  /// Disable and discard everything collected.
  void stop();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record one completed span; dropped silently when disabled.
  void record(TraceEvent ev);

  /// The collected events, oldest first (for tests and custom exporters).
  std::vector<TraceEvent> events() const;

  /// Write Chrome trace_event JSON ({"traceEvents": [...]}) to `path`.
  /// False on I/O failure. The file also carries how many events the ring
  /// dropped (metadata event "trace.dropped") when it wrapped.
  bool write_json(const std::string& path) const;

 private:
  TraceCollector() = default;

  mutable core::Mutex mutex_;
  std::vector<TraceEvent> ring_ HG_GUARDED_BY(mutex_);
  std::size_t ring_capacity_ HG_GUARDED_BY(mutex_) = 0;
  std::size_t next_ HG_GUARDED_BY(mutex_) = 0;      // ring write cursor
  std::size_t dropped_ HG_GUARDED_BY(mutex_) = 0;   // overwritten events
  bool wrapped_ HG_GUARDED_BY(mutex_) = false;
  std::atomic<bool> enabled_{false};
};

/// True when the global collector is collecting — the one check every
/// trace site performs before paying for a clock read.
inline bool tracing_enabled() { return TraceCollector::global().enabled(); }

/// Microseconds since the process trace epoch (steady clock; all spans
/// share it so the exported timeline lines up).
std::int64_t trace_now_us();
std::int64_t trace_ts_us(std::chrono::steady_clock::time_point tp);

/// The calling thread's current request attribution (0 = none) and a
/// fresh process-local id (top bit set — never collides with a wire
/// request id).
std::uint64_t current_trace_id();
std::uint64_t next_local_trace_id();

/// Attributes every span the calling thread emits in this scope to one
/// request. Nests: the previous id is restored on destruction.
class ScopedTraceId {
 public:
  explicit ScopedTraceId(std::uint64_t id);
  ~ScopedTraceId();
  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span: records [construction, destruction) under the thread's
/// current trace id — when the collector is enabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : armed_(tracing_enabled()), name_(name), cat_(cat),
        start_us_(armed_ ? trace_now_us() : 0) {}
  /// Span with an explicit name (e.g. the stepper's current phase).
  ScopedSpan(std::string name, const char* cat)
      : armed_(tracing_enabled()), dynamic_name_(std::move(name)),
        cat_(cat), start_us_(armed_ ? trace_now_us() : 0) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool armed_;
  const char* name_ = nullptr;
  std::string dynamic_name_;
  const char* cat_;
  std::int64_t start_us_;
};

/// Record a span whose endpoints were measured elsewhere (queue waits:
/// enqueue time -> dispatch time). No-op when disabled.
void record_span(const char* name, const char* cat, std::uint64_t trace_id,
                 std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end);

}  // namespace hg::obs

// Trace sites compile to nothing under HG_NO_TRACING; otherwise each is a
// relaxed load + branch when tracing is off.
#if defined(HG_NO_TRACING)
#define HG_TRACE_SCOPE(name, cat)
#define HG_TRACE_ID(id)
#else
#define HG_TRACE_CONCAT2(a, b) a##b
#define HG_TRACE_CONCAT(a, b) HG_TRACE_CONCAT2(a, b)
#define HG_TRACE_SCOPE(name, cat) \
  ::hg::obs::ScopedSpan HG_TRACE_CONCAT(hg_trace_span_, __LINE__)(name, cat)
#define HG_TRACE_ID(id) \
  ::hg::obs::ScopedTraceId HG_TRACE_CONCAT(hg_trace_id_, __LINE__)(id)
#endif
