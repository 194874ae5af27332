// metrics.hpp — hg::obs, the process observability layer: a named metrics
// registry of lazily-registered counters / gauges / histograms.
//
// Design rules, in priority order:
//   * Lock-free hot path. Recording (Counter::inc, Gauge::set/max_of,
//     Histogram::record_us) is one relaxed atomic op — never a lock, never
//     an allocation. The registry mutex is taken only at REGISTRATION
//     (first lookup of a name) and at snapshot time; instrument handles are
//     resolved once and cached by the instrumented code.
//   * Stable handles. Instruments live in node-based maps, so the
//     reference returned by Registry::counter(...) stays valid for the
//     registry's lifetime — register at startup, bump forever.
//   * One stable snapshot shape. Registry::snapshot() flattens every
//     instrument into a name -> int64 map (histograms expand to
//     `<name>.p50_us` / `.p99_us` / `.count`), which is what the wire's
//     kStats frame carries, what render_snapshot() pretty-prints and what
//     in-process readers look names up in — one view, local and remote.
//
// Naming scheme: `<layer>.<counter>` with lowercase snake_case leaves —
// "serve.requests", "net.frames_received", "engine.searches",
// "serve.queue_wait_us.p99_us". The prefix groups the rendered output.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/annotations.hpp"

namespace hg::obs {

/// Monotone counter. inc() is one relaxed fetch_add — safe from any
/// thread, never blocks, never allocates.
class Counter {
 public:
  void inc(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Point-in-time value. set() overwrites; max_of() is a relaxed CAS-max
/// (high-watermark gauges like the largest coalesced batch).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void max_of(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Lock-free latency histogram: log-linear microsecond buckets bumped with
/// relaxed atomics, so hot paths record timings without taking any lock.
///
/// Buckets are 4 linear sub-buckets per power-of-two octave ("log-linear",
/// the HdrHistogram layout at 2 significant bits): values 0..3 are exact,
/// and from 4 up each octave [2^m, 2^(m+1)) splits into 4 equal ranges of
/// width 2^(m-2). Quantile reads return the bucket's upper bound, so a
/// reported percentile overestimates the true one by < 25% (vs. the < 2x
/// of plain log2 buckets) at 4x the bucket count — still a fixed 156-slot
/// array, no allocation.
class Histogram {
 public:
  void record_us(std::int64_t us) {
    buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Upper bound (us) of the bucket holding quantile `p` in [0, 1];
  /// 0 when nothing has been recorded yet.
  std::int64_t percentile_us(double p) const {
    std::array<std::int64_t, kBuckets> counts;
    std::int64_t total = 0;
    for (std::size_t b = 0; b < kBuckets; ++b)
      total += counts[b] = buckets_[b].load(std::memory_order_relaxed);
    if (total == 0) return 0;
    const double target = p * static_cast<double>(total);
    std::int64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts[b];
      if (static_cast<double>(seen) >= target) return bucket_upper(b);
    }
    return bucket_upper(kBuckets - 1);
  }

  std::int64_t count() const {
    std::int64_t total = 0;
    for (const auto& b : buckets_)
      total += b.load(std::memory_order_relaxed);
    return total;
  }

  /// Exposed for the property tests: the bucket a value lands in and that
  /// bucket's inclusive upper bound.
  static std::size_t bucket_index(std::int64_t us) {
    if (us <= 0) return 0;
    const auto v = static_cast<std::uint64_t>(us);
    if (v < 4) return static_cast<std::size_t>(v);
    // Octave m = floor(log2 v) >= 2; sub-bucket = the next 2 bits below
    // the leading one.
    int msb = 0;
    for (std::uint64_t x = v; x > 1; x >>= 1) ++msb;
    const int shift = msb - 2;
    const auto within =
        static_cast<std::size_t>((v >> shift) & 3);
    const std::size_t idx =
        4 + static_cast<std::size_t>(msb - 2) * 4 + within;
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  static std::int64_t bucket_upper(std::size_t b) {
    if (b < 4) return static_cast<std::int64_t>(b);
    const int m = 2 + static_cast<int>((b - 4) / 4);
    const auto within = static_cast<std::int64_t>((b - 4) % 4);
    const std::int64_t lower =
        (std::int64_t{1} << m) + (within << (m - 2));
    return lower + (std::int64_t{1} << (m - 2)) - 1;
  }

 private:
  // 4 exact slots (0..3) + 4 sub-buckets for each octave m = 2..39:
  // covers everything up to ~2^40 us (~13 days) before clamping.
  static constexpr std::size_t kBuckets = 4 + 38 * 4;
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
};

/// The flattened name -> value view of a registry (or of a remote peer's,
/// via the wire's kStats frame). Ordered so renderings and wire encodings
/// are deterministic.
using Snapshot = std::map<std::string, std::int64_t>;

/// A named instrument table. Instruments are registered lazily on first
/// lookup and live as long as the registry; lookups of an existing name
/// return the same instrument, so `&registry.counter("x")` taken once is
/// valid forever (node-based map storage — no reallocation).
///
/// Each serve::Service owns one Registry (two services in one process must
/// not merge their queues' counters); process-global instruments (the
/// Engine verbs) use Registry::global().
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (Engine verb counters, anything without a
  /// narrower owner).
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Flatten every instrument: counters and gauges by name, histograms as
  /// `<name>.p50_us` / `<name>.p99_us` / `<name>.count`.
  Snapshot snapshot() const;

 private:
  mutable core::Mutex mutex_;  // registration + snapshot only, never record
  std::map<std::string, Counter, std::less<>> counters_
      HG_GUARDED_BY(mutex_);
  std::map<std::string, Gauge, std::less<>> gauges_ HG_GUARDED_BY(mutex_);
  std::map<std::string, Histogram, std::less<>> histograms_
      HG_GUARDED_BY(mutex_);
};

/// Render a snapshot as an aligned, prefix-grouped text block (the shared
/// stats printout of serve_demo / net_server_demo / net_client_demo
/// --stats). A blank line separates name prefixes ("engine.", "net.",
/// "serve.").
std::string render_snapshot(const Snapshot& snap);

}  // namespace hg::obs
