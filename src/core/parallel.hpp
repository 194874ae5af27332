// parallel.hpp — the parallel execution backbone: a lazily-initialised
// global thread pool plus deterministic chunked loops.
//
// Design rules (every kernel in tensor/, gnn/, graph/ and the concurrent
// candidate evaluation in hgnas/ builds on them):
//
//  * Determinism is partition-invariance, not scheduling. `parallel_for`
//    splits [begin, end) into chunks computed only from (range, grain,
//    thread count); which worker executes which chunk is irrelevant because
//    every kernel keeps the per-output-element arithmetic order identical
//    to the serial loop. So each kernel's output is bit-for-bit the same
//    however its range is partitioned, at any width including 1. Callers
//    build on the same rule — the width may size a split, never choose the
//    arithmetic — so every end-to-end result (a search, a training run, a
//    labelled set) is also the same at every width.
//  * `set_num_threads(1)` short-circuits every parallel_for into a plain
//    inline call of the serial body: the same arithmetic with zero
//    synchronisation overhead.
//  * Nested parallel_for calls run inline on the calling worker (no
//    deadlock, no oversubscription): the outer level owns the pool.
//  * Exceptions thrown inside a chunk are captured and rethrown on the
//    calling thread after the loop completes.
//
// Configure through hg::api::EngineConfig::num_threads (0 = hardware
// concurrency) or directly via set_num_threads().
#pragma once

#include <cstdint>
#include <functional>

namespace hg::core {

/// Number of hardware threads (>= 1 even when the runtime reports 0).
std::int64_t hardware_threads();

/// Current pool width (>= 1). Before any set_num_threads() call this is
/// hardware_threads().
std::int64_t num_threads();

/// Resize the pool. n == 0 selects hardware concurrency; n == 1 disables
/// the workers (every loop runs inline on the caller). Must not be called
/// from inside a parallel region. Idempotent when the width is unchanged.
void set_num_threads(std::int64_t n);

/// RAII thread-count override (tests, benches).
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(std::int64_t n)
      : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ScopedNumThreads() { set_num_threads(prev_); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  std::int64_t prev_;
};

/// True while the current thread is executing a parallel_for chunk (used to
/// run nested loops inline).
bool in_parallel_region();

/// Chunked parallel loop over [begin, end). `fn(chunk_begin, chunk_end)` is
/// invoked for contiguous, non-overlapping, covering chunks of at least
/// `grain` iterations (except possibly the last). Runs inline serially when
/// the range is below `grain`, the pool width is 1, or called from inside
/// another parallel region.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

/// `n` independent coarse tasks: fn(i) for i in [0, n). Tasks are claimed
/// dynamically (they may have very different costs — e.g. NAS candidate
/// evaluations); callers must not depend on execution order.
void parallel_invoke(std::int64_t n,
                     const std::function<void(std::int64_t)>& fn);

}  // namespace hg::core
