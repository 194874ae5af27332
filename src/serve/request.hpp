// request.hpp — the typed request vocabulary of the hg::serve layer.
//
// A serve::Service answers six kinds of long-lived-loop requests, one
// struct each. Submitting a request returns a std::future carrying the
// same Result<T> the matching Engine verb would return, so a caller
// migrating from direct engine calls keeps its error handling unchanged.
//
// Scheduling class (decided by the service, not the caller):
//  * PURE requests — PredictLatency, PredictBatch, Profile,
//    ProfileBaseline — touch only
//    immutable or internally-synchronized context state and run
//    concurrently across the worker pool, in any order.
//  * EXCLUSIVE requests — Search, TrainBaseline, and predictions when the
//    service's evaluator is "measured" (its noise stream is shared
//    state) — consume the context RNG or mutate the supernet, so the
//    service runs them one at a time, in submission order. That FIFO
//    ordering is what makes a concurrent run's results bit-identical to a
//    serial one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/engine.hpp"

namespace hg::serve {

/// Per-request scheduling options, honored by the service for every
/// request type. All fields are optional; default-constructed options
/// set no deadline, no cancel flag and no hook.
struct RequestOptions {
  /// Absolute point after which the request must not *start*: a request
  /// still queued when its deadline passes resolves to DEADLINE_EXCEEDED
  /// without running (and without consuming any context RNG). A search or
  /// train_baseline already running also checks the deadline between its
  /// steps (a search's mini-batch or validation-sample round, a baseline's
  /// epoch) and resolves DEADLINE_EXCEEDED mid-run, within one step; the
  /// partially-advanced run is discarded (the shared-context RNG it
  /// consumed stays consumed). Other work, once started, runs to the end.
  /// max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Cooperative cancellation: set the flag (any thread) and a request not
  /// yet started resolves to CANCELLED instead of running. The flag is
  /// also checked between the steps of a running search or
  /// train_baseline, so a mid-run cancel resolves within one step.
  /// net::Server uses one flag per connection so a client disconnect
  /// abandons that connection's queued and in-flight work.
  std::shared_ptr<std::atomic<bool>> cancel;

  /// Invoked exactly once, after the request's promise has been resolved
  /// (with a result, an admission error, expiry, or cancellation). Lets a
  /// poll-based caller (net::Server's self-pipe) learn about completion
  /// without blocking on the future. Must be cheap and must not call back
  /// into the service.
  std::function<void()> notify;

  /// Trace attribution for this request's spans (obs::TraceCollector):
  /// net::Server sets it to the wire frame's request id so a remote call's
  /// server-side spans carry the id the client chose. 0 (the default) =
  /// let the service assign a process-local id when tracing is enabled.
  std::uint64_t trace_id = 0;
};

/// Run a full NAS search on the service's context. `cfg` overrides the
/// service's engine config for this one request (strategy, objective,
/// constraints, search scale); its context-shaping fields must match the
/// service's (api::context_compatible) or the future resolves to
/// INVALID_ARGUMENT. Unset: the service's config as-is.
struct SearchRequest {
  std::optional<api::EngineConfig> cfg;
  RequestOptions opts{};
};

/// One latency query through the service's configured evaluator: one
/// queue entry of one arch. With evaluator "predictor" it is coalesced
/// with the other queued predictions (lone and batch entries alike) into
/// one packed GCN forward (Engine::predict_batch) — the answer is
/// bit-identical to an uncoalesced query, only cheaper.
/// ServiceConfig::predict_window_us adds a time window so trickle traffic
/// coalesces too.
struct PredictLatencyRequest {
  api::Arch arch;
  RequestOptions opts{};
};

/// N latency queries submitted as ONE queue entry of N archs, never split:
/// with evaluator "predictor" it is coalesced with the other queued
/// predictions into one packed forward (Engine::predict_batch), like a
/// lone PredictLatencyRequest. The future resolves with one Result per
/// arch, in submission order; a bad element fails alone (the service
/// falls back to lone queries when the packed forward rejects the batch),
/// so every answer is bit-identical to an uncoalesced submission. This is
/// what the wire's multi-predict frame (net::FrameType::kPredictBatchN)
/// lands on. Stats count the batch as archs.size() requests but one queue
/// slot; a refusal, expiry or cancellation resolves every element.
struct PredictBatchRequest {
  std::vector<api::Arch> archs;
  RequestOptions opts{};
};

/// Deterministic deployment report on the service's device model.
struct ProfileRequest {
  api::Arch arch;
  RequestOptions opts{};
};

/// The profile report for a named reference network ("dgcnn", "li",
/// "tailor", zoo entries), optionally at an explicit workload.
struct ProfileBaselineRequest {
  std::string name;
  std::optional<api::Workload> workload;
  RequestOptions opts{};
};

/// Train a CPU-scale instance of a named baseline on the service's
/// dataset.
struct TrainBaselineRequest {
  std::string name;
  RequestOptions opts{};
};

}  // namespace hg::serve
