// service.hpp — hg::serve::Service, the long-lived concurrent NAS service
// loop (the ROADMAP's "several engines answering profile/search/predict
// requests concurrently").
//
// One Service owns one api::EvalContext — one device model, one dataset,
// one supernet, one fitted predictor — and a pool of worker threads, each
// holding its own api::Engine on that context. Callers submit typed
// requests (serve/request.hpp) and get std::futures back; the service
// dispatches:
//
//   * PURE requests (predict / profile / profile_baseline) run
//     concurrently across the workers.
//   * EXCLUSIVE requests (search / train_baseline / measured-evaluator
//     predictions) run one at a time, in submission order, with the pure
//     traffic drained first — so a concurrent run's results are
//     bit-identical to submitting the same requests serially.
//   * A long exclusive run (search / train_baseline) advances one step at
//     a time (a search's mini-batch or validation-sample round, a
//     baseline's epoch), with cancel and deadline checked between steps.
//     With ServiceConfig::exclusive_slice_ms > 0 it is PREEMPTIBLE: once a
//     slice expires it is re-parked at the front of the exclusive queue so
//     queued pure traffic interleaves — flat predict p99 under a long
//     search — while results stay bit-identical to an unpreempted run (see
//     the config field).
//   * Every latency prediction is one queue entry: a PredictLatency is an
//     entry of one arch, a PredictBatch an entry of N. Against a
//     "predictor" evaluator the entries wait on one coalescing queue: a
//     worker takes whole entries from its front until the group holds
//     ServiceConfig::max_predict_batch archs and answers them with ONE
//     packed GCN forward (Engine::predict_batch), bit-identical per
//     element to serial queries but paying the per-forward overhead once.
//     Other evaluators answer each entry alone, on the pure queue (or the
//     exclusive FIFO for "measured").
//
// Admission control and queue-time guarantees (all per-request, see
// serve/request.hpp):
//   * ServiceConfig::max_queue_depth bounds the queued entries (a
//     PredictBatch of N archs is one entry): a submission that finds that
//     many entries waiting resolves immediately to RESOURCE_EXHAUSTED
//     instead of growing the queue without bound (back-pressure).
//   * A request whose RequestOptions::deadline passes while it is still
//     queued resolves to DEADLINE_EXCEEDED without running.
//   * A request whose RequestOptions::cancel flag is set before it starts
//     resolves to CANCELLED without running.
//   * ServiceConfig::predict_window_us makes a worker that picks up a
//     coalescing group smaller than max_predict_batch archs wait up to the
//     window for more to arrive before firing the packed forward, so
//     remote trickle traffic still batches. 0 preserves the
//     drain-what-is-queued behavior bit-exactly.
//
// Lifecycle: create() -> submit() from any thread -> shutdown() (drains
// queued work, joins the workers; the destructor calls it too). After
// shutdown, submit() resolves immediately to FAILED_PRECONDITION.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/eval_context.hpp"
#include "api/status.hpp"
#include "core/annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"

namespace hg::serve {

struct ServiceConfig {
  /// Worker threads (each with its own Engine on the shared context).
  std::int64_t num_workers = 2;
  /// Archs a worker gathers into one packed forward on a "predictor"
  /// service: it takes whole queue entries from the front until the group
  /// holds at least this many archs. An entry is never split, so a
  /// PredictBatchRequest larger than the limit runs whole. 1 disables
  /// coalescing (every entry is its own forward).
  std::int64_t max_predict_batch = 16;
  /// Bound on the number of *queued* (admitted, not yet started) entries
  /// across all three queues; a PredictBatchRequest of N archs is one
  /// entry and is admitted whole. A submission that finds this many
  /// entries queued resolves immediately to RESOURCE_EXHAUSTED.
  /// 0 = unbounded.
  std::int64_t max_queue_depth = 0;
  /// Time-based predict-coalescing window (microseconds): a worker about
  /// to fire a packed forward with fewer than max_predict_batch queued
  /// archs waits until the *oldest* queued entry has aged this long,
  /// giving trickle traffic (one request per connection round-trip) a
  /// chance to coalesce. A batch entry smaller than the limit may wait
  /// out the window like a lone query. 0 = fire immediately with
  /// whatever is queued (the historical behavior, bit-exactly). The
  /// window is an *upper bound* on coalescing delay: when pure work is
  /// queued and no other worker is free to take it (always true with
  /// num_workers == 1), the window fires early instead of sleeping on top
  /// of runnable work.
  std::int64_t predict_window_us = 0;
  /// Non-empty: enable request-scoped tracing (obs::TraceCollector) for
  /// this service's lifetime and write the collected spans as Chrome
  /// trace_event JSON to this path at shutdown. The collector is
  /// process-global; the first service configured with a path owns the
  /// start/export. Empty (the default) = tracing off — every trace site
  /// is one relaxed atomic load.
  std::string trace_path{};
  /// Exclusive-task time slice (milliseconds). search / train_baseline
  /// always run stepwise (a search step is one supernet mini-batch or one
  /// validation-sample round of its candidates; a train_baseline step is
  /// one epoch), with cancel and deadline checked between steps, so a
  /// mid-run cancel / expiry resolves within one step. 0 = an unbounded
  /// slice: the run is never preempted. > 0: once a slice expires at a
  /// step boundary the task is re-parked at the FRONT of the exclusive
  /// queue — exclusives stay FIFO and the shared-context RNG stream is
  /// consumed in submission order, so results are bit-identical for ANY
  /// slice value — and queued pure work gets a dispatch round before it
  /// resumes.
  std::int64_t exclusive_slice_ms = 0;
};

/// One preemptible unit of exclusive work, advanced a step at a time (a
/// search's mini-batch or validation-sample round, a training epoch)
/// between slice-expiry checks.
/// step() must not throw: failures are captured inside the run and reported
/// when finish() resolves the request's promise.
class Steppable {
 public:
  virtual ~Steppable() = default;
  /// Advance one step; false once the run has finished (successfully or
  /// not).
  virtual bool step() = 0;
  /// Resolve the request's promise with the run's result (or captured
  /// error). Call exactly once, after step() returned false.
  virtual void finish() = 0;
  /// Resolve the request's promise with `status` (mid-run cancel /
  /// deadline expiry). The partially-advanced run is discarded.
  virtual void abort(const api::Status& status) = 0;
};

class Service {
 public:
  /// Build the context from `cfg` (for "predictor" this fits the latency
  /// predictor — the expensive step), then start the workers.
  static api::Result<std::shared_ptr<Service>> create(
      const api::EngineConfig& cfg, const ServiceConfig& service_cfg = {});

  /// Start the workers on an existing shared context (e.g. one built by
  /// EvalContext::create_many for a device fleet). `cfg` must be
  /// context-compatible with `ctx`.
  static api::Result<std::shared_ptr<Service>> create(
      const api::EngineConfig& cfg, std::shared_ptr<api::EvalContext> ctx,
      const ServiceConfig& service_cfg = {});

  /// shutdown() + join.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // ---- request submission (thread-safe, non-blocking) ----
  std::future<api::Result<api::SearchReport>> submit(SearchRequest req);
  std::future<api::Result<api::LatencyReport>> submit(
      PredictLatencyRequest req);
  /// One queue entry, per-element results (see PredictBatchRequest). An
  /// admission refusal (shutdown / draining / queue full), expiry or
  /// cancellation resolves every element with that status.
  std::future<std::vector<api::Result<api::LatencyReport>>> submit(
      PredictBatchRequest req);
  std::future<api::Result<api::ProfileReport>> submit(ProfileRequest req);
  std::future<api::Result<api::ProfileReport>> submit(
      ProfileBaselineRequest req);
  std::future<api::Result<api::TrainReport>> submit(TrainBaselineRequest req);

  /// Stop accepting requests, finish everything already queued, join the
  /// workers. Idempotent; safe from any thread (not from a worker).
  void shutdown();

  /// Stop ADMITTING requests (further submissions resolve UNAVAILABLE
  /// "service is draining") while the workers keep running everything
  /// already queued. Non-blocking and idempotent; the graceful first half
  /// of shutdown() — call shutdown() afterwards to join the workers.
  void drain();
  bool draining() const;

  /// Net-layer stat recorders (the wire front end answers pings and
  /// attaches retry_after_us hints itself; the counters live here so one
  /// snapshot tells the whole story).
  void record_ping();
  void record_shed_hint();

  /// Queue entries admitted and not yet started (the live
  /// "serve.queue_depth"), without building a whole metrics_snapshot().
  std::int64_t queue_depth() const;

  /// This service's instrument registry. The net front end registers its
  /// "net.*" counters here so one snapshot tells the whole story; each
  /// Service owns its own registry (two services in one process must not
  /// merge their queues' counters).
  obs::Registry& registry() { return *registry_; }

  /// The full flattened metrics snapshot — every registered instrument
  /// (serve.*, plus whatever the owner registered) and the live
  /// "serve.queue_depth" — the one stats view: kStats answers it,
  /// obs::render_snapshot prints it, in-process readers look names up in
  /// it. Service::Counters documents each serve.* name.
  obs::Snapshot metrics_snapshot() const;

  const std::shared_ptr<api::EvalContext>& context() const { return ctx_; }
  const api::EngineConfig& config() const { return base_cfg_; }

 private:
  Service() = default;

  /// One latency prediction's results: one Result per arch, in order.
  using PredictResults = std::vector<api::Result<api::LatencyReport>>;

  /// One admitted request parked on a queue. Every resolution fires the
  /// request's notify hook.
  struct QueuedTask {
    /// Set for one-piece work (profile / profile_baseline).
    std::function<void(api::Engine&)> run;
    /// Set instead for a latency prediction: its archs (one for a
    /// PredictLatencyRequest, N for a PredictBatchRequest) and the resolver
    /// that receives one Result per arch, in order.
    std::vector<api::Arch> archs;
    std::function<void(PredictResults)> predicted;
    /// Resolves any other task with a Status; see refuse().
    std::function<void(const api::Status&)> fail;
    /// Set instead of `run` for the long exclusive verbs (search /
    /// train_baseline): builds the stepwise run on first dispatch.
    std::function<std::unique_ptr<Steppable>(api::Engine&)> make_steppable;
    /// The in-flight stepwise run of a preempted task, carried across its
    /// re-park at the front of the exclusive queue.
    std::unique_ptr<Steppable> steppable;
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::chrono::steady_clock::time_point enqueued_at;  // queue-wait histo
    /// Trace attribution: the submitter's RequestOptions::trace_id (the
    /// wire request id for remote work), or a fresh local id when tracing
    /// is enabled; 0 = unattributed.
    std::uint64_t trace_id = 0;

    /// The logical requests this entry carries: its arch count for a
    /// prediction, else 1.
    std::int64_t requests() const {
      return predicted != nullptr ? static_cast<std::int64_t>(archs.size())
                                  : 1;
    }

    /// Resolves the entry with an admission-side Status (refusal / expiry
    /// / cancellation) without running it — every element of a
    /// prediction.
    void refuse(const api::Status& status) {
      if (predicted == nullptr)
        fail(status);
      else
        predicted(PredictResults(archs.size(),
                                 api::Result<api::LatencyReport>(status)));
    }
  };

  void start_workers(std::int64_t n);
  void worker_loop(std::size_t worker_index);

  /// An entry carrying the scheduling fields of `opts` (deadline, cancel
  /// flag, trace id), stamped as enqueued now.
  static QueuedTask make_task(RequestOptions& opts);

  /// Admit `task` to the queue its kind routes to (see route()), bumping
  /// the request counters by its request count — its arch count for a
  /// prediction, else 1 — atomically with admission. A submission that is
  /// not admitted (shutdown / draining / queue full) is resolved here
  /// through task.refuse().
  void enqueue(QueuedTask task);

  /// The one routing decision: search / train_baseline and "measured"
  /// predictions (the evaluator's noise stream is shared state) go to the
  /// exclusive FIFO, predictions against a "predictor" to the coalescing
  /// queue, everything else to the pure queue.
  std::deque<QueuedTask>& route(const QueuedTask& task)
      HG_REQUIRES(queue_mutex_);

  /// The common submit shape for the Result-returning verbs: park `fn` on
  /// its queue, resolve the promise with the Result it returns. When
  /// `make_run` is set the task is a stepwise run instead and `fn` is
  /// unused: `make_run` builds it on first dispatch around the promise's
  /// resolver. Defined in service.cpp (instantiated for the facade report
  /// types only).
  template <typename T>
  std::future<api::Result<T>> submit_task(
      std::function<api::Result<T>(api::Engine&)> fn, RequestOptions opts,
      std::function<std::unique_ptr<Steppable>(
          api::Engine&, std::function<void(api::Result<T>)>)>
          make_run = {});

  /// Pops the task at the queue front, moving every leading task that is
  /// cancelled or expired into `failed` (with the Status to resolve it
  /// with) and bumping the matching counters by its request count. Runs
  /// entirely under the caller's lock — it never releases mutex_, so the
  /// dispatch decision that follows (claiming exclusivity, bumping
  /// pure_active_) stays atomic with the pop; the caller resolves `failed`
  /// outside the lock. Returns false when the queue is drained.
  /// `kind_wait` additionally receives the queue-wait sample in the
  /// per-kind (pure vs exclusive) histogram for the queue being popped.
  bool pop_runnable(std::deque<QueuedTask>& queue,
                    std::vector<std::pair<QueuedTask, api::Status>>* failed,
                    QueuedTask* out, obs::Histogram& kind_wait)
      HG_REQUIRES(queue_mutex_);

  /// Runs popped work outside the lock: one one-piece entry through its
  /// `run` (which resolves it; returns nothing), or a group of prediction
  /// entries through ONE answer() call over their archs in queue order,
  /// returning the answers unresolved.
  PredictResults execute(api::Engine& engine, std::span<QueuedTask> group);

  /// Hands each prediction entry of `group` its slice of `results` (a
  /// no-op for other work). The worker calls it after recording the
  /// unit's service time, so a caller holding its answer also finds the
  /// sample in the stats.
  static void resolve(std::span<QueuedTask> group, PredictResults results);

  /// Admitted entries not yet started, across all three queues.
  std::int64_t queued() const HG_REQUIRES(queue_mutex_) {
    return static_cast<std::int64_t>(pure_queue_.size() +
                                     exclusive_queue_.size() +
                                     predict_queue_.size());
  }

  /// True when the coalescing queue holds at least max_predict_batch archs.
  bool predict_group_full() const HG_REQUIRES(queue_mutex_);

  /// True when every other worker is busy (with one worker, always): queued
  /// pure work then has nobody to run it but the caller.
  bool no_free_worker() const HG_REQUIRES(queue_mutex_) {
    return service_cfg_.num_workers - 1 - pure_active_ <= 0;
  }

  api::EngineConfig base_cfg_;
  ServiceConfig service_cfg_;
  /// exclusive_slice_ms as a duration; max() when it is 0 (unbounded).
  std::chrono::steady_clock::duration slice_ =
      std::chrono::steady_clock::duration::max();
  std::shared_ptr<api::EvalContext> ctx_;
  bool coalesce_predictions_ = false;  // evaluator "predictor"
  bool measured_evaluator_ = false;    // evaluator "measured" (stateful)

  /// The per-service instrument registry, plus handles resolved once here
  /// (registry references are stable for its lifetime — obs::Registry).
  /// Every bump is one relaxed atomic: submissions, completions and the
  /// net layer's ping/shed recording never touch the queue lock.
  /// Declaration order matters: registry_ first, handles after.
  std::shared_ptr<obs::Registry> registry_ =
      std::make_shared<obs::Registry>();
  /// Request counters move by an entry's request count (its arch count
  /// for a prediction, else 1). All are monotone.
  struct Counters {
    obs::Registry& r;
    // Submissions past the stop/drain check: a queue-full refusal counts
    // here and in rejected_requests, a stopping/draining one nowhere.
    obs::Counter& requests = r.counter("serve.requests");
    // Admitted to the exclusive FIFO (search / train_baseline / measured).
    obs::Counter& exclusive_requests = r.counter("serve.exclusive_requests");
    // Predicted archs submitted, lone and batched.
    obs::Counter& predict_requests = r.counter("serve.predict_requests");
    // Prediction groups answered; the largest one, in archs.
    obs::Counter& predict_batches = r.counter("serve.predict_batches");
    obs::Gauge& max_predict_batch = r.gauge("serve.max_predict_batch");
    // Refused because the bounded queue was full.
    obs::Counter& rejected_requests = r.counter("serve.rejected_requests");
    // Expired / cancelled while queued or between steps of a run.
    obs::Counter& deadline_expired = r.counter("serve.deadline_expired");
    obs::Counter& cancelled_requests = r.counter("serve.cancelled_requests");
    // Net front end: health probes answered, refusals sent with a
    // retry_after_us hint.
    obs::Counter& pings = r.counter("serve.pings");
    obs::Counter& sheds_with_hint = r.counter("serve.sheds_with_hint");
    obs::Counter& drain_started = r.counter("serve.drain_started");  // 0/1
    // Stepwise-run dispatches (first and resumed), re-parks at slice
    // expiry, and dispatches of a preempted run. The last two stay 0
    // while exclusive_slice_ms == 0.
    obs::Counter& exclusive_slices = r.counter("serve.exclusive_slices");
    obs::Counter& exclusive_preemptions =
        r.counter("serve.exclusive_preemptions");
    obs::Counter& exclusive_resumes = r.counter("serve.exclusive_resumes");
  };

  core::Mutex shutdown_mutex_;  // serializes shutdown() callers only
  // The queue lock: it guards exactly the queues and the dispatch flags
  // below. Stats live in lock-free Counters/obs::Histogram members, so
  // a stat bump never contends with dispatch.
  mutable core::Mutex queue_mutex_;
  // Targeted wakeups (all wait via UniqueMutexLock over queue_mutex_):
  //   work_cv_   — workers parked for dispatchable work. Every enqueue
  //                wakes exactly one worker (notify_one); the broadcast
  //                cases are exclusive-claim release (it gated everybody)
  //                and shutdown.
  //   gate_cv_   — the single exclusive claimant waiting out in-flight
  //                pure work; signalled when pure_active_ drops to 0 with
  //                a claim pending.
  //   window_cv_ — the single predict-window waiter; signalled on any
  //                enqueue (an arrival can satisfy its early-fire
  //                conditions) and on shutdown.
  std::condition_variable_any work_cv_;
  std::condition_variable_any gate_cv_;
  std::condition_variable_any window_cv_;
  std::deque<QueuedTask> pure_queue_ HG_GUARDED_BY(queue_mutex_);
  std::deque<QueuedTask> exclusive_queue_ HG_GUARDED_BY(queue_mutex_);
  std::deque<QueuedTask> predict_queue_ HG_GUARDED_BY(queue_mutex_);
  std::int64_t pure_active_ HG_GUARDED_BY(queue_mutex_) = 0;
  // A worker owns the next exclusive task.
  bool exclusive_claimed_ HG_GUARDED_BY(queue_mutex_) = false;
  // A worker is waiting out predict_window_us on the coalescing queue;
  // the other workers treat that queue as unclaimable meanwhile and
  // serve pure traffic instead (when none of them is free and pure work
  // is queued, the window fires early — see worker_loop).
  bool predict_window_waiter_ HG_GUARDED_BY(queue_mutex_) = false;
  bool stopping_ HG_GUARDED_BY(queue_mutex_) = false;
  bool draining_ HG_GUARDED_BY(queue_mutex_) = false;
  Counters counters_{*registry_};  // lock-free bumps
  // Histogram handles (same registry; lock-free record_us; quantiles
  // within ~25%, see obs::Histogram): admission -> dispatch, one unit of
  // work (a task or a prediction group), and the same two split by kind
  // (pure: predict / profile / profile_baseline; exclusive: the rest).
  // Every sample in the first pair also lands in exactly one of the
  // others; a preempted run records one pair of samples per dispatch.
  obs::Histogram& queue_wait_us_ =
      registry_->histogram("serve.queue_wait_us");
  obs::Histogram& service_time_us_ =
      registry_->histogram("serve.service_time_us");
  obs::Histogram& pure_queue_wait_us_ =
      registry_->histogram("serve.pure_queue_wait_us");
  obs::Histogram& exclusive_queue_wait_us_ =
      registry_->histogram("serve.exclusive_queue_wait_us");
  obs::Histogram& pure_service_time_us_ =
      registry_->histogram("serve.pure_service_time_us");
  obs::Histogram& exclusive_service_time_us_ =
      registry_->histogram("serve.exclusive_service_time_us");
  // One sample per step() of a stepwise exclusive run: a slice overshoots
  // its budget by at most one step, so this bounds a sliced p99.
  obs::Histogram& step_us_ = registry_->histogram("serve.step_us");
  // This service started the global trace collector (trace_path set):
  // shutdown() exports and stops it.
  bool trace_owner_ = false;

  // Written single-threaded in create() before the workers exist, then
  // only read (worker i owns engines_[i]); workers_ is joined under
  // shutdown_mutex_. Neither needs mutex_.
  std::vector<api::Engine> engines_;  // one per worker, fixed at create
  std::vector<std::thread> workers_;
};

}  // namespace hg::serve
