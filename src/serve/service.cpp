#include "serve/service.hpp"

#include <exception>
#include <future>
#include <iterator>
#include <span>
#include <utility>

namespace hg::serve {

namespace {

api::Status shut_down_status() {
  return api::Status::FailedPrecondition("service is shut down");
}

api::Status queue_full_status() {
  return api::Status::ResourceExhausted("service queue is full");
}

api::Status draining_status() {
  return api::Status::Unavailable("service is draining");
}

api::Status expired_status() {
  return api::Status::DeadlineExceeded("deadline expired while queued");
}

api::Status cancelled_status() {
  return api::Status::Cancelled("request cancelled while queued");
}

bool is_cancelled(const std::shared_ptr<std::atomic<bool>>& flag) {
  return flag != nullptr && flag->load(std::memory_order_relaxed);
}

/// The request's wire-chosen trace id, or a fresh local one when tracing
/// is live (0 otherwise — untraced runs never pay the id counter).
std::uint64_t effective_trace_id(std::uint64_t requested) {
  if (requested != 0) return requested;
  return obs::tracing_enabled() ? obs::next_local_trace_id() : 0;
}

std::int64_t us_between(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

/// Settles one submission's promise, then fires its notify hook. Each
/// closure that may resolve the request holds a copy (one shared promise,
/// no extra allocation).
template <typename R>
struct Resolver {
  explicit Resolver(std::function<void()> hook) : notify(std::move(hook)) {}

  void operator()(R value) const {
    promise->set_value(std::move(value));
    if (notify) notify();
  }

  std::shared_ptr<std::promise<R>> promise =
      std::make_shared<std::promise<R>>();
  std::function<void()> notify;
};

/// One Result per arch, in order: one Engine::predict_batch call (for a
/// "predictor", the packed forward), or — when it rejects the batch (one
/// invalid genome fails the whole call) — one Engine::predict_latency per
/// arch, so a bad element fails alone and every answer equals what an
/// uncoalesced query would have produced.
std::vector<api::Result<api::LatencyReport>> answer(
    api::Engine& engine, const std::vector<api::Arch>& archs) {
  std::vector<api::Result<api::LatencyReport>> results;
  results.reserve(archs.size());
  api::Result<std::vector<api::LatencyReport>> reports =
      engine.predict_batch(archs);
  if (reports.ok()) {
    for (api::LatencyReport& r : reports.value()) results.emplace_back(r);
  } else {
    for (const api::Arch& a : archs)
      results.push_back(engine.predict_latency(a));
  }
  return results;
}

/// Bridges an api-layer run object (SearchRun / TrainBaselineRun — same
/// step()/done()/take_report() shape) onto the scheduler's Steppable
/// interface. A failed begin_* Result is carried as the error the run
/// would have reported: step() is immediately false and finish() resolves
/// with it, so admission-time failures take the same path as run-time
/// ones.
template <typename Run, typename Report>
class RunSteppable final : public Steppable {
 public:
  RunSteppable(api::Result<std::unique_ptr<Run>> run,
               std::function<void(api::Result<Report>)> resolve)
      : resolve_(std::move(resolve)) {
    if (run.ok())
      run_ = std::move(run).value();
    else
      error_ = run.status();
  }

  bool step() override { return run_ != nullptr && run_->step(); }
  void finish() override {
    if (run_ != nullptr)
      resolve_(run_->take_report());
    else
      resolve_(error_);
  }
  void abort(const api::Status& status) override { resolve_(status); }

 private:
  std::unique_ptr<Run> run_;
  api::Status error_;
  std::function<void(api::Result<Report>)> resolve_;
};

}  // namespace

api::Result<std::shared_ptr<Service>> Service::create(
    const api::EngineConfig& cfg, const ServiceConfig& service_cfg) {
  api::Result<std::shared_ptr<api::EvalContext>> ctx =
      api::EvalContext::create(cfg);
  if (!ctx.ok()) return ctx.status();
  return create(cfg, std::move(ctx).value(), service_cfg);
}

api::Result<std::shared_ptr<Service>> Service::create(
    const api::EngineConfig& cfg, std::shared_ptr<api::EvalContext> ctx,
    const ServiceConfig& service_cfg) {
  if (service_cfg.num_workers < 1 || service_cfg.num_workers > 256)
    return api::Status::InvalidArgument(
        "ServiceConfig::num_workers must be in [1, 256]");
  if (service_cfg.max_predict_batch < 1)
    return api::Status::InvalidArgument(
        "ServiceConfig::max_predict_batch must be >= 1");
  if (service_cfg.max_queue_depth < 0)
    return api::Status::InvalidArgument(
        "ServiceConfig::max_queue_depth must be >= 0 (0 = unbounded)");
  if (service_cfg.predict_window_us < 0)
    return api::Status::InvalidArgument(
        "ServiceConfig::predict_window_us must be >= 0 (0 = no window)");
  if (service_cfg.exclusive_slice_ms < 0)
    return api::Status::InvalidArgument(
        "ServiceConfig::exclusive_slice_ms must be >= 0 "
        "(0 = never preempt)");
  if (ctx == nullptr)
    return api::Status::InvalidArgument("EvalContext is null");

  std::shared_ptr<Service> service(new Service());
  service->base_cfg_ = cfg;
  service->service_cfg_ = service_cfg;
  if (service_cfg.exclusive_slice_ms > 0)
    service->slice_ =
        std::chrono::milliseconds(service_cfg.exclusive_slice_ms);
  service->ctx_ = std::move(ctx);
  const std::string evaluator = api::normalize_key(cfg.evaluator);
  service->coalesce_predictions_ = evaluator == "predictor";
  service->measured_evaluator_ = evaluator == "measured";

  service->engines_.reserve(
      static_cast<std::size_t>(service_cfg.num_workers));
  for (std::int64_t i = 0; i < service_cfg.num_workers; ++i) {
    api::Result<api::Engine> engine = api::Engine::create(cfg, service->ctx_);
    if (!engine.ok()) return engine.status();
    service->engines_.push_back(std::move(engine).value());
  }
  if (!service_cfg.trace_path.empty()) {
    // The collector is process-global; the first service configured with
    // a trace_path owns it (starts it now, exports + stops at shutdown).
    service->trace_owner_ = !obs::TraceCollector::global().enabled();
    obs::TraceCollector::global().start();
  }
  service->start_workers(service_cfg.num_workers);
  return service;
}

Service::~Service() { shutdown(); }

void Service::start_workers(std::int64_t n) {
  workers_.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
}

void Service::shutdown() {
  // Serializes concurrent shutdown() callers (a second caller would
  // otherwise join the same threads); queue state stays under queue_mutex_.
  core::MutexLock shutdown_lock(shutdown_mutex_);
  {
    core::MutexLock lock(queue_mutex_);
    stopping_ = true;
  }
  // Every parked worker must observe stopping_, including a predict-window
  // waiter mid-wait_until. The exclusive gate needs no signal: a claimant
  // blocked there is released by the last pure completion regardless.
  work_cv_.notify_all();
  window_cv_.notify_one();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  if (trace_owner_) {
    trace_owner_ = false;  // idempotent under shutdown_mutex_
    obs::TraceCollector::global().write_json(service_cfg_.trace_path);
    obs::TraceCollector::global().stop();
  }
}

void Service::drain() {
  {
    core::MutexLock lock(queue_mutex_);
    if (draining_) return;
    draining_ = true;
  }
  counters_.drain_started.inc();
  // No wakeup: draining_ only affects admission (checked by submitters
  // under the queue lock), never a worker's wait predicate.
}

bool Service::draining() const {
  core::MutexLock lock(queue_mutex_);
  return draining_;
}

void Service::record_ping() {
  counters_.pings.inc();
}

void Service::record_shed_hint() {
  counters_.sheds_with_hint.inc();
}

std::deque<Service::QueuedTask>& Service::route(const QueuedTask& task) {
  const bool prediction = task.predicted != nullptr;
  if (task.make_steppable != nullptr || (prediction && measured_evaluator_))
    return exclusive_queue_;
  if (prediction && coalesce_predictions_) return predict_queue_;
  return pure_queue_;
}

void Service::enqueue(QueuedTask task) {
  api::Status refused;
  QueuedTask refused_task;  // `task`, when it is not admitted
  bool coalescing = false;
  bool wake_window = false;
  {
    core::MutexLock lock(queue_mutex_);
    const std::int64_t count = task.requests();
    if (stopping_) {
      refused = shut_down_status();
    } else if (draining_) {
      refused = draining_status();
    } else {
      counters_.requests.inc(count);
      if (task.predicted != nullptr) counters_.predict_requests.inc(count);
      if (service_cfg_.max_queue_depth > 0 &&
          queued() >= service_cfg_.max_queue_depth) {
        counters_.rejected_requests.inc(count);
        refused = queue_full_status();
      }
    }
    if (refused.ok()) {
      std::deque<QueuedTask>& queue = route(task);
      if (&queue == &exclusive_queue_) counters_.exclusive_requests.inc(count);
      coalescing = &queue == &predict_queue_;
      queue.push_back(std::move(task));
      wake_window = predict_window_waiter_;
    } else {
      refused_task = std::move(task);
    }
  }
  if (!refused.ok()) {
    refused_task.refuse(refused);
    return;
  }
  // One admitted task, one woken worker. A window waiter gets its own
  // signal: an arrival can satisfy its early-fire conditions (the group
  // filled, an exclusive arrived, pure work with nobody free), and it
  // sleeps on window_cv_, not work_cv_. While it holds the coalescing
  // queue a new prediction is actionable by nobody else.
  if (!(coalescing && wake_window)) work_cv_.notify_one();
  if (wake_window) window_cv_.notify_one();
}

Service::QueuedTask Service::make_task(RequestOptions& opts) {
  QueuedTask task;
  task.deadline = opts.deadline;
  task.cancel = std::move(opts.cancel);
  task.enqueued_at = std::chrono::steady_clock::now();
  task.trace_id = effective_trace_id(opts.trace_id);
  return task;
}

template <typename T>
std::future<api::Result<T>> Service::submit_task(
    std::function<api::Result<T>(api::Engine&)> fn, RequestOptions opts,
    std::function<std::unique_ptr<Steppable>(
        api::Engine&, std::function<void(api::Result<T>)>)>
        make_run) {
  const Resolver<api::Result<T>> resolve(std::move(opts.notify));
  std::future<api::Result<T>> future = resolve.promise->get_future();
  QueuedTask task = make_task(opts);
  if (make_run) {
    task.make_steppable = [make_run = std::move(make_run),
                           resolve](api::Engine& engine) {
      return make_run(engine, resolve);
    };
  } else {
    task.run = [fn = std::move(fn), resolve](api::Engine& engine) {
      resolve(fn(engine));
    };
  }
  task.fail = [resolve](const api::Status& status) { resolve(status); };
  enqueue(std::move(task));
  return future;
}

std::future<api::Result<api::SearchReport>> Service::submit(
    SearchRequest req) {
  const api::EngineConfig cfg = req.cfg.value_or(base_cfg_);
  return submit_task<api::SearchReport>(
      nullptr, std::move(req.opts),
      [this, cfg](api::Engine&,
                  std::function<void(api::Result<api::SearchReport>)> resolve)
          -> std::unique_ptr<Steppable> {
        // A fresh engine per search: per-request strategy / objective /
        // constraint overrides without touching the worker's engine, gated
        // by context_compatible inside Engine::create. The run keeps the
        // EvalContext alive itself, so the temporary engine may die as
        // soon as begin_search() returns.
        using SearchSteppable =
            RunSteppable<api::SearchRun, api::SearchReport>;
        api::Result<api::Engine> engine = api::Engine::create(cfg, ctx_);
        if (!engine.ok())
          return std::make_unique<SearchSteppable>(engine.status(),
                                                   std::move(resolve));
        return std::make_unique<SearchSteppable>(
            engine.value().begin_search(), std::move(resolve));
      });
}

std::future<api::Result<api::LatencyReport>> Service::submit(
    PredictLatencyRequest req) {
  // A batch of one: the entry's resolver unwraps its single element.
  const Resolver<api::Result<api::LatencyReport>> resolve(
      std::move(req.opts.notify));
  std::future<api::Result<api::LatencyReport>> future =
      resolve.promise->get_future();
  QueuedTask task = make_task(req.opts);
  task.archs.push_back(std::move(req.arch));
  task.predicted = [resolve](PredictResults results) {
    resolve(std::move(results.front()));
  };
  enqueue(std::move(task));
  return future;
}

std::future<std::vector<api::Result<api::LatencyReport>>> Service::submit(
    PredictBatchRequest req) {
  const Resolver<PredictResults> resolve(std::move(req.opts.notify));
  std::future<PredictResults> future = resolve.promise->get_future();
  if (req.archs.empty()) {
    resolve({});
    return future;
  }
  QueuedTask task = make_task(req.opts);
  task.archs = std::move(req.archs);
  task.predicted = resolve;
  enqueue(std::move(task));
  return future;
}

std::future<api::Result<api::ProfileReport>> Service::submit(
    ProfileRequest req) {
  return submit_task<api::ProfileReport>(
      [arch = std::move(req.arch)](api::Engine& engine) {
        return engine.profile(arch);
      },
      std::move(req.opts));
}

std::future<api::Result<api::ProfileReport>> Service::submit(
    ProfileBaselineRequest req) {
  RequestOptions opts = std::move(req.opts);
  return submit_task<api::ProfileReport>(
      [name = std::move(req.name),
       workload = req.workload](api::Engine& engine) {
        return workload ? engine.profile_baseline(name, *workload)
                        : engine.profile_baseline(name);
      },
      std::move(opts));
}

std::future<api::Result<api::TrainReport>> Service::submit(
    TrainBaselineRequest req) {
  const std::string name = std::move(req.name);
  return submit_task<api::TrainReport>(
      nullptr, std::move(req.opts),
      [name](api::Engine& engine,
             std::function<void(api::Result<api::TrainReport>)> resolve)
          -> std::unique_ptr<Steppable> {
        return std::make_unique<
            RunSteppable<api::TrainBaselineRun, api::TrainReport>>(
            engine.begin_train_baseline(name), std::move(resolve));
      });
}

std::int64_t Service::queue_depth() const {
  core::MutexLock lock(queue_mutex_);
  return queued();
}

obs::Snapshot Service::metrics_snapshot() const {
  obs::Snapshot snap = registry_->snapshot();
  // queue_depth is the one live (non-monotone, non-instrument) value: it
  // is derived from the queue sizes, so inject it here.
  snap["serve.queue_depth"] = queue_depth();
  return snap;
}

bool Service::pop_runnable(
    std::deque<QueuedTask>& queue,
    std::vector<std::pair<QueuedTask, api::Status>>* failed,
    QueuedTask* out, obs::Histogram& kind_wait) {
  while (!queue.empty()) {
    QueuedTask task = std::move(queue.front());
    queue.pop_front();
    const bool cancelled = is_cancelled(task.cancel);
    const auto now = std::chrono::steady_clock::now();
    const bool expired = !cancelled && now > task.deadline;
    if (!cancelled && !expired) {
      const std::int64_t wait_us = us_between(task.enqueued_at, now);
      queue_wait_us_.record_us(wait_us);
      kind_wait.record_us(wait_us);
      obs::record_span("serve.queue_wait", "serve", task.trace_id,
                       task.enqueued_at, now);
      *out = std::move(task);
      return true;
    }
    (cancelled ? counters_.cancelled_requests : counters_.deadline_expired)
        .inc(task.requests());
    failed->emplace_back(std::move(task),
                         cancelled ? cancelled_status() : expired_status());
  }
  return false;
}

bool Service::predict_group_full() const {
  std::int64_t archs = 0;
  for (const QueuedTask& t : predict_queue_) {
    archs += t.requests();
    if (archs >= service_cfg_.max_predict_batch) return true;
  }
  return false;
}

Service::PredictResults Service::execute(api::Engine& engine,
                                         std::span<QueuedTask> group) {
  QueuedTask& first = group.front();
  if (first.predicted == nullptr) {  // one-piece work always runs alone
    first.run(engine);
    return {};
  }
  std::vector<api::Arch> packed;  // a coalesced group's archs, in order
  if (group.size() > 1)
    for (QueuedTask& t : group)
      packed.insert(packed.end(), std::make_move_iterator(t.archs.begin()),
                    std::make_move_iterator(t.archs.end()));
  const std::vector<api::Arch>& archs = group.size() > 1 ? packed : first.archs;
  counters_.predict_batches.inc();
  counters_.max_predict_batch.max_of(static_cast<std::int64_t>(archs.size()));
  return answer(engine, archs);
}

void Service::resolve(std::span<QueuedTask> group, PredictResults results) {
  if (group.front().predicted == nullptr) return;
  if (group.size() == 1) {
    group.front().predicted(std::move(results));
    return;
  }
  auto next = results.begin();
  for (QueuedTask& t : group) {
    const auto end = next + t.requests();
    t.predicted(PredictResults(std::make_move_iterator(next),
                               std::make_move_iterator(end)));
    next = end;
  }
}

void Service::worker_loop(std::size_t worker_index) {
  api::Engine& engine = engines_[worker_index];
  core::UniqueMutexLock lock(queue_mutex_);
  for (;;) {
    // Waits are explicit loops over guarded state, not cv_.wait(lock,
    // pred): thread safety analysis treats a predicate lambda as its own
    // unannotated function (see annotations.hpp rule 4).
    for (;;) {
      // A predict queue whose coalescing window another worker is
      // already waiting out is not claimable work.
      const bool predict_work =
          !predict_queue_.empty() && !predict_window_waiter_;
      const bool work =
          !exclusive_claimed_ &&
          (!exclusive_queue_.empty() || predict_work ||
           !pure_queue_.empty());
      const bool drained = stopping_ && queued() == 0;
      if (work || drained) break;
      work_cv_.wait(lock);
    }

    // A preempted exclusive re-parked at the queue front yields one
    // dispatch round to queued pure/predict traffic — that interleaving is
    // the whole point of slicing. A FRESH exclusive keeps the
    // drain-pure-first priority, and under slice_ms == 0 no run is ever
    // preempted, so this never fires there. Caveat: a saturating pure load
    // can starve a preempted run (accepted — pure work is cheap and
    // bounded, exclusives are minutes).
    const bool defer_exclusive =
        !exclusive_queue_.empty() &&
        exclusive_queue_.front().steppable != nullptr &&
        ((!predict_queue_.empty() && !predict_window_waiter_) ||
         !pure_queue_.empty());

    // Exclusive requests outrank everything: claim the oldest, wait for
    // in-flight pure work to drain, run alone. While a claim is pending or
    // running, no worker starts anything — that is the whole guarantee.
    if (!exclusive_claimed_ && !exclusive_queue_.empty() &&
        !defer_exclusive) {
      exclusive_claimed_ = true;
      QueuedTask task;
      std::vector<std::pair<QueuedTask, api::Status>> failed;
      const bool got = pop_runnable(exclusive_queue_, &failed, &task,
                                    exclusive_queue_wait_us_);
      if (!got) exclusive_claimed_ = false;  // every exclusive was dead
      if (!failed.empty()) {
        // Resolve cancellations/expiries outside the lock (they fire
        // promise waiters and notify hooks). When a live task was popped
        // the claim stays held across the unlock, so no pure work starts.
        lock.unlock();
        for (auto& [t, status] : failed) t.refuse(status);
        lock.lock();
      }
      if (!got) {
        // The transient claim may have parked workers that saw
        // exclusive_claimed_; every one of them must re-examine the queues.
        work_cv_.notify_all();
        continue;
      }
      while (pure_active_ != 0) gate_cv_.wait(lock);
      // Search and train_baseline run stepwise; everything else on this
      // queue (measured-evaluator predictions) is quick and runs in one
      // piece.
      const bool sliced =
          task.make_steppable != nullptr || task.steppable != nullptr;
      lock.unlock();
      // Nested spans (search.* / train.* from the steppers) inherit the
      // request's id through the thread-local.
      HG_TRACE_ID(task.trace_id);
      const auto started = std::chrono::steady_clock::now();
      bool finished = true;
      PredictResults answers;
      if (!sliced) {
        answers = execute(engine, std::span<QueuedTask>(&task, 1));
      } else {
        counters_.exclusive_slices.inc();
        if (task.steppable == nullptr) {
          task.steppable = task.make_steppable(engine);
          task.make_steppable = nullptr;
        } else {
          counters_.exclusive_resumes.inc();
        }
        finished = false;
        for (;;) {
          // Between steps the task is at a clean boundary: honor a cancel
          // or an expired deadline now instead of at the end of the run.
          if (is_cancelled(task.cancel)) {
            counters_.cancelled_requests.inc();
            task.steppable->abort(api::Status::Cancelled(
                "request cancelled mid-run (between steps)"));
            finished = true;
            break;
          }
          const auto step_started = std::chrono::steady_clock::now();
          if (step_started > task.deadline) {
            counters_.deadline_expired.inc();
            task.steppable->abort(api::Status::DeadlineExceeded(
                "deadline expired mid-run (between steps)"));
            finished = true;
            break;
          }
          const bool more = task.steppable->step();
          const auto step_ended = std::chrono::steady_clock::now();
          step_us_.record_us(us_between(step_started, step_ended));
          if (!more) {
            task.steppable->finish();
            finished = true;
            break;
          }
          if (step_ended - started >= slice_) break;
        }
      }
      const auto ended = std::chrono::steady_clock::now();
      // Per dispatch, not per request: a preempted run records one
      // service-time sample per slice (each slice occupied a worker
      // separately), mirroring the per-dispatch queue-wait samples.
      const std::int64_t run_us = us_between(started, ended);
      service_time_us_.record_us(run_us);
      exclusive_service_time_us_.record_us(run_us);
      obs::record_span(sliced ? "serve.slice" : "serve.exclusive", "serve",
                       task.trace_id, started, ended);
      resolve(std::span<QueuedTask>(&task, 1), std::move(answers));
      lock.lock();
      exclusive_claimed_ = false;
      if (!finished) {
        // Re-park at the FRONT: the preempted task stays ahead of every
        // younger exclusive, so exclusives still run FIFO and the shared
        // context RNG is consumed in submission order — bit-identical
        // results for any slice value. The wait clock restarts (each
        // dispatch waited separately).
        task.enqueued_at = ended;
        counters_.exclusive_preemptions.inc();
        exclusive_queue_.push_front(std::move(task));
      }
      // Releasing the claim re-opens dispatch for everyone (any queue, any
      // worker), so this is the one completion that broadcasts.
      work_cv_.notify_all();
      continue;
    }

    // Pure work: one group from the coalescing queue (it goes first), else
    // one entry of the pure queue.
    const bool coalescing = !predict_queue_.empty() && !predict_window_waiter_;
    if (!exclusive_claimed_ && (coalescing || !pure_queue_.empty())) {
      // Time-windowed coalescing: with a window configured and room left
      // in the group, let the oldest queued entry age to the window
      // before firing, so queries arriving one at a time (remote trickle
      // traffic) still pack into one forward. Exactly ONE worker holds
      // the window (predict_window_waiter_) — the others keep serving
      // pure traffic meanwhile. Fires early when the group fills, an
      // exclusive request arrives, the service stops, or pure work is
      // queued with no free worker to take it.
      if (coalescing && service_cfg_.predict_window_us > 0 && !stopping_ &&
          !predict_group_full()) {
        const auto fire_at =
            predict_queue_.front().enqueued_at +
            std::chrono::microseconds(service_cfg_.predict_window_us);
        // When every other worker is busy (with one worker, always),
        // nobody else can take queued pure work while the window ages.
        // Sleeping on top of it would stall it for nothing — and running
        // it first could stall the *predictions* past the window (a
        // profile can take seconds). So fire the group early with
        // whatever is queued: the packed forward is quick, the window
        // stays an upper bound on coalescing delay, and the pure work
        // runs right after.
        if (std::chrono::steady_clock::now() < fire_at &&
            !(!pure_queue_.empty() && no_free_worker())) {
          predict_window_waiter_ = true;
          for (;;) {
            if (stopping_ || exclusive_claimed_ ||
                !exclusive_queue_.empty() || predict_queue_.empty() ||
                (!pure_queue_.empty() && no_free_worker()) ||
                predict_group_full())
              break;
            if (window_cv_.wait_until(lock, fire_at) ==
                std::cv_status::timeout)
              break;
          }
          predict_window_waiter_ = false;
          // The queue was unclaimable while the flag was up; enqueue-side
          // notify_ones from that span may have been absorbed by workers
          // that could not act on them, so re-open it with a broadcast
          // (rare: once per window).
          work_cv_.notify_all();
          continue;  // re-dispatch from the top with fresh state
        }
      }
      // Whole entries from the front until the group holds
      // max_predict_batch archs (an entry is never split); the pure queue
      // gives one entry.
      std::deque<QueuedTask>& queue = coalescing ? predict_queue_ : pure_queue_;
      std::vector<QueuedTask> group;
      std::vector<std::pair<QueuedTask, api::Status>> failed;
      std::int64_t archs = 0;
      QueuedTask task;
      // The pops and the pure_active_ bump share one continuous lock hold
      // with the exclusive_claimed_ check above: an exclusive claimant
      // waiting for pure_active_ == 0 can never interleave between them,
      // which is what keeps exclusive runs bit-identical to serial.
      while ((coalescing ? archs < service_cfg_.max_predict_batch
                         : group.empty()) &&
             pop_runnable(queue, &failed, &task, pure_queue_wait_us_)) {
        archs += task.requests();
        group.push_back(std::move(task));
      }
      if (!group.empty()) ++pure_active_;
      lock.unlock();
      for (auto& [t, status] : failed) t.refuse(status);
      if (!group.empty()) {
        HG_TRACE_ID(group.front().trace_id);
        const auto started = std::chrono::steady_clock::now();
        PredictResults answers = execute(engine, group);
        const auto ended = std::chrono::steady_clock::now();
        const std::int64_t run_us = us_between(started, ended);
        service_time_us_.record_us(run_us);
        pure_service_time_us_.record_us(run_us);
        // A coalesced group runs as one unit; its span carries the oldest
        // entry's attribution.
        obs::record_span(coalescing ? "serve.predict_batch" : "serve.pure",
                         "serve", group.front().trace_id, started, ended);
        resolve(group, std::move(answers));
      }
      lock.lock();
      if (!group.empty()) {
        --pure_active_;
        // Only an exclusive claimant waits on the active count; nobody
        // else needs to hear about a completion.
        if (pure_active_ == 0 && exclusive_claimed_) gate_cv_.notify_one();
      }
      continue;
    }

    if (stopping_ && queued() == 0) return;
  }
}

}  // namespace hg::serve
