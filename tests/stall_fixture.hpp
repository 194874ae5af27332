// stall_fixture.hpp — a pure request that blocks until the test lets it
// go, for tests that need work to pile up in (or expire from) a service's
// queues.
//
// kStallBaseline is a reference network registered once per process
// through api::Registry::register_baseline. Its lowering waits on the
// process-wide StallGate while the gate is closed, so a
// ProfileBaselineRequest{kStallBaseline} (in-process or over the wire)
// holds one worker for exactly as long as the test wants, whatever the
// service's scheduling policy does with anything else. Its training starts
// with a step that passes the same gate, so a TrainBaselineRequest holds
// the runner lane the same way. With the gate open it profiles and trains like
// "dgcnn".
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "serve/service.hpp"

namespace hg::testing {

inline constexpr const char* kStallBaseline = "test-stall";

/// The gate every stall profile waits on. Tests run one at a time within
/// a binary, so one process-wide gate is enough.
class StallGate {
 public:
  static StallGate& instance() {
    static StallGate gate;
    return gate;
  }

  /// Stall profiles that start from now on block until open().
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }

  /// Releases every blocked stall profile.
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = false;
    }
    cv_.notify_all();
  }

  /// Blocks until `n` stall profiles are waiting at the closed gate (each
  /// holds a worker); false after 10 s.
  bool wait_blocked(std::int64_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return blocked_ >= n; });
  }

  /// Called by the stall baseline's lowering.
  void pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++blocked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !closed_; });
    --blocked_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::int64_t blocked_ = 0;
};

/// "dgcnn", except that lowering it first passes the StallGate.
class StallBaseline final : public api::Lowerable {
 public:
  StallBaseline()
      : dgcnn_(api::Registry::global().make_baseline("dgcnn").value()) {}

  std::string name() const override { return kStallBaseline; }

  hw::Trace lower(const hgnas::Workload& workload) const override {
    StallGate::instance().pass();
    return dgcnn_->lower(workload);
  }

  std::unique_ptr<api::TrainStepper> train_stepper(
      const pointcloud::Dataset& data, const hgnas::Workload& train_workload,
      std::int64_t epochs, float lr, Rng& rng) const override {
    return std::make_unique<GatedStepper>(
        dgcnn_->train_stepper(data, train_workload, epochs, lr, rng));
  }

 private:
  /// "dgcnn"'s training after a first step that only passes the
  /// StallGate, so that step spends its time waiting, not computing.
  class GatedStepper final : public api::TrainStepper {
   public:
    explicit GatedStepper(std::unique_ptr<api::TrainStepper> inner)
        : inner_(std::move(inner)) {}
    bool step() override {
      if (gated_) return inner_->step();
      gated_ = true;
      StallGate::instance().pass();
      return true;
    }
    bool done() const override { return inner_->done(); }
    api::BaselineTrainResult result() const override {
      return inner_->result();
    }

   private:
    std::unique_ptr<api::TrainStepper> inner_;
    bool gated_ = false;
  };

  std::unique_ptr<api::Lowerable> dgcnn_;
};

/// Registered during static initialisation, before any test starts a
/// thread that could read the registry.
inline const bool kStallBaselineRegistered =
    api::Registry::global()
        .register_baseline(kStallBaseline, "",
                           [] { return std::make_unique<StallBaseline>(); })
        .ok();

/// Holds `workers` workers of an in-process service on stall profiles from
/// construction until release() (or destruction).
class WorkerStall {
 public:
  WorkerStall(serve::Service& service, std::int64_t workers) {
    StallGate::instance().close();
    for (std::int64_t i = 0; i < workers; ++i)
      stalls_.push_back(
          service.submit(serve::ProfileBaselineRequest{kStallBaseline, {}}));
    engaged_ = StallGate::instance().wait_blocked(workers);
  }
  ~WorkerStall() { release(); }
  WorkerStall(const WorkerStall&) = delete;
  WorkerStall& operator=(const WorkerStall&) = delete;

  /// Every stall profile reached its worker.
  bool engaged() const { return engaged_; }

  /// Opens the gate and waits for the stall profiles; true when each one
  /// answered OK. Later calls return true.
  bool release() {
    StallGate::instance().open();
    bool ok = true;
    for (auto& f : stalls_) ok = f.get().ok() && ok;
    stalls_.clear();
    return ok;
  }

 private:
  std::vector<std::future<api::Result<api::ProfileReport>>> stalls_;
  bool engaged_ = false;
};

}  // namespace hg::testing
