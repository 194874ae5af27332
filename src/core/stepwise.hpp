// stepwise.hpp — a minimal resumable-unit-of-work coroutine.
//
// core::Stepper is how long-running loops (EA generations, training epochs,
// and the mini-batches and validation-sample rounds inside them) expose a
// step() boundary to a scheduler without duplicating the loop body:
// the monolithic entry point and the stepwise one drive the SAME coroutine,
// so the two are bit-identical by construction. The coroutine suspends with
// `co_await std::suspend_always{}` at each step boundary; all loop state
// (RNG draws in flight, populations, counters) lives in the frame.
//
// Lifetime rules (the usual coroutine ones):
//  * reference/pointer parameters and `this` must outlive the frame — pass
//    small values (configs, FunctionSets) BY VALUE when the caller's copy
//    may die before the last step();
//  * Stepper owns the frame: move-only, destroys it on destruction even if
//    the body never ran to completion (partial runs are abandonable).
//
// Nesting: a coroutine exposes a sub-stepper's suspensions as its own by
// driving it with `while (sub.step()) co_await std::suspend_always{};`.
// Consecutive step() calls may run on different threads (a scheduler
// resumes a preempted run on whichever worker claims it), so no
// thread-local RAII guard (NoGradGuard, ScopedTraceId, ...) may live
// across a suspension.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace hg::core {

/// A unit of work advanced one step at a time. Obtain one by calling a
/// coroutine that returns Stepper; nothing runs until the first step().
class Stepper {
 public:
  struct promise_type {
    std::exception_ptr error;

    Stepper get_return_object() {
      return Stepper(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  Stepper() = default;
  Stepper(Stepper&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  Stepper& operator=(Stepper&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Stepper(const Stepper&) = delete;
  Stepper& operator=(const Stepper&) = delete;
  ~Stepper() { destroy(); }

  /// Run up to the next suspension point (or completion). Returns true
  /// while more steps remain, false once the body finished. An exception
  /// thrown by the body is rethrown here, from the step that hit it; the
  /// stepper is done afterwards.
  bool step() {
    if (!handle_ || handle_.done()) return false;
    handle_.resume();
    if (handle_.done()) {
      if (handle_.promise().error)
        std::rethrow_exception(
            std::exchange(handle_.promise().error, nullptr));
      return false;
    }
    return true;
  }

  bool done() const { return !handle_ || handle_.done(); }

 private:
  explicit Stepper(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace hg::core
