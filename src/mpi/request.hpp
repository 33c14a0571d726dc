// MPI request objects. A request is completed exactly once — by a polling
// thread, a sender thread or the watchdog — and waited on by the rank's
// control thread. Completion records a release stamp with the status, so
// a waiter's clock never runs behind its completer's.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "marcel/engine.hpp"
#include "marcel/executor.hpp"
#include "mpi/types.hpp"
#include "sim/node.hpp"

namespace madmpi::mpi {

class RequestState {
 public:
  explicit RequestState(sim::Node& node) : node_(node) {}

  /// Called by the completing thread, which pays the Marcel signal cost;
  /// the waiter wakes no earlier than the completer's lane after it.
  ///
  /// The state change is made under the mutex and the waiter is woken
  /// after it is released: a waiter woken under the lock would only block
  /// on it again and need a second wake-up (on one CPU, two context
  /// switches per hand-off). Past the unlock the waiter may return from
  /// wait() and drop its handle, so the notify is safe only while the
  /// completer still holds a reference. The completer therefore hands its
  /// reference in by value: `request` keeps the state alive until this
  /// call returns, whoever else lets go.
  static void complete(std::shared_ptr<RequestState> request,
                       const MpiStatus& status) {
    RequestState& self = *request;
    std::function<void(const MpiStatus&)> hook;
    const usec_t released_at =
        self.node_.clock().advance(marcel::ThreadCosts::kSemSignal);
    {
      std::lock_guard<std::mutex> lock(self.mutex_);
      MADMPI_CHECK_MSG(!self.completed_, "request completed twice");
      self.status_ = status;
      self.released_at_ = released_at;
      self.completed_ = true;
      hook = std::move(self.on_complete_);
      self.on_complete_ = nullptr;
    }
    self.done_.notify_all();
    marcel::engine_notify();
    // The hook runs on the completing context (a poller, a device thread,
    // a fiber resume) with the completer's virtual-time lane installed —
    // this is how nonblocking-collective schedules advance from the
    // progress engine instead of from a hidden blocking call.
    if (hook) hook(status);
  }

  /// Blocking wait (MPI_Wait): wakes at the release stamp plus the Marcel
  /// wake cost. On a fiber this parks instead of blocking the worker.
  MpiStatus wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (consumed_) return status_;  // already waited/tested successfully
    marcel::engine_wait(lock, done_, [this] { return completed_; });
    consumed_ = true;
    lock.unlock();  // status_ and released_at_ never change once completed
    node_.clock().sync_to(released_at_);
    node_.clock().advance(marcel::ThreadCosts::kWake);
    return status_;
  }

  /// Non-blocking test (MPI_Test).
  bool test(MpiStatus* status_out) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (completed_) {
        if (!consumed_) node_.clock().sync_to(released_at_);
        consumed_ = true;
        if (status_out != nullptr) *status_out = status_;
        return true;
      }
    }
    // Spinning on MPI_Test is a legitimate MPI program, and on the fiber
    // engine the tested operation can only complete if the peer's fiber
    // gets to run: yield the shard before reporting "not yet".
    marcel::cooperative_yield();
    return false;
  }

  bool completed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
  }

  /// Schedule-advancement hook: runs exactly once after the status is
  /// recorded, from the completing context, outside the request mutex (it
  /// may issue further operations). If the request already completed —
  /// eager sends complete inline — the hook runs immediately on the
  /// caller. Set at most one hook per request.
  void set_on_complete(std::function<void(const MpiStatus&)> fn) {
    MpiStatus status;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!completed_) {
        on_complete_ = std::move(fn);
        return;
      }
      status = status_;
    }
    fn(status);
  }

  /// Register the operation-specific cancellation attempt (set once, by
  /// the operation that created this request, before the request handle is
  /// returned to the user). The hook returns true when it managed to
  /// detach the operation — the detached path then completes the request
  /// with ErrorCode::kCancelled.
  void set_cancel(std::function<bool()> fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    cancel_fn_ = std::move(fn);
  }

  /// MPI_Cancel: best-effort and local. Returns false when the request
  /// already completed (the operation finishes normally; MPI permits
  /// this). The hook runs outside the lock — it may complete the request
  /// synchronously, and complete() takes the lock again.
  bool cancel() {
    std::function<bool()> fn;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (completed_ || !cancel_fn_) return false;
      fn = cancel_fn_;
    }
    return fn();
  }

 private:
  sim::Node& node_;
  mutable std::mutex mutex_;
  std::condition_variable done_;
  MpiStatus status_;
  usec_t released_at_ = 0.0;
  bool completed_ = false;
  bool consumed_ = false;
  std::function<bool()> cancel_fn_;
  std::function<void(const MpiStatus&)> on_complete_;
};

/// Value-semantic handle (MPI_Request).
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  MpiStatus wait() {
    MADMPI_CHECK_MSG(valid(), "wait on a null request");
    return state_->wait();
  }

  bool test(MpiStatus* status = nullptr) {
    MADMPI_CHECK_MSG(valid(), "test on a null request");
    return state_->test(status);
  }

  /// MPI_Cancel. Local, best-effort: true when the cancellation was
  /// initiated (the request will complete with ErrorCode::kCancelled);
  /// false when the operation already completed or cannot be cancelled.
  /// The caller still must wait()/test() the request either way.
  bool cancel() {
    MADMPI_CHECK_MSG(valid(), "cancel on a null request");
    return state_->cancel();
  }

  static void wait_all(std::span<Request> requests) {
    for (auto& request : requests) request.wait();
  }

  /// MPI_Waitany: block until one request completes; returns its index and
  /// fills `status`. Completed requests are identified by test(), so the
  /// returned request is consumed. Aborts on an all-null span.
  static std::size_t wait_any(std::span<Request> requests,
                              MpiStatus* status = nullptr);

  /// MPI_Testany: non-blocking variant; returns the index or npos.
  static std::size_t test_any(std::span<Request> requests,
                              MpiStatus* status = nullptr);

  /// MPI_Testall: true when every request has completed (all consumed).
  static bool test_all(std::span<Request> requests);

  /// MPI_Waitsome: block until at least one completes; returns the indices
  /// of every completed request.
  static std::vector<std::size_t> wait_some(std::span<Request> requests);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::shared_ptr<RequestState> state() { return state_; }

 private:
  std::shared_ptr<RequestState> state_;
};

}  // namespace madmpi::mpi
