// The session's helper-task executor.
//
// Polling threads never send (paper §4.2.3), so the paper pushes each
// rendezvous reply and each MPI_Isend from a temporary Marcel thread.
// post() is that step, in virtual time exactly a spawned thread, but run
// on a reused worker. Tasks may block (a rendezvous awaiting its ack), so
// post() never queues behind a busy worker: it wakes an idle one or starts
// a new one. drain() waits for every task, including tasks posted by
// tasks; join() then retires the workers, so no helper outlives its owner.
//
// One worker starts with the executor and allocates at once; join() ends
// it last. glibc binds a thread to a malloc arena at its first allocation,
// preferring the arena of the thread that exited last, so over
// back-to-back sessions that worker, which runs the rendezvous data
// pushes, keeps one arena instead of leaving their allocations cached in
// the arenas of earlier pollers and ranks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/node.hpp"

namespace madmpi::marcel {

class Executor {
 public:
  Executor() { start_worker(); }
  ~Executor() { join(); }
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Charge `cost` to the caller's lane on `node`, then run `fn` under a
  /// fresh lane map, its lane on `node` born at the charged time.
  void post(sim::Node& node, usec_t cost, std::function<void()> fn) {
    const usec_t birth = node.clock().advance(cost);
    // The hand-off is made under mutex_ and the worker woken after it is
    // released, so it does not wake only to block on the lock. Past the
    // unlock a spurious wake-up may run the task and let drain() and
    // join() retire the worker, so this reference keeps it alive through
    // the notify.
    std::shared_ptr<Worker> worker;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++active_;
      // The longest-serving idle worker, so steady traffic stays on one.
      for (const auto& candidate : workers_) {
        if (!candidate->busy) {
          worker = candidate;
          break;
        }
      }
      if (worker == nullptr) worker = start_worker();
      worker->busy = true;
      worker->task = std::move(fn);
      worker->node = &node;
      worker->birth = birth;
    }
    worker->wake.notify_one();
  }

  /// Block until no task is running, tasks posted by tasks included.
  /// Never call drain() or join() from a task.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this] { return active_ == 0; });
  }

  /// drain(), then retire and join every worker. A later post() starts a
  /// fresh worker.
  void join() {
    drain();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!workers_.empty()) {  // newest first: the first one exits last
      std::shared_ptr<Worker> worker = std::move(workers_.back());
      workers_.pop_back();
      worker->retire = true;
      worker->wake.notify_one();
      lock.unlock();
      worker->thread.join();
      lock.lock();
    }
  }

  /// Workers started so far (tests: steady-state traffic starts none).
  std::size_t workers_started() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_started_;
  }

 private:
  struct Worker {
    std::condition_variable wake;
    // Set by post() under mutex_, then the worker's own until busy clears:
    // the task and its lane's birth stamp.
    std::function<void()> task;
    sim::Node* node = nullptr;
    usec_t birth = 0.0;
    bool busy = false;
    bool retire = false;
    std::thread thread;
  };

  /// Start an idle worker; the caller holds mutex_ or is the constructor.
  /// The thread itself holds no reference: join() holds one until the
  /// thread has exited, and a post() may hold one a little longer.
  std::shared_ptr<Worker> start_worker() {
    auto worker = std::make_shared<Worker>();
    workers_.push_back(worker);
    ++workers_started_;
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { work(*raw); });
    return worker;
  }

  void work(Worker& worker) {
    for (;;) {
      // The next task's lane map, allocated before the wait: a new worker
      // allocates at birth (see above).
      auto lanes = std::make_unique<sim::VirtualClock::LaneMap>();
      {
        std::unique_lock<std::mutex> lock(mutex_);
        worker.wake.wait(lock, [&] { return worker.task || worker.retire; });
        if (!worker.task) return;  // retired by join()
      }
      sim::VirtualClock::LaneMap* previous =
          sim::VirtualClock::exchange_lane_map(lanes.get());
      worker.node->clock().bind_lane(worker.birth);
      worker.task();
      worker.task = nullptr;  // captured state dies before drain() returns
      sim::VirtualClock::exchange_lane_map(previous);
      lanes.reset();  // the task's lanes expire with it
      std::lock_guard<std::mutex> lock(mutex_);
      worker.busy = false;
      if (--active_ == 0) drained_.notify_all();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable drained_;
  std::vector<std::shared_ptr<Worker>> workers_;
  std::size_t active_ = 0;  // tasks handed to a worker, not yet finished
  std::size_t workers_started_ = 0;
};

}  // namespace madmpi::marcel
