// The session's one executor: every OS thread the library starts for
// progress or helper work is one of its workers. Marcel's cost profile
// (ThreadCosts, paper §3.3) is charged to the node's virtual clock.
//
// Polling threads never send (paper §4.2.3), so the paper pushes each
// rendezvous reply and each MPI_Isend from a temporary Marcel thread. Its
// creator pays `cost` and the task runs on a fresh lane born at that stamp
// (run_as_thread). A task that never blocks runs so at once on the calling
// thread (run_here); one that may block (a send awaiting its ack) is
// post()ed to a reused worker, never queued behind a busy one. drain()
// waits for every posted task, including tasks posted by tasks; join()
// then retires the workers, so no helper outlives its owner.
//
// loop() runs a task that returns only when its source shuts down (a
// poller, the watchdog sweep) on a new worker of its own. drain() does not
// wait for it; its future does, and join() joins it with the others.
//
// One worker starts with the executor and allocates at once; join() ends
// it last, and loop() never takes it. glibc binds a thread to a malloc
// arena at its first allocation, preferring the arena of the thread that
// exited last, so over back-to-back sessions that worker, which runs the
// posted tasks, keeps one arena instead of leaving their allocations
// cached in the arenas of earlier pollers and ranks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/node.hpp"

namespace madmpi::marcel {

/// Virtual-time costs of Marcel operations (user-level threads are cheap:
/// the paper cites excellent creation/destruction/yield performance).
struct ThreadCosts {
  static constexpr usec_t kCreate = 2.0;     // spawn a temporary thread
  static constexpr usec_t kWake = 2.5;       // unblock + schedule a thread
  static constexpr usec_t kSemSignal = 0.5;  // semaphore V operation
};

/// Run `fn` as a newly spawned Marcel thread: under `lanes` (unused so
/// far), its lane on `node` (if any) born at `birth`; the caller's lane
/// map is restored after. The one way a task gets its lane.
template <typename Fn>
void run_as_thread(sim::VirtualClock::LaneMap& lanes, sim::Node* node,
                   usec_t birth, Fn&& fn) {
  sim::VirtualClock::LaneMap* previous =
      sim::VirtualClock::exchange_lane_map(&lanes);
  if (node != nullptr) node->clock().bind_lane(birth);
  fn();
  sim::VirtualClock::exchange_lane_map(previous);
}

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

  /// post() for a task that never blocks: the same charge and birth, but
  /// `fn` runs at once on the calling thread; no worker is involved.
  template <typename Fn>
  static void run_here(sim::Node& node, usec_t cost, Fn&& fn) {
    sim::VirtualClock::LaneMap lanes;
    run_as_thread(lanes, &node, node.clock().advance(cost), fn);
  }

  /// Run `fn` on a new worker until it returns. With a `node`, charge
  /// `cost` and bind the loop's lane as post() does; without, bind none.
  /// The future is ready once `fn` returned and its lanes expired.
  std::future<void> loop(std::function<void()> fn, sim::Node* node = nullptr,
                         usec_t cost = 0.0) {
    const usec_t birth = node != nullptr ? node->clock().advance(cost) : 0.0;
    std::promise<void> returned;
    std::future<void> future = returned.get_future();
    auto worker = std::make_shared<Worker>();
    worker->busy = true;  // post() never hands it a task
    std::lock_guard<std::mutex> lock(mutex_);
    workers_.push_back(worker);
    ++workers_started_;
    worker->thread = std::thread([node, birth, fn = std::move(fn),
                                  returned = std::move(returned)]() mutable {
      {
        sim::VirtualClock::LaneMap lanes;
        run_as_thread(lanes, node, birth, [&fn] {
          fn();
          fn = nullptr;  // captured state dies before the owner wakes
        });
      }
      returned.set_value();
    });
    return future;
  }

  /// Block until no post()ed task is running, tasks posted by tasks
  /// included; loops are not waited for. Never call drain() or join()
  /// from a task.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this] { return active_ == 0; });
  }

  /// drain(), then retire and join every worker, loops included: their
  /// sources must have shut down. A later post() starts a fresh worker.
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

  /// Workers started so far, loops included (tests: steady-state traffic
  /// starts none).
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
      run_as_thread(*lanes, worker.node, worker.birth, [&worker] {
        worker.task();
        worker.task = nullptr;  // captured state dies before drain() returns
      });
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
