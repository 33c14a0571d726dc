// The session's one executor: every OS thread the library starts for
// progress is one of its workers. Marcel's cost profile (ThreadCosts,
// paper §3.3) is charged to the node's virtual clock.
//
// Polling threads never send (paper §4.2.3), so the paper pushes each
// rendezvous reply and each MPI_Isend from a temporary Marcel thread. Here
// that thread lives in virtual time only: its creator pays `cost` and the
// task runs at once on the calling thread, on a fresh lane born at that
// stamp (run_here). Nothing that would block runs so: a rendezvous send
// injects its request in place and leaves its completion to the poller
// that pushes the data.
//
// loop() runs a task that returns only when its source shuts down (a
// poller, the watchdog sweep). A poller has a home node: under a sharded
// session (use_pool) it runs as a fiber on the shard of its node's first
// rank, scheduled beside the rank fibers as Marcel schedules its pollers
// beside the application's threads (paper §3.3). Everything else, and
// every loop of the threaded engine, gets a worker thread of its own. The
// future is ready once the task returned; join() joins every worker.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "marcel/engine.hpp"
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
  Executor() = default;
  ~Executor() { join(); }
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Charge `cost` to the caller's lane on `node`, then run `fn` at once on
  /// the calling thread under a fresh lane map, its lane on `node` born at
  /// the charged time: a temporary Marcel thread that never blocks.
  template <typename Fn>
  static void run_here(sim::Node& node, usec_t cost, Fn&& fn) {
    sim::VirtualClock::LaneMap lanes;
    run_as_thread(lanes, &node, node.clock().advance(cost), fn);
  }

  /// Run every loop with a home node as a fiber of `pool`, on shard
  /// `node_shards[node id]`. The pool must outlive those loops.
  void use_pool(FiberPool* pool, std::vector<std::size_t> node_shards) {
    pool_ = pool;
    node_shards_ = std::move(node_shards);
  }

  /// Run `fn` until it returns: as a fiber on `home`'s shard when a pool
  /// is in use, else on a new worker. With a `create_cost`, charge it to
  /// the creator's lane on `home` and bind the loop's lane there, as
  /// run_here() does; without, bind none. The future is ready once `fn`
  /// returned and its lanes expired.
  std::future<void> loop(std::function<void()> fn, sim::Node* home = nullptr,
                         std::optional<usec_t> create_cost = std::nullopt) {
    sim::Node* birth_node = create_cost.has_value() ? home : nullptr;
    const usec_t birth =
        birth_node != nullptr ? birth_node->clock().advance(*create_cost)
                              : 0.0;
    std::promise<void> returned;
    std::future<void> future = returned.get_future();
    if (pool_ != nullptr && home != nullptr) {
      // The fiber owns its lane map: bind straight into it.
      auto done = std::make_shared<std::promise<void>>(std::move(returned));
      pool_->spawn({{node_shards_.at(static_cast<std::size_t>(home->id())),
                     [birth_node, birth, fn = std::move(fn)]() mutable {
                       if (birth_node != nullptr) {
                         birth_node->clock().bind_lane(birth);
                       }
                       fn();
                       fn = nullptr;
                     },
                     [done] { done->set_value(); }}});
      return future;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++workers_started_;
    workers_.emplace_back([birth_node, birth, fn = std::move(fn),
                           returned = std::move(returned)]() mutable {
      {
        sim::VirtualClock::LaneMap lanes;
        run_as_thread(lanes, birth_node, birth, [&fn] {
          fn();
          fn = nullptr;  // captured state dies before the owner wakes
        });
      }
      returned.set_value();
    });
    return future;
  }

  /// Join every worker: their sources must have shut down. Never call it
  /// from a loop.
  void join() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!workers_.empty()) {
      std::thread worker = std::move(workers_.back());
      workers_.pop_back();
      lock.unlock();
      worker.join();
      lock.lock();
    }
  }

  /// Worker threads started so far; fiber loops start none (tests:
  /// steady-state traffic starts none either).
  std::size_t workers_started() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_started_;
  }

 private:
  FiberPool* pool_ = nullptr;
  std::vector<std::size_t> node_shards_;
  mutable std::mutex mutex_;
  std::vector<std::thread> workers_;
  std::size_t workers_started_ = 0;
};

}  // namespace madmpi::marcel
