// Marcel-like thread utilities.
//
// The paper relies on the Marcel user-level thread library for cheap thread
// creation (one temporary thread per MPI_Isend, per rendezvous reply), for
// blocking synchronization between polling threads and the MPI control
// thread, and for factorized network polling. Here Marcel's *cost profile*
// (fast create/wake/yield) is charged to the hosting node's virtual clock.
// Persistent threads (the pollers) are joinable Threads below; the
// temporary ones are helper tasks on the session's marcel::Executor
// (executor.hpp), which charges kCreate per task but reuses its workers.
#pragma once

#include <thread>
#include <utility>

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

/// A joinable thread bound to a simulated node. Creation charges the
/// Marcel thread-create cost to the node's clock.
class Thread {
 public:
  template <typename Fn>
  Thread(sim::Node& node, Fn&& fn) {
    // The new thread's causal birth time is the creator's lane after the
    // Marcel creation cost; bind it before running the body so the
    // thread's virtual time starts where its creator left off.
    const usec_t birth = node.clock().advance(ThreadCosts::kCreate);
    thread_ = std::thread([&node, birth, fn = std::forward<Fn>(fn)]() mutable {
      node.clock().bind_lane(birth);
      fn();
    });
  }

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() {
    if (thread_.joinable()) thread_.join();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

}  // namespace madmpi::marcel
