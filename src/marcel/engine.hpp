// The scale-out execution engine: run-to-completion fibers on shard workers.
//
// The paper's whole point in adopting Marcel is that MPI "threads" are
// user-level: thousands of logical flows multiplex onto a handful of
// kernel threads, and a blocked flow costs a parked continuation, not a
// kernel stack plus a scheduler entry. The default engine here still burns
// one OS thread per rank — faithful at 8 ranks, fatal at 1024. This module
// adds the Marcel-faithful alternative, gated behind MADMPI_ENGINE=sharded:
//
//  - Each rank body, and each network poller, runs on a stackful *fiber*
//    (x86-64 assembly context switch, ucontext elsewhere), pinned to one
//    of MADMPI_SHARDS worker threads (per-shard run queues, no work
//    stealing — a fiber's schedule depends only on its own shard). The
//    session's FiberPool lives as long as the session, so a poller-to-rank
//    hand-off is a fiber switch, as between Marcel threads (paper §3.3).
//  - Fibers run to completion or until they *park*: every blocking point
//    (semaphore P, posted-recv wait, credit dry, rendezvous ack, probe)
//    re-expresses itself as park_until(predicate). The shard worker scans
//    its fibers each round, re-evaluating predicates; the scan origin
//    rotates under the ScheduleController's kFiberWake choice point, so
//    wake order is seeded and replays deterministically.
//  - Each fiber owns a VirtualClock::LaneMap: its causal lanes follow it
//    across park/resume cycles, and each run slice opens a clock batch so
//    high-water publication is one CAS per touched clock per slice.
//  - Idle shards sleep on a process-wide notifier; completion paths call
//    engine_notify(), which is a relaxed load-and-skip when no sharded
//    engine is active (the threaded engine pays nothing).
//
// Parking protocol (the invariant every converted blocking point obeys):
// a fiber must hold NO locks when it parks, and its predicate must be
// safe to evaluate from the shard worker with no lanes installed — take
// the guarding mutex inside the predicate, never advance a virtual clock
// from it. Lost wakeups are impossible by construction: predicates are
// re-polled every scan round, and engine_notify() only shortens the sleep
// between rounds.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace madmpi::marcel {

/// Which execution engine a Session uses (read when it is built).
enum class EngineKind {
  kThreaded,  // one OS thread per rank (the historical default)
  kSharded,   // rank and poller fibers on the session's shard pool
};

/// Reads MADMPI_ENGINE ("threaded" | "sharded"; default threaded).
EngineKind engine_kind_from_env();

/// Reads MADMPI_SHARDS (default: min(4, hardware_concurrency), at least 1).
std::size_t engine_shards_from_env();

/// Reads MADMPI_FIBER_STACK_KB (default 1024 KiB per fiber).
std::size_t engine_stack_bytes_from_env();

/// True when the calling context is a fiber (so blocking points know to
/// park instead of blocking the worker thread).
bool on_fiber();

/// Park the current fiber until `ready()` returns true. Must be called
/// with no locks held; `ready` runs on the shard worker (possibly
/// concurrently with other threads mutating the watched state), so it must
/// take its own locks and must not touch virtual clocks' lanes. Returns
/// once `ready()` has been observed true; like a condition variable, the
/// caller re-checks its real predicate under its own lock afterwards.
/// Calling this off-fiber is a bug (asserts).
void park_until(std::function<bool()> ready);

/// Yield the rest of this slice: on a fiber, reschedules it behind its
/// shard siblings; on an OS thread, std::this_thread::yield(). The drop-in
/// replacement for yield-based completion polling loops.
void cooperative_yield();

/// Wake idle shard workers so freshly-satisfied predicates are re-polled
/// promptly. Near-free when no sharded engine is active; call it after any
/// state change a parked fiber might be waiting on (semaphore V, message
/// delivery, credit refill, lock grant, request completion).
void engine_notify();

/// Fiber-local storage keys. Any layer above marcel whose per-rank state
/// lives in a thread_local under the threaded engine needs one of these:
/// fibers from several ranks share one worker thread, so a plain
/// thread_local silently aliases across ranks. Keys are a closed registry
/// (marcel doesn't know the layers, but the slots must not collide):
inline constexpr std::size_t kFiberSlotCompat = 0;     // compat ThreadState
inline constexpr std::size_t kFiberSlotFtCapture = 1;  // ft error capture
inline constexpr std::size_t kFiberSlotBsend = 2;      // bsend buffer pool
inline constexpr std::size_t kFiberSlotCount = 4;

/// Fiber-local storage: on a fiber, returns the fiber's slot for `key` — a
/// single void* the caller may lazily fill — and records `dtor` to run
/// against a non-null slot when the fiber's body finishes. Off-fiber,
/// returns nullptr and the caller falls back to its thread_local.
void** fiber_local_slot(std::size_t key, void (*dtor)(void*));

/// Condition-variable-compatible wait that parks instead of blocking when
/// called on a fiber. `lock` must be held on entry and is held again on
/// return; `pred` is evaluated under `lock` exactly like cv.wait(lock,
/// pred).
template <typename Pred>
void engine_wait(std::unique_lock<std::mutex>& lock,
                 std::condition_variable& cv, Pred pred) {
  if (!on_fiber()) {
    cv.wait(lock, pred);
    return;
  }
  std::mutex* mutex = lock.mutex();
  while (!pred()) {
    lock.unlock();
    park_until([mutex, &pred] {
      std::lock_guard<std::mutex> guard(*mutex);
      return pred();
    });
    lock.lock();
  }
}

/// The sharded fiber pool: `shards` worker threads, each resuming the
/// fibers pinned to it (no work stealing: a fiber's schedule depends only
/// on its own shard). A sharded session owns one for its whole life; its
/// rank bodies and its pollers are all fibers of it.
///
/// Fibers arrive in batches (spawn). A shard adopts one spawned batch,
/// whole, on each round where none of its fibers ran, oldest first. The
/// kFiberWake scan origin advances only on rounds that resumed a fiber.
/// So idle re-polls and spawn timing leave the schedule alone, and one
/// shard replays exactly under a fixed seed.
class FiberPool {
 public:
  /// One fiber to spawn: `body` runs on shard `shard` modulo the shard
  /// count; `done` (optional) runs on the worker once the fiber finished
  /// and its stack and lanes are gone.
  struct Task {
    std::size_t shard = 0;
    std::function<void()> body;
    std::function<void()> done;
  };

  /// Start `shards` workers (at least one); fibers get `stack_bytes`
  /// stacks (at least 64 KiB).
  FiberPool(std::size_t shards, std::size_t stack_bytes);
  /// Waits for every fiber to finish, then stops and joins the workers.
  ~FiberPool();
  FiberPool(const FiberPool&) = delete;
  FiberPool& operator=(const FiberPool&) = delete;

  /// Spawn `batch` and return at once. Fibers are created here, on the
  /// caller, in batch order.
  void spawn(std::vector<Task> batch);

  /// Run body(i) for i in [0, count) as one batch, fiber i on shard i
  /// modulo the shard count, and return once every one of them finished.
  /// Never call it from a fiber.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  struct Shard;
  void worker_main(Shard& shard, std::size_t index);

  std::size_t stack_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
};

}  // namespace madmpi::marcel
