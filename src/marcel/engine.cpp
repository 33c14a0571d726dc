#include "marcel/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/status.hpp"
#include "sim/sched.hpp"
#include "sim/virtual_clock.hpp"

// ---- platform & sanitizer feature detection -------------------------------

#if defined(__x86_64__) && defined(__ELF__)
#define MADMPI_FIBER_ASM 1
#else
#define MADMPI_FIBER_ASM 0
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define MADMPI_ENGINE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MADMPI_ENGINE_ASAN 1
#endif
#endif
#ifndef MADMPI_ENGINE_ASAN
#define MADMPI_ENGINE_ASAN 0
#endif

#if defined(__SANITIZE_THREAD__)
#define MADMPI_ENGINE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MADMPI_ENGINE_TSAN 1
#endif
#endif
#ifndef MADMPI_ENGINE_TSAN
#define MADMPI_ENGINE_TSAN 0
#endif

#if MADMPI_ENGINE_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if MADMPI_ENGINE_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// ---- raw context switching ------------------------------------------------
//
// The x86-64 switcher saves exactly the System V callee-saved state (rbx,
// rbp, r12-r15, plus the MXCSR/x87 control words the ABI also classifies
// as callee-saved) onto the current stack, stores rsp through `save_sp`,
// and restores the mirror image from `load_sp`. A fresh fiber's stack is
// fabricated so that the first restore "returns" into madmpi_ctx_boot,
// which finds the Fiber pointer in rbx and calls the C++ entry.

extern "C" void madmpi_fiber_entry(void* fiber);

#if MADMPI_FIBER_ASM

extern "C" {
void madmpi_ctx_swap(void** save_sp, void* load_sp);
void madmpi_ctx_boot();
}

asm(R"(
.text
.align 16
.globl madmpi_ctx_swap
.type madmpi_ctx_swap, @function
madmpi_ctx_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  retq
.size madmpi_ctx_swap, .-madmpi_ctx_swap

.align 16
.globl madmpi_ctx_boot
.type madmpi_ctx_boot, @function
madmpi_ctx_boot:
  movq %rbx, %rdi
  callq madmpi_fiber_entry
  ud2
.size madmpi_ctx_boot, .-madmpi_ctx_boot
)");

#endif  // MADMPI_FIBER_ASM

namespace madmpi::marcel {

namespace {

struct Shard;

struct Fiber {
  enum class State : std::uint8_t { kRunnable, kParked, kDone };

  std::unique_ptr<std::byte[]> stack;
  std::size_t stack_size = 0;
  State state = State::kRunnable;
  std::function<void()> body;
  // Run by the worker once the fiber finished and was freed.
  std::function<void()> done;
  // Set while parked; evaluated by the shard worker each scan round. Must
  // take its own locks and never touch virtual-clock lanes.
  std::function<bool()> ready;
  // The fiber's causal lanes, installed around every run slice.
  sim::VirtualClock::LaneMap lanes;
  // Fiber-local storage (see fiber_local_slot): a few caller-owned
  // pointers, keyed by the registry in engine.hpp and destroyed right
  // after the body returns.
  void* user_slots[kFiberSlotCount] = {};
  void (*user_dtors[kFiberSlotCount])(void*) = {};
#if MADMPI_FIBER_ASM
  void* sp = nullptr;
#else
  ucontext_t ctx{};
#endif
#if MADMPI_ENGINE_TSAN
  void* tsan_fiber = nullptr;
#endif
#if MADMPI_ENGINE_ASAN
  void* asan_fake = nullptr;
#endif
};

// Per-worker-thread scheduler state. Fibers are pinned to one shard, so a
// fiber only ever observes the thread-locals of its own worker.
thread_local Fiber* t_current_fiber = nullptr;
#if MADMPI_FIBER_ASM
thread_local void* t_worker_sp = nullptr;
#else
thread_local ucontext_t t_worker_ctx;
#endif
#if MADMPI_ENGINE_TSAN
thread_local void* t_worker_tsan = nullptr;
#endif
#if MADMPI_ENGINE_ASAN
thread_local const void* t_worker_stack_bottom = nullptr;
thread_local std::size_t t_worker_stack_size = 0;
#endif

// The cross-engine wakeup channel: completion paths bump the epoch; idle
// shard workers sleep on the condition variable with a short timeout. The
// sleeper count lets engine_notify() skip the mutex when every worker is
// busy scanning anyway.
struct Notifier {
  std::mutex mutex;
  std::condition_variable cv;
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> sleepers{0};
};

Notifier& notifier() {
  static Notifier instance;
  return instance;
}

std::atomic<int> g_active_pools{0};

#if MADMPI_FIBER_ASM

void init_fiber_context(Fiber& fiber) {
  auto top = reinterpret_cast<std::uintptr_t>(fiber.stack.get()) +
             fiber.stack_size;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* slots = reinterpret_cast<std::uint64_t*>(top);
  slots[-1] = reinterpret_cast<std::uint64_t>(&madmpi_ctx_boot);
  slots[-2] = 0;                                          // rbp
  slots[-3] = reinterpret_cast<std::uint64_t>(&fiber);    // rbx
  slots[-4] = 0;                                          // r12
  slots[-5] = 0;                                          // r13
  slots[-6] = 0;                                          // r14
  slots[-7] = 0;                                          // r15
  // MXCSR + x87 control word slot: seed from the creating thread so the
  // fiber starts with the process's FP environment.
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  auto* fpu = reinterpret_cast<std::uint32_t*>(&slots[-8]);
  fpu[0] = mxcsr;
  std::memcpy(reinterpret_cast<std::byte*>(fpu) + 4, &fcw, sizeof fcw);
  fiber.sp = &slots[-8];
}

void raw_swap_to_fiber(Fiber& fiber) { madmpi_ctx_swap(&t_worker_sp, fiber.sp); }
void raw_swap_to_worker(Fiber& fiber) { madmpi_ctx_swap(&fiber.sp, t_worker_sp); }

#else

void init_fiber_context(Fiber& fiber) {
  MADMPI_CHECK(getcontext(&fiber.ctx) == 0);
  fiber.ctx.uc_stack.ss_sp = fiber.stack.get();
  fiber.ctx.uc_stack.ss_size = fiber.stack_size;
  fiber.ctx.uc_link = nullptr;
  // makecontext passes ints; smuggle the pointer through as two halves.
  const auto bits = reinterpret_cast<std::uintptr_t>(&fiber);
  makecontext(&fiber.ctx,
              reinterpret_cast<void (*)()>(
                  static_cast<void (*)(unsigned, unsigned)>(
                      [](unsigned lo, unsigned hi) {
                        const std::uintptr_t ptr =
                            (static_cast<std::uintptr_t>(hi) << 32) |
                            static_cast<std::uintptr_t>(lo);
                        madmpi_fiber_entry(reinterpret_cast<void*>(ptr));
                      })),
              2, static_cast<unsigned>(bits & 0xffffffffu),
              static_cast<unsigned>(bits >> 32));
}

void raw_swap_to_fiber(Fiber& fiber) {
  MADMPI_CHECK(swapcontext(&t_worker_ctx, &fiber.ctx) == 0);
}
void raw_swap_to_worker(Fiber& fiber) {
  MADMPI_CHECK(swapcontext(&fiber.ctx, &t_worker_ctx) == 0);
}

#endif  // MADMPI_FIBER_ASM

/// Fiber side: hand control back to the shard worker. `dying` marks the
/// final switch (the fiber's sanitizer stack is torn down, not saved).
void switch_to_worker(Fiber& fiber, bool dying) {
#if MADMPI_ENGINE_TSAN
  __tsan_switch_to_fiber(t_worker_tsan, 0);
#endif
#if MADMPI_ENGINE_ASAN
  __sanitizer_start_switch_fiber(dying ? nullptr : &fiber.asan_fake,
                                 t_worker_stack_bottom, t_worker_stack_size);
#else
  (void)dying;
#endif
  raw_swap_to_worker(fiber);
  // Resumed by the worker for another slice.
#if MADMPI_ENGINE_ASAN
  __sanitizer_finish_switch_fiber(fiber.asan_fake, &t_worker_stack_bottom,
                                  &t_worker_stack_size);
#endif
}

/// Worker side: run one slice of `fiber` — install its lanes, open a clock
/// batch, switch in, and unwind all of it when the fiber parks, yields or
/// finishes.
void resume_fiber(Fiber& fiber) {
  t_current_fiber = &fiber;
  sim::VirtualClock::LaneMap* previous =
      sim::VirtualClock::exchange_lane_map(&fiber.lanes);
  sim::VirtualClock::begin_batch();
#if MADMPI_ENGINE_TSAN
  __tsan_switch_to_fiber(fiber.tsan_fiber, 0);
#endif
#if MADMPI_ENGINE_ASAN
  void* worker_fake = nullptr;
  __sanitizer_start_switch_fiber(&worker_fake, fiber.stack.get(),
                                 fiber.stack_size);
#endif
  raw_swap_to_fiber(fiber);
#if MADMPI_ENGINE_ASAN
  __sanitizer_finish_switch_fiber(worker_fake, nullptr, nullptr);
#endif
  sim::VirtualClock::end_batch();
  sim::VirtualClock::exchange_lane_map(previous);
  t_current_fiber = nullptr;
}

std::unique_ptr<Fiber> make_fiber(std::size_t stack_bytes,
                                  std::function<void()> body,
                                  std::function<void()> done) {
  auto fiber = std::make_unique<Fiber>();
  fiber->stack_size = stack_bytes;
  // Default-init (not make_unique's value-init): zero-filling would touch
  // every page of every stack up front, committing count * stack_bytes of
  // real memory before any fiber runs. Left untouched, pages commit lazily
  // as stacks actually grow, which is what makes 1024 ranks affordable.
  fiber->stack.reset(new std::byte[stack_bytes]);
  fiber->body = std::move(body);
  fiber->done = std::move(done);
#if MADMPI_ENGINE_TSAN
  fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
  init_fiber_context(*fiber);
  return fiber;
}

}  // namespace

extern "C" void madmpi_fiber_entry(void* opaque) {
  Fiber* fiber = static_cast<Fiber*>(opaque);
#if MADMPI_ENGINE_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &t_worker_stack_bottom,
                                  &t_worker_stack_size);
#endif
  fiber->body();
  for (std::size_t key = 0; key < kFiberSlotCount; ++key) {
    if (fiber->user_slots[key] != nullptr &&
        fiber->user_dtors[key] != nullptr) {
      fiber->user_dtors[key](fiber->user_slots[key]);
      fiber->user_slots[key] = nullptr;
    }
  }
  fiber->state = Fiber::State::kDone;
  switch_to_worker(*fiber, /*dying=*/true);
  // A finished fiber is never resumed.
  std::abort();
}

EngineKind engine_kind_from_env() {
  const char* value = std::getenv("MADMPI_ENGINE");
  if (value == nullptr || *value == '\0' ||
      std::strcmp(value, "threaded") == 0) {
    return EngineKind::kThreaded;
  }
  if (std::strcmp(value, "sharded") == 0) return EngineKind::kSharded;
  MADMPI_LOG_WARN("marcel", "unknown MADMPI_ENGINE '%s'; using threaded",
                  value);
  return EngineKind::kThreaded;
}

std::size_t engine_shards_from_env() {
  if (const char* value = std::getenv("MADMPI_SHARDS");
      value != nullptr && *value != '\0') {
    const unsigned long long parsed = std::strtoull(value, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, std::max(1u, hw));
}

std::size_t engine_stack_bytes_from_env() {
  std::size_t kb = 1024;
  if (const char* value = std::getenv("MADMPI_FIBER_STACK_KB");
      value != nullptr && *value != '\0') {
    const unsigned long long parsed = std::strtoull(value, nullptr, 10);
    if (parsed >= 64) kb = static_cast<std::size_t>(parsed);
  }
  return kb * 1024;
}

bool on_fiber() { return t_current_fiber != nullptr; }

void** fiber_local_slot(std::size_t key, void (*dtor)(void*)) {
  MADMPI_CHECK(key < kFiberSlotCount);
  Fiber* fiber = t_current_fiber;
  if (fiber == nullptr) return nullptr;
  fiber->user_dtors[key] = dtor;
  return &fiber->user_slots[key];
}

void park_until(std::function<bool()> ready) {
  Fiber* fiber = t_current_fiber;
  MADMPI_CHECK_MSG(fiber != nullptr, "park_until() called off-fiber");
  if (ready()) return;
  fiber->ready = std::move(ready);
  fiber->state = Fiber::State::kParked;
  switch_to_worker(*fiber, /*dying=*/false);
}

void cooperative_yield() {
  Fiber* fiber = t_current_fiber;
  if (fiber == nullptr) {
    std::this_thread::yield();
    return;
  }
  switch_to_worker(*fiber, /*dying=*/false);
}

void engine_notify() {
  if (g_active_pools.load(std::memory_order_acquire) == 0) return;
  Notifier& wake = notifier();
  wake.epoch.fetch_add(1, std::memory_order_release);
  if (wake.sleepers.load(std::memory_order_acquire) > 0) {
    // Take (and drop) the mutex so the notify cannot slip between a
    // sleeper's predicate check and its wait.
    { std::lock_guard<std::mutex> guard(wake.mutex); }
    wake.cv.notify_all();
  }
}

struct FiberPool::Shard {
  // Adopted fibers, in adoption order: touched by the shard's worker only.
  std::vector<std::unique_ptr<Fiber>> fibers;
  // Spawned batches not adopted yet, oldest first, and the stop request;
  // under `mutex`.
  std::mutex mutex;
  std::deque<std::vector<std::unique_ptr<Fiber>>> spawned;
  bool stopping = false;
};

FiberPool::FiberPool(std::size_t shards, std::size_t stack_bytes)
    : stack_bytes_(std::max<std::size_t>(stack_bytes, 64 * 1024)) {
  MADMPI_CHECK_MSG(!on_fiber(), "nested fiber pools are not supported");
  shards_.resize(std::max<std::size_t>(1, shards));
  for (auto& shard : shards_) shard = std::make_unique<Shard>();
  g_active_pools.fetch_add(1, std::memory_order_acq_rel);
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { worker_main(*shards_[s], s); });
  }
}

FiberPool::~FiberPool() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->stopping = true;
  }
  engine_notify();
  for (auto& worker : workers_) worker.join();
  g_active_pools.fetch_sub(1, std::memory_order_acq_rel);
}

void FiberPool::spawn(std::vector<Task> batch) {
  std::vector<std::vector<std::unique_ptr<Fiber>>> per_shard(shards_.size());
  for (Task& task : batch) {
    per_shard[task.shard % shards_.size()].push_back(make_fiber(
        stack_bytes_, std::move(task.body), std::move(task.done)));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    std::lock_guard<std::mutex> lock(shards_[s]->mutex);
    shards_[s]->spawned.push_back(std::move(per_shard[s]));
  }
  engine_notify();
}

void FiberPool::run(std::size_t count,
                    const std::function<void(std::size_t)>& body) {
  MADMPI_CHECK_MSG(!on_fiber(), "FiberPool::run() called from a fiber");
  if (count == 0) return;
  std::mutex mutex;
  std::condition_variable finished;
  std::size_t left = count;
  std::vector<Task> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back({i, [&body, i] { body(i); },
                     [&] {
                       // Notify under the lock: the waiter owns `finished`.
                       std::lock_guard<std::mutex> lock(mutex);
                       if (--left == 0) finished.notify_all();
                     }});
  }
  spawn(std::move(batch));
  std::unique_lock<std::mutex> lock(mutex);
  finished.wait(lock, [&] { return left == 0; });
}

void FiberPool::worker_main(Shard& shard, std::size_t index) {
#if MADMPI_ENGINE_TSAN
  t_worker_tsan = __tsan_get_current_fiber();
#endif
  Notifier& wake = notifier();
  // The kFiberWake round number: it advances only on rounds that resumed
  // a fiber, so idle re-polls and adoption rounds never shift the seeded
  // scan origin.
  std::uint64_t round = 1;
  for (;;) {
    const std::uint64_t epoch_before =
        wake.epoch.load(std::memory_order_acquire);
    // Re-read the controller each round: sweeps install per-seed
    // controllers between runs, and the fiber-wake rotation must follow.
    auto* sched = sim::ScheduleController::current();
    bool progressed = false;
    bool finished = false;
    const std::size_t count = shard.fibers.size();
    const std::size_t origin =
        sched != nullptr ? sched->fiber_wake_start(index, round, count) : 0;
    for (std::size_t i = 0; i < count; ++i) {
      Fiber* fiber = shard.fibers[(origin + i) % count].get();
      if (fiber->state == Fiber::State::kParked) {
        if (!fiber->ready()) continue;
        fiber->ready = nullptr;
        fiber->state = Fiber::State::kRunnable;
      }
      resume_fiber(*fiber);
      progressed = true;
      finished |= fiber->state == Fiber::State::kDone;
    }
    if (finished) {
      // Reap in adoption order: free each finished fiber (its stack and
      // lanes), then tell its spawner.
      std::vector<std::function<void()>> done;
      std::erase_if(shard.fibers, [&done](std::unique_ptr<Fiber>& fiber) {
        if (fiber->state != Fiber::State::kDone) return false;
#if MADMPI_ENGINE_TSAN
        __tsan_destroy_fiber(fiber->tsan_fiber);
#endif
        if (fiber->done) done.push_back(std::move(fiber->done));
        fiber.reset();
        return true;
      });
      for (auto& callback : done) callback();
    }
    if (progressed) {
      ++round;
      continue;
    }
    // Nothing ran: adopt the oldest spawned batch, whole. One batch per
    // quiet round, so a batch spawned early (the pollers) has run before
    // the next one (the ranks) joins it, however late this worker started.
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (!shard.spawned.empty()) {
        for (auto& fiber : shard.spawned.front()) {
          shard.fibers.push_back(std::move(fiber));
        }
        shard.spawned.pop_front();
        continue;
      }
      if (shard.stopping && shard.fibers.empty()) return;
    }
    // Every fiber is parked with a false predicate: sleep until a
    // completion path bumps the epoch (or a short timeout re-polls, which
    // bounds any notify race without affecting correctness).
    wake.sleepers.fetch_add(1, std::memory_order_acq_rel);
    {
      std::unique_lock<std::mutex> lock(wake.mutex);
      wake.cv.wait_for(lock, std::chrono::microseconds(200), [&] {
        return wake.epoch.load(std::memory_order_acquire) != epoch_before;
      });
    }
    wake.sleepers.fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace madmpi::marcel
