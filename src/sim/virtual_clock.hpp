// Per-node virtual clocks with per-thread lanes.
//
// Ranks and polling threads are real OS threads (ranks may be fibers),
// and temporary protocol threads run in place on them, but time is
// simulated. A naive single clock per node breaks
// causality under concurrency: a polling thread that synchronizes to a
// late arrival would inflate the departure timestamps of *independent*
// work other threads do on the same node (and the inflation depends on
// host scheduling — goodbye determinism).
//
// So each (thread, clock) pair owns a *lane*: the thread's causal time on
// that node. advance() and sync_to() act on the caller's lane; causal
// edges between threads are expressed explicitly — message arrival
// timestamps, semaphore release stamps, and bind_lane() at the birth of a
// thread or a temporary Marcel thread.
// The clock itself keeps a monotone high-water mark over all lanes, which
// is what external observers (tests, stats) read.
//
// lanes() exposes the live lanes themselves: the schedule-exploration
// harness and the progress watchdog use it to see whether *any* thread on
// a node is still advancing (a cheap progress fingerprint) instead of
// guessing from the high-water mark alone, which a single busy lane can
// pin while every other lane is stuck.
//
// Execution contexts and lanes: a lane belongs to an *execution context*,
// not to an OS thread. By default every OS thread owns one implicit
// context (a thread-local LaneMap), which reproduces the historical
// behavior exactly. The sharded fiber engine gives each rank fiber its own
// LaneMap and installs it for the duration of a run slice, so a fiber
// keeps its causal lanes when it migrates between park/resume cycles on a
// worker thread. While a slice runs the engine opens a *batch*: lane
// stores stay immediately visible (lanes() snapshots and fingerprints keep
// working mid-slice), but the high-water CAS is deferred to the end of the
// slice — one publication per touched clock per slice instead of one per
// advance. high_water() folds the caller's own unpublished lanes back in,
// so a context always observes its own progress.
//
// Each LaneMap remembers the last clock it looked up and that clock's slot,
// so the run of now()/advance()/sync_to() calls one message makes on one
// node's clock pays a single hash lookup. The first clock a map touches
// keeps its slot inline: a temporary Marcel thread (a credit return, an
// acknowledgement) touches one clock only, so its fresh map takes no hash
// node. A cached slot still goes through the generation check: a reset(),
// or a new clock built where a dead one lived, re-seeds the lane exactly as
// an uncached lookup would.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace madmpi::sim {

class VirtualClock {
 public:
  VirtualClock() = default;
  explicit VirtualClock(usec_t start) { reset(start); }

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  /// One live lane as seen by an observer: a process-unique id (stable for
  /// the lane's lifetime, so successive snapshots correlate) and the
  /// lane's current causal time.
  struct LaneInfo {
    std::uint64_t id = 0;
    usec_t time = 0.0;
  };

 private:
  struct Lane {
    std::atomic<usec_t> time{0.0};
    std::uint64_t generation = 0;
    std::uint64_t id = 0;
    // True while this lane's latest time awaits its deferred high-water
    // publication. Only ever touched by the worker thread currently
    // running the owning execution context, so it needs no atomicity.
    bool deferred = false;
  };

 public:
  /// One execution context's lanes across every clock it has touched. OS
  /// threads get an implicit one; the fiber engine owns one per fiber and
  /// installs it around each run slice; marcel::run_as_thread installs a
  /// fresh one per temporary Marcel thread and per executor loop.
  class LaneMap {
   public:
    LaneMap() = default;
    LaneMap(const LaneMap&) = delete;
    LaneMap& operator=(const LaneMap&) = delete;

   private:
    friend class VirtualClock;
    // The first clock touched and its slot, held inline; every other clock
    // has an entry in slots_.
    const VirtualClock* first_clock_ = nullptr;
    std::shared_ptr<Lane> first_slot_;
    std::unordered_map<const VirtualClock*, std::shared_ptr<Lane>> slots_;
    // The last clock looked up and its slot (first_slot_ or a node-based
    // slots_ entry, never erased, so the pointer stays valid).
    const VirtualClock* last_clock_ = nullptr;
    std::shared_ptr<Lane>* last_slot_ = nullptr;
    bool batching_ = false;
    // Lanes advanced during the open batch, awaiting high-water flush.
    std::vector<std::pair<const VirtualClock*, std::shared_ptr<Lane>>>
        deferred_;
  };

  /// Install `next` as the calling thread's active lane map (nullptr
  /// restores the thread's implicit map). Returns the previous override so
  /// callers can nest. Used by the fiber engine around run slices and by
  /// marcel::run_as_thread around each task.
  static LaneMap* exchange_lane_map(LaneMap* next) {
    LaneMap*& slot = active_override();
    LaneMap* prev = slot;
    slot = next;
    return prev;
  }

  /// Open a batch on the calling thread's active map: high-water
  /// publication is deferred until end_batch(). Lane stores remain
  /// immediately visible.
  static void begin_batch() { active_map().batching_ = true; }

  /// Close the batch: publish each touched clock's final lane time once.
  static void end_batch() {
    LaneMap& map = active_map();
    map.batching_ = false;
    for (auto& [clock, slot] : map.deferred_) {
      slot->deferred = false;
      clock->raise_high_water(slot->time.load(std::memory_order_relaxed));
    }
    map.deferred_.clear();
  }

  /// The calling context's causal time on this clock. A context's first
  /// touch adopts the current high-water mark (right for observers and
  /// sequential phases; causally-spawned threads use bind_lane instead).
  usec_t now() const {
    return lane_in(active_map())->time.load(std::memory_order_relaxed);
  }

  /// Charge `dt` microseconds of local work to the caller's lane.
  usec_t advance(usec_t dt) {
    LaneMap& map = active_map();
    const std::shared_ptr<Lane>& slot = lane_in(map);
    const usec_t t = slot->time.load(std::memory_order_relaxed) + dt;
    slot->time.store(t, std::memory_order_release);
    publish(map, slot, t);
    return t;
  }

  /// Move the caller's lane forward to at least `t` (message arrival,
  /// semaphore release stamp, ...). Never moves backwards.
  usec_t sync_to(usec_t t) {
    LaneMap& map = active_map();
    const std::shared_ptr<Lane>& slot = lane_in(map);
    const usec_t current = slot->time.load(std::memory_order_relaxed);
    if (current < t) {
      slot->time.store(t, std::memory_order_release);
      publish(map, slot, t);
      return t;
    }
    return current;
  }

  /// Set the caller's lane explicitly — used at thread spawn to hand the
  /// new thread its causal birth time.
  void bind_lane(usec_t t) {
    LaneMap& map = active_map();
    const std::shared_ptr<Lane>& slot = lane_in(map);
    slot->time.store(t, std::memory_order_release);
    publish(map, slot, t);
  }

  /// Largest time any lane has reached (what tests and stats observe).
  /// Folds in the caller's own batched-but-unpublished lane, so a context
  /// mid-slice always observes at least its own progress.
  usec_t high_water() const {
    usec_t hw = high_water_.load(std::memory_order_acquire);
    if (const LaneMap* map = active_override(); map && map->batching_) {
      const std::shared_ptr<Lane>* slot = nullptr;
      if (map->first_clock_ == this) {
        slot = &map->first_slot_;
      } else if (auto it = map->slots_.find(this); it != map->slots_.end()) {
        slot = &it->second;
      }
      if (slot != nullptr && *slot && (*slot)->deferred) {
        hw = std::max(hw, (*slot)->time.load(std::memory_order_relaxed));
      }
    }
    return hw;
  }

  /// Snapshot of every live lane of the current generation, sorted by lane
  /// id. Lanes of exited threads drop out (their shared state expires with
  /// the thread-local map); lanes from before the last reset() are
  /// filtered by generation. Times are racy reads of other threads' lanes
  /// — fine for progress detection, not for causal reasoning.
  std::vector<LaneInfo> lanes() const {
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    std::vector<LaneInfo> out;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    prune_registry();
    for (const std::weak_ptr<Lane>& lane : registry_) {
      std::shared_ptr<Lane> strong = lane.lock();
      if (!strong || strong->generation != generation) continue;
      out.push_back(
          {strong->id, strong->time.load(std::memory_order_acquire)});
    }
    std::sort(out.begin(), out.end(),
              [](const LaneInfo& a, const LaneInfo& b) { return a.id < b.id; });
    return out;
  }

  /// Restart from `t`: bumps the generation so every thread's stale lane
  /// reinitializes on next touch.
  void reset(usec_t t = 0.0) {
    high_water_.store(t, std::memory_order_release);
    generation_.store(fresh_generation(), std::memory_order_release);
  }

 private:
  /// The thread-local override installed by the fiber engine (nullptr when
  /// the thread runs its own implicit context).
  static LaneMap*& active_override() {
    thread_local LaneMap* override_map = nullptr;
    return override_map;
  }

  /// The calling thread's active lane map: the installed override, or the
  /// thread's implicit map.
  static LaneMap& active_map() {
    thread_local LaneMap implicit;
    LaneMap* override_map = active_override();
    return override_map != nullptr ? *override_map : implicit;
  }

  const std::shared_ptr<Lane>& lane_in(LaneMap& map) const {
    if (map.last_clock_ != this) {
      if (map.first_clock_ == nullptr) map.first_clock_ = this;
      map.last_slot_ =
          map.first_clock_ == this ? &map.first_slot_ : &map.slots_[this];
      map.last_clock_ = this;
    }
    std::shared_ptr<Lane>& slot = *map.last_slot_;
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    if (!slot || slot->generation != generation) {
      // A fresh Lane object per generation, not a reused one: dropping the
      // old shared_ptr expires its registry entry, so a reset() can never
      // leave one Lane registered twice.
      slot = std::make_shared<Lane>();
      slot->generation = generation;
      slot->id = fresh_lane_id();
      slot->time.store(high_water_.load(std::memory_order_acquire),
                       std::memory_order_release);
      std::lock_guard<std::mutex> lock(registry_mutex_);
      // Prune before the vector regrows, so the registry stays within
      // twice the most lanes ever live at once even when nothing calls
      // lanes() (a session without the watchdog): each expired
      // entry pins its lane's block (make_shared puts the control block
      // and the Lane in one), and every temporary Marcel thread adds one.
      if (registry_.size() == registry_.capacity()) prune_registry();
      registry_.push_back(slot);
    }
    return slot;
  }

  /// Drop the entries of lanes whose context ended (registry_mutex_ held).
  void prune_registry() const {
    std::erase_if(registry_, [](const std::weak_ptr<Lane>& lane) {
      return lane.expired();
    });
  }

  /// Publish a lane's new time: immediately outside a batch, deferred (one
  /// flush per clock per slice) inside one.
  void publish(LaneMap& map, const std::shared_ptr<Lane>& slot,
               usec_t t) const {
    if (map.batching_) {
      if (!slot->deferred) {
        slot->deferred = true;
        map.deferred_.push_back({this, slot});
      }
      return;
    }
    raise_high_water(t);
  }

  void raise_high_water(usec_t t) const {
    usec_t observed = high_water_.load(std::memory_order_relaxed);
    while (observed < t &&
           !high_water_.compare_exchange_weak(observed, t,
                                              std::memory_order_acq_rel)) {
    }
  }

  /// Process-unique generation numbers. Lanes are keyed by clock address in
  /// a thread-local map, and threads outlive clocks (the main thread builds
  /// one Session after another): if a new clock reused both the heap address
  /// *and* the generation of a dead one, a surviving thread's stale lane
  /// would be mistaken for current and its old time would bleed into the new
  /// simulation. Drawing every generation — initial or reset — from one
  /// process-wide counter makes that aliasing impossible.
  static std::uint64_t fresh_generation() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  static std::uint64_t fresh_lane_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Mutable: deferred batch flushes publish through const clock pointers.
  mutable std::atomic<usec_t> high_water_{0.0};
  std::atomic<std::uint64_t> generation_{fresh_generation()};
  mutable std::mutex registry_mutex_;
  mutable std::vector<std::weak_ptr<Lane>> registry_;
};

}  // namespace madmpi::sim

