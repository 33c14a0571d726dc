// Per-rank message matching: the posted-receive and unexpected-message
// queues of the generic ADI ("request queues management", paper Figure 1).
//
// Devices deliver inbound messages here; receives are posted here. Matching
// is on (context, source, tag) with MPI wildcard semantics, FIFO within a
// (context, source) pair — devices deliver in order per source, which
// preserves the MPI non-overtaking rule.
//
// Layout: both queues are sharded into per-(context, source) hash buckets,
// so the common case — a specific-source receive meeting a delivery —
// touches one bucket and one bucket lock, independent of how many other
// peers have traffic in flight. Wildcard (ANY_SOURCE) receives live in a
// separate rank-wide list; every queued entry carries a sequence number
// from one per-rank counter, and a lookup that has candidates in both
// structures takes the lower sequence number — exactly the entry the old
// flat arrival-order scan would have picked.
//
// Lock hierarchy (DESIGN.md §13): the rank-wide mutex_ is always taken
// before any bucket mutex, never after. Bucket-only paths: specific-source
// post/delivery/iprobe/improbe when no wildcard receive is queued.
// Rank-lock paths: wildcard posts and non-blocking probes, the one
// blocking-probe loop (probe and mprobe), the one posted-queue walk (every
// cancellation and min_ft_deadline) and watchdog installation. Deliveries
// detect queued wildcards via an atomic count read under the bucket lock
// (the wildcard poster increments it before touching any bucket, so the
// mutex ordering makes a lost match impossible) and upgrade to the rank
// lock.
//
// Each queue operation is written once (see the private helpers): one
// posted match, one posted append, one unexpected pop, one unexpected
// append, one posted-queue walk with one error-completion routine, and one
// blocking-probe loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/slab_pool.hpp"
#include "mpi/datatype.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/node.hpp"

namespace madmpi::mpi {

struct WinTarget;  // mpi/rma.hpp

/// A posted receive waiting for its message.
struct PostedRecv {
  int context = 0;
  rank_t source = kAnySource;
  int tag = kAnyTag;

  void* buffer = nullptr;          // user buffer (element layout)
  Datatype type = Datatype::byte();
  int count = 0;                   // max elements
  std::size_t capacity_bytes = 0;  // type.size() * count

  std::shared_ptr<RequestState> request;

  /// Global rank of the only sender this receive can match, or kInvalidRank
  /// for wildcard receives. The progress watchdog uses it to decide whether
  /// a receive can still complete (all routes to the peer dead => cancel).
  rank_t source_global = kInvalidRank;
  /// Virtual time at which the receive was posted (poster's lane). The
  /// watchdog stamps cancellations at posted_at + horizon so the error is
  /// observed a deterministic horizon after the post, independent of when
  /// the wall-clock watchdog sweep happened to fire.
  usec_t posted_at = 0.0;

  /// FT collectives: absolute virtual-time deadline. 0 = none. A receive
  /// carrying a deadline is cancelled by the watchdog once the whole
  /// session has made no virtual progress for a long stretch (the
  /// agreement protocol's safety valve against fault schedules the
  /// reachability oracle cannot prove dead); the cancellation is stamped
  /// at the deadline, keeping the error deterministic in virtual time.
  usec_t ft_deadline_us = 0.0;

  /// Post-order sequence number, assigned when the receive is queued.
  /// Lookups with candidates in both a bucket and the wildcard list pick
  /// the lower seq — the receive the flat arrival-order scan would match.
  std::uint64_t seq = 0;
};

/// The one receive placement every device uses: place `payload` (packed
/// wire bytes in the sender's byte order) into `posted` and return the
/// status the receive completes with. It charges nothing and completes
/// nothing; each caller keeps its own virtual charges.
///  - A payload longer than the buffer delivers the prefix that fits, and
///    one shorter than the envelope claims delivers what arrived; both
///    report kTruncated.
///  - Whole elements land through the type map. A ragged tail (a partial
///    element) lands raw at extent * elements.
///  - Big-endian wire data reaches the buffer in host order. A contiguous
///    type is copied, then swapped in place; any other type swaps one
///    pooled copy and unpacks that.
MpiStatus place_recv(const PostedRecv& posted, const Envelope& env,
                     byte_span payload);

/// Called when a rendezvous request finds (or is found by) its posted
/// receive: the device must send the OK_TO_SEND acknowledgement carrying
/// a handle onto `posted` (paper §4.2.2 step 2).
using RendezvousMatch = std::function<void(const Envelope&, PostedRecv)>;

/// Where an eager message's flow-control credits go once it is consumed
/// (copied into its user buffer). Devices with credit-based flow control
/// implement it to return credits to the sender only once the receiver
/// has actually drained the message.
class CreditSink {
 public:
  virtual void credit_consumed(node_id_t me, node_id_t origin,
                               std::size_t charge) = 0;

 protected:
  ~CreditSink() = default;
};

/// One eager message's credit release, run when the message is consumed.
/// Plain data rather than a std::function, so an eager delivery costs no
/// heap block. Empty (no sink) when the device keeps no credits.
struct EagerConsumed {
  CreditSink* sink = nullptr;
  node_id_t me = kInvalidNode;
  node_id_t origin = kInvalidNode;
  std::size_t charge = 0;

  explicit operator bool() const { return sink != nullptr; }
  void operator()() const { sink->credit_consumed(me, origin, charge); }
};

/// An unexpected message as the queues store it. Public only so a
/// MatchedMessage (MPI_Mprobe handle) can own one after removal; devices
/// never construct these directly.
struct UnexpectedMessage {
  Envelope env;
  ChunkRef payload;  // eager only: refcounted view of the stored bytes —
                     // either the delivering frame's own slab (zero-copy
                     // handoff) or a pool chunk staged on arrival
  bool rendezvous = false;
  RendezvousMatch on_match;        // rendezvous only
  EagerConsumed on_consumed;       // eager only; may be empty
  std::size_t charge = 0;          // bytes held against the budget
  /// Virtual time at which the message became available (the delivering
  /// thread's lane). A later-posted receive synchronizes to this before
  /// completing — the causal edge from delivery to matching.
  usec_t available_at = 0.0;
  /// Eager only: the delivering thread's lane when it found no receive
  /// posted, before it stored the payload.
  usec_t delivered_at = 0.0;
  /// Arrival-order sequence number (same counter as PostedRecv::seq).
  std::uint64_t seq = 0;
};

/// The handle MPI_Mprobe/MPI_Improbe return: owns the unexpected message
/// that was removed from the queues, so the follow-up mrecv() cannot race
/// any other receive for it. Dropping a valid handle without mrecv()
/// leaks the message (as the MPI standard's matched-probe semantics
/// require the message to be received).
class MatchedMessage {
 public:
  MatchedMessage() = default;
  MatchedMessage(MatchedMessage&& other) noexcept
      : message_(std::move(other.message_)), valid_(other.valid_) {
    other.valid_ = false;  // moved-from handles read as already received
  }
  MatchedMessage& operator=(MatchedMessage&& other) noexcept {
    message_ = std::move(other.message_);
    valid_ = other.valid_;
    other.valid_ = false;
    return *this;
  }
  MatchedMessage(const MatchedMessage&) = delete;
  MatchedMessage& operator=(const MatchedMessage&) = delete;

  bool valid() const { return valid_; }
  const Envelope& envelope() const { return message_.env; }

 private:
  friend class RankContext;
  UnexpectedMessage message_;
  bool valid_ = false;
};

/// One rank's matching engine.
class RankContext {
 public:
  RankContext(rank_t global_rank, sim::Node& node);

  RankContext(const RankContext&) = delete;
  RankContext& operator=(const RankContext&) = delete;

  rank_t global_rank() const { return global_rank_; }
  sim::Node& node() { return node_; }

  /// Post a receive. If an unexpected message already matches: an eager one
  /// is delivered on the spot (charging the bounce copy out of the
  /// unexpected store), a rendezvous one triggers its stored match
  /// callback. Otherwise the receive is queued.
  void post_recv(PostedRecv posted);

  /// Device entry: an eager message has arrived with its packed payload.
  /// If a posted receive matches, the payload is unpacked into the user
  /// buffer; otherwise it is copied into the unexpected queue. Either way
  /// one host copy is charged — the paper's "intermediary copy on the
  /// receiving side" that defines the eager mode (§4.1). The caller must
  /// have synchronized the node clock with the arrival already.
  /// `on_consumed` (optional) runs outside the queue lock when the payload
  /// is being drained into a user buffer — immediately on a match, or when
  /// a later receive drains it from the unexpected store. It runs *before*
  /// the receive request completes: credit returns hooked here must be in
  /// flight (and accounted for) before the application can observe the
  /// receive and initiate shutdown, or the returning packet races the
  /// termination drain and its credits evaporate.
  /// `backing` (optional) is a chunk reference covering `payload`: when
  /// given and the message goes unexpected, the store keeps the reference
  /// instead of copying the bytes — the zero-copy handoff from the device's
  /// receive path. Without it the store stages through the slab pool.
  void deliver_eager(const Envelope& env, byte_span payload,
                     EagerConsumed on_consumed = {}, ChunkRef backing = {});

  /// Device entry: a rendezvous request has arrived. If a posted receive
  /// matches, `on_match` runs immediately (on the delivering thread);
  /// otherwise it is stored and runs when a matching receive is posted.
  void deliver_rendezvous(const Envelope& env, RendezvousMatch on_match);

  /// MPI_Iprobe: matching unexpected envelope, if any.
  bool iprobe(int context, rank_t source, int tag, MpiStatus* status);

  /// MPI_Probe: block until a matching message is available.
  /// `source_global` is the probed peer's global rank (kInvalidRank for
  /// wildcard probes): when a watchdog is installed and the peer becomes
  /// unreachable, the probe returns with `status->error` set instead of
  /// waiting forever.
  void probe(int context, rank_t source, int tag, rank_t source_global,
             MpiStatus* status);

  // ---- Matched probe (MPI_Mprobe / MPI_Improbe / MPI_Mrecv) ----------

  /// MPI_Improbe: remove the earliest matching unexpected message and
  /// return it in `message`. False (and `message` left invalid) when no
  /// unexpected message matches right now. Unlike iprobe, a successful
  /// improbe *consumes* the queue entry: only mrecv() can complete it,
  /// which closes the probe-then-recv race.
  bool improbe(int context, rank_t source, int tag, MatchedMessage* message,
               MpiStatus* status);

  /// MPI_Mprobe: block until a matching message is available, then remove
  /// and return it. Watchdog-aware exactly like probe(): an unreachable
  /// specific peer sets `status->error` and leaves `message` invalid.
  void mprobe(int context, rank_t source, int tag, rank_t source_global,
              MatchedMessage* message, MpiStatus* status);

  /// MPI_Mrecv: deliver a matched message into `posted` (which carries the
  /// buffer, datatype and request). Eager payloads are unpacked here with
  /// the same credit-before-completion ordering as post_recv; a matched
  /// rendezvous request fires its stored acknowledgement action.
  void mrecv(MatchedMessage message, PostedRecv posted);

  // ---- Bounded unexpected store -------------------------------------
  //
  // The store budget caps the *bytes* the unexpected queue may buffer.
  // Senders ask admit_eager() before an eager transfer; refusal means
  // "retry as rendezvous" (which buffers nothing until the receive
  // posts). Each entry is charged its payload plus a fixed overhead so a
  // storm of zero-byte messages is bounded too.

  static constexpr std::size_t kUnexpectedEntryOverhead = 64;

  /// Set the byte budget for the unexpected store. 0 means unlimited
  /// (the default, so directly-constructed contexts in tests keep the
  /// pre-budget behaviour).
  void set_unexpected_budget(std::size_t bytes);
  std::size_t unexpected_budget() const;

  /// Reserve room for an inbound eager message of `bytes` payload.
  /// Returns false (and counts a refusal) if the store cannot take it.
  /// Reservations are released by the matching deliver_eager().
  bool admit_eager(std::size_t bytes);

  /// Drop a reservation whose eager send failed before delivery.
  void release_eager_admission(std::size_t bytes);

  /// Counters for tests/diagnostics — O(1), maintained at queue
  /// transitions (they feed hot test oracles and the watchdog
  /// fingerprint; recomputing them under a lock was a scan per call).
  std::size_t posted_count() const {
    return posted_count_.load(std::memory_order_relaxed);
  }
  std::size_t unexpected_count() const {
    return unexpected_count_.load(std::memory_order_relaxed);
  }
  std::size_t unexpected_bytes() const {
    return stored_.load(std::memory_order_relaxed);
  }
  std::size_t unexpected_bytes_high_water() const {
    return stored_high_water_.load(std::memory_order_relaxed);
  }
  std::uint64_t eager_refused() const {
    return eager_refused_.load(std::memory_order_relaxed);
  }

  // ---- Progress watchdog hooks --------------------------------------

  /// Install the watchdog's failure detector: `unreachable(peer)` answers
  /// whether `peer` (global rank) can still reach this rank. `horizon` is
  /// the virtual-time grace period granted to an operation before a dead
  /// peer cancels it.
  void set_watchdog(usec_t horizon,
                    std::function<bool(rank_t)> unreachable);

  /// Cancel every posted receive whose (non-wildcard) peer the watchdog's
  /// failure detector reports unreachable. Each canceled request completes
  /// with `code`, stamped at posted_at + horizon. Returns how many were
  /// canceled.
  std::size_t cancel_unreachable(ErrorCode code);

  /// Earliest ft_deadline_us among posted receives, or 0 when none carry
  /// one. The watchdog uses the global minimum across all ranks to pick
  /// the stall-cancel cohort.
  usec_t min_ft_deadline() const;

  /// Cancel every posted receive carrying an ft_deadline_us at or below
  /// `before_deadline_us`. Called by the watchdog only after a sustained
  /// global stall (Session::kFtStallSweeps) — the FT agreement safety
  /// valve. The window restricts each stall round to the globally oldest
  /// cohort of deadline receives: cancelling only the operation that is
  /// actually stuck lets a lagging rank catch up without poisoning newer
  /// collectives other ranks are blocked in behind it. Each cancellation
  /// completes with `code`, stamped at the deadline.
  std::size_t cancel_expired(ErrorCode code, usec_t before_deadline_us);

  /// Cancel every posted receive on `context` with `code` (communicator
  /// revocation): the revoking rank interrupts peers blocked in
  /// operations on the revoked communicator. Stamped at posted_at — the
  /// revocation is an external event, not a timeout.
  std::size_t cancel_context(int context, ErrorCode code);

  /// Wake any blocked probe loops so they re-evaluate reachability.
  void notify_waiters();

  /// MPI_Cancel on a receive: remove the posted receive owned by
  /// `request` and complete it with ErrorCode::kCancelled. False when no
  /// such receive is queued (it already matched — cancellation lost the
  /// race and the receive completes normally).
  bool cancel_posted(const RequestState* request);

  // --- One-sided windows (RMA) ---------------------------------------
  // The target-side state of every window this rank currently exposes,
  // keyed by the collectively-derived window id. Registration happens on
  // the rank's own thread (Win::create/free); lookup happens on the
  // device polling thread resolving incoming RMA packets — off the
  // matcher locks entirely, on a reader/writer lock of their own.

  void register_window(std::uint64_t win_id, WinTarget* target);
  void unregister_window(std::uint64_t win_id);
  WinTarget* find_window(std::uint64_t win_id);

 private:
  /// Both queues for one (context, source) pair, in arrival/post order —
  /// each deque is seq-sorted because entries are appended under the
  /// bucket lock with the seq assigned inside the critical section.
  struct KeyQueues {
    std::deque<PostedRecv> posted;
    std::deque<UnexpectedMessage> unexpected;
  };

  struct Bucket {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, KeyQueues> keys;
  };

  /// A wildcard-source candidate found during a bucket sweep: enough to
  /// re-find the entry after dropping the bucket lock (iterators don't
  /// survive concurrent appends; the entry itself does — only the rank's
  /// own thread removes unexpected entries).
  struct UnexpectedHit {
    Bucket* bucket = nullptr;
    std::uint64_t key = 0;
    Envelope env;
    usec_t available_at = 0.0;
    std::uint64_t seq = 0;
    bool found = false;
  };

  static bool matches(const PostedRecv& posted, const Envelope& env) {
    return posted.context == env.context &&
           (posted.source == kAnySource || posted.source == env.src) &&
           (posted.tag == kAnyTag || posted.tag == env.tag);
  }

  static std::uint64_t key_of(int context, rank_t src) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(context))
            << 32) ^
           static_cast<std::uint32_t>(src);
  }

  Bucket& bucket_of(std::uint64_t key);

  /// Place `payload` into the posted buffer (place_recv) and complete its
  /// request, charging the byte-order conversion when the sender's wire
  /// format differs from this node's (the ADI's heterogeneity management).
  void finish_recv(const PostedRecv& posted, const Envelope& env,
                   byte_span payload);

  // ---- Posted queue: match, append, sweep ----

  /// Remove and return the earliest-posted receive matching `env`.
  /// On a miss, returns false with `bucket_lock` (and `rank_lock`, when
  /// wildcards forced the slow path) still held and `queues` pointing at
  /// the envelope's KeyQueues — the caller appends its unexpected entry
  /// inside the same critical section, so a concurrent post cannot slip
  /// between the miss and the append.
  bool take_matching_posted(const Envelope& env,
                            std::unique_lock<std::mutex>& rank_lock,
                            std::unique_lock<std::mutex>& bucket_lock,
                            KeyQueues** queues, PostedRecv* out);

  /// Queue `posted` with the next seq. The caller holds the queue's lock
  /// (its bucket's for a specific source, mutex_ for the wildcard list).
  void append_posted(std::deque<PostedRecv>& queue, PostedRecv&& posted);

  /// The one walk over every posted receive (all buckets, then the
  /// wildcard list) under mutex_ and each bucket lock in turn. Removes
  /// the receives `remove` selects and returns them in post order, with
  /// wildcard_count_ and posted_count_ already lowered. `remove` runs
  /// under the queue locks, so it must not consult the failure detector;
  /// one that never selects makes this the locked read-only walk.
  template <typename Remove>
  std::vector<PostedRecv> sweep_posted(Remove remove);

  /// Complete swept receives in order with `code`, each on the lane
  /// `stamp(posted)` returns (the cancel's deterministic observation
  /// time), traced as `label`. Returns how many were completed.
  template <typename Stamp>
  std::size_t fail_posted(std::vector<PostedRecv> victims, ErrorCode code,
                          const char* label, Stamp stamp);

  // ---- Unexpected queue: peek, pop, append, consume ----

  /// Lowest-seq unexpected entry matching `pattern`, without removing it.
  /// Wildcard-source patterns sweep every bucket and REQUIRE mutex_ held
  /// by the caller (so no wildcard post races the sweep).
  UnexpectedHit peek_unexpected(const PostedRecv& pattern);

  /// Pop the first entry of one key's seq-sorted `queue` matching
  /// `pattern`, lowering unexpected_count_ and the stored bytes; adds the
  /// entries scanned to `steps`. The caller holds the queue's bucket lock.
  bool pop_unexpected(std::deque<UnexpectedMessage>& queue,
                      const PostedRecv& pattern, UnexpectedMessage* out,
                      std::uint64_t& steps);

  /// Remove the lowest-seq matching unexpected entry. Same locking
  /// contract as peek_unexpected.
  bool take_unexpected(const PostedRecv& pattern, UnexpectedMessage* out);

  /// Shared tail of deliver_eager and deliver_rendezvous after a posted
  /// miss: queue `message` with the next seq inside the miss's critical
  /// section, release both locks, then wake probe waiters — only when
  /// one is registered, so common deliveries skip the rank lock.
  void append_unexpected(UnexpectedMessage&& message, KeyQueues* queues,
                         std::unique_lock<std::mutex>& rank_lock,
                         std::unique_lock<std::mutex>& bucket_lock);

  /// Deliver a drained unexpected entry into `posted` (shared tail of
  /// post_recv and mrecv): causal clock edge, copy charge, credits
  /// before completion.
  void consume_unexpected(UnexpectedMessage message, PostedRecv posted);

  // ---- Probes ----

  /// iprobe/improbe prologue: a wildcard-source scan needs mutex_ (no
  /// wildcard post may race its bucket sweep); a specific one runs on
  /// its bucket lock alone and gets an empty lock back.
  std::unique_lock<std::mutex> lock_for_source(rank_t source);

  /// A probe hit: synchronize to the entry's arrival and fill `status`.
  void observe(const Envelope& env, usec_t available_at, MpiStatus* status);

  /// improbe/mprobe hit: observe `taken` and move it into the handle.
  void hand_over(UnexpectedMessage taken, MatchedMessage* message,
                 MpiStatus* status);

  /// The blocking-probe loop of probe() and mprobe(), which differ only
  /// in `found` (peek versus take; it runs under mutex_). Registers as a
  /// waiter, parks a fiber or waits on the condvar between scans, and
  /// returns false with a kTimedOut `status` stamped at probe time plus
  /// the horizon once the watchdog reports `source_global` unreachable.
  template <typename Found>
  bool probe_wait(const PostedRecv& pattern, rank_t source_global,
                  MpiStatus* status, Found found);

  rank_t global_rank_;
  sim::Node& node_;

  /// Rank-wide lock: wildcard posted list, probe waits, posted-queue
  /// walks, watchdog installation. Always acquired BEFORE bucket locks.
  mutable std::mutex mutex_;
  std::condition_variable unexpected_arrived_;

  /// Buckets per rank, a power of two: a small per-rank footprint, yet
  /// essentially collision-free specific-source matching at 1024 ranks.
  static constexpr std::size_t kBuckets = 64;
  std::vector<Bucket> buckets_;  // kBuckets of them

  /// Wildcard-source posted receives, in post order (guarded by mutex_).
  std::deque<PostedRecv> wildcard_posted_;
  /// wildcard_posted_.size(), readable without mutex_. Incremented BEFORE
  /// the wildcard post scans any bucket; deliveries read it under their
  /// bucket lock — the bucket mutex's happens-before edge guarantees a
  /// delivery either sees the queued wildcard or the wildcard's sweep sees
  /// the delivered message (DESIGN.md §13).
  std::atomic<std::size_t> wildcard_count_{0};

  /// Threads blocked in probe()/mprobe(). Deliveries only take the rank
  /// lock + notify when this is nonzero; registered under mutex_ before
  /// the waiter's first scan, so the same bucket-lock edge that makes
  /// wildcard posts safe makes the wakeup safe.
  std::atomic<std::size_t> probe_waiters_{0};

  /// One counter feeds both posted and arrival sequence numbers; values
  /// are only ever compared within one kind.
  std::atomic<std::uint64_t> seq_{0};

  // O(1) mirrors of the queue sizes.
  std::atomic<std::size_t> posted_count_{0};
  std::atomic<std::size_t> unexpected_count_{0};

  // Store accounting, off the rank lock: stored_ counts bytes actually
  // buffered in unexpected queues; reserved_ counts admitted-but-not-yet-
  // delivered eager transfers. Both are charged payload + overhead. The
  // unexpected path adds to stored_ BEFORE releasing reserved_, so a
  // racing admit_eager only ever over-counts — the budget stays a bound.
  std::atomic<std::size_t> budget_{0};  // 0 = unlimited
  std::atomic<std::size_t> stored_{0};
  std::atomic<std::size_t> reserved_{0};
  std::atomic<std::size_t> stored_high_water_{0};
  std::atomic<std::uint64_t> eager_refused_{0};

  // Watchdog (set once at session start, before ranks run; mutex_).
  usec_t watchdog_horizon_ = 0.0;
  std::function<bool(rank_t)> peer_unreachable_;

  // One-sided windows exposed by this rank. Own reader/writer lock: the
  // lookups run on device polling threads and must not contend with the
  // matcher's locks.
  mutable std::shared_mutex win_mutex_;
  std::map<std::uint64_t, WinTarget*> windows_;
};

}  // namespace madmpi::mpi
