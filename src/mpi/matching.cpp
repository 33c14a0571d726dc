#include "mpi/matching.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/datapath_stats.hpp"
#include "common/log.hpp"
#include "marcel/engine.hpp"
#include "sim/cost_model.hpp"
#include "sim/trace.hpp"

namespace madmpi::mpi {

namespace {

/// Fibonacci-style spread of the (context, source) key across buckets.
std::size_t bucket_index(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

void sub_clamped(std::atomic<std::size_t>& counter, std::size_t amount) {
  std::size_t current = counter.load(std::memory_order_relaxed);
  while (current != 0 && amount != 0 &&
         !counter.compare_exchange_weak(
             current, current - std::min(current, amount),
             std::memory_order_relaxed)) {
  }
}

void raise_high_water(std::atomic<std::size_t>& high_water,
                      std::size_t value) {
  std::size_t current = high_water.load(std::memory_order_relaxed);
  while (current < value &&
         !high_water.compare_exchange_weak(current, value,
                                           std::memory_order_relaxed)) {
  }
}

/// The (context, source, tag) triple a probe matches with.
PostedRecv pattern_of(int context, rank_t source, int tag) {
  PostedRecv pattern;
  pattern.context = context;
  pattern.source = source;
  pattern.tag = tag;
  return pattern;
}

/// Decrements the probe-waiter count on every exit path of probe/mprobe.
struct WaiterGuard {
  std::atomic<std::size_t>& waiters;
  ~WaiterGuard() { waiters.fetch_sub(1, std::memory_order_release); }
};

}  // namespace

RankContext::RankContext(rank_t global_rank, sim::Node& node)
    : global_rank_(global_rank),
      node_(node),
      buckets_(kBuckets) {}

RankContext::Bucket& RankContext::bucket_of(std::uint64_t key) {
  return buckets_[bucket_index(key, kBuckets - 1)];
}

MpiStatus place_recv(const PostedRecv& posted, const Envelope& env,
                     byte_span payload) {
  MpiStatus status;
  status.source = env.src;
  status.tag = env.tag;
  // A message longer than the posted buffer is an application error
  // (MPI_ERR_TRUNCATE), not a reason to abort the harness: per the MPI
  // spec the prefix that fits is delivered and the error travels on the
  // operation's status. A payload *shorter* than its envelope claims is
  // the mirror image — a malformed ragged tail (truncated unpack on the
  // wire): deliver what arrived and report the same error.
  if (env.bytes > posted.capacity_bytes || payload.size() < env.bytes) {
    status.error = ErrorCode::kTruncated;
    payload = payload.first(std::min(payload.size(), posted.capacity_bytes));
  }
  status.bytes = payload.size();
  if (payload.empty()) return status;

  // This is the mandatory final placement into the application buffer
  // (present identically in every MPI implementation), so it is excluded
  // from the staging-copy metric. Byte-order conversion covers the whole
  // payload, a ragged-tail partial element included: no wire-order byte
  // reaches the user buffer.
  const Datatype& type = posted.type;
  auto* buffer = static_cast<std::byte*>(posted.buffer);
  if (type.is_contiguous()) {
    // Wire layout == buffer layout: copy, then fix the byte order in place.
    std::memcpy(buffer, payload.data(), payload.size());
    if (env.sender_big_endian) type.swap_packed_bytes(buffer, payload.size());
    return status;
  }
  ChunkRef swapped;
  if (env.sender_big_endian) {
    // Swapping must not touch the wire bytes (a retransmit or the
    // unexpected store may still read them): stage the one mutable copy
    // through the pool.
    swapped = SlabPool::global().stage(payload);
    type.swap_packed_bytes(swapped.mutable_data(), payload.size());
    payload = swapped.span();
  }
  const std::size_t elem_size = type.size();
  if (elem_size == 0) return status;
  const std::size_t elements = payload.size() / elem_size;
  type.unpack(payload.data(), static_cast<int>(elements), buffer);
  if (const std::size_t tail = payload.size() % elem_size; tail != 0) {
    std::memcpy(buffer + type.extent() * elements,
                payload.data() + elements * elem_size, tail);
  }
  return status;
}

void RankContext::finish_recv(const PostedRecv& posted, const Envelope& env,
                              byte_span payload) {
  const MpiStatus status = place_recv(posted, env, payload);
  // The conversion pass is only *charged* when the two nodes genuinely
  // differ (a big-endian pair exchanges big-endian wire data for free).
  if (env.sender_big_endian != node_.big_endian() && status.bytes != 0) {
    node_.clock().advance(static_cast<double>(status.bytes) *
                          sim::kHostCopyUsPerByte);
  }
  sim::trace(node_.clock().now(), node_.id(), sim::TraceCategory::kComplete,
             status.bytes, "recv");
  RequestState::complete(posted.request, status);
}

// ---------------------------------------------------------------- lookups

bool RankContext::take_matching_posted(
    const Envelope& env, std::unique_lock<std::mutex>& rank_lock,
    std::unique_lock<std::mutex>& bucket_lock, KeyQueues** queues,
    PostedRecv* out) {
  auto& stats = DatapathStats::global();
  const std::uint64_t key = key_of(env.context, env.src);
  Bucket& bucket = bucket_of(key);
  bucket_lock = std::unique_lock<std::mutex>(bucket.mutex);
  stats.count_match_bucket_lock();
  // The wildcard poster increments wildcard_count_ *before* taking any
  // bucket lock, so reading it under ours is race-free: either we see the
  // count and upgrade, or the poster's later sweep of this bucket sees
  // whatever we append (DESIGN.md §13).
  if (wildcard_count_.load(std::memory_order_acquire) != 0) {
    bucket_lock.unlock();
    rank_lock = std::unique_lock<std::mutex>(mutex_);
    stats.count_match_rank_lock();
    bucket_lock.lock();
    stats.count_match_bucket_lock();
  }

  std::uint64_t steps = 0;
  const auto first_match = [&env, &steps](std::deque<PostedRecv>& queue) {
    auto scan = queue.begin();
    for (; scan != queue.end(); ++scan) {
      ++steps;
      if (matches(*scan, env)) break;
    }
    return scan;
  };
  KeyQueues& key_queues = bucket.keys[key];  // single lookup; the miss
                                             // path appends here anyway
  std::deque<PostedRecv>* bucket_queue = &key_queues.posted;
  const auto bucket_hit = first_match(*bucket_queue);
  const auto wildcard_hit = rank_lock.owns_lock()
                                ? first_match(wildcard_posted_)
                                : wildcard_posted_.end();
  stats.count_match_attempt(steps);

  const bool bucket_found = bucket_hit != bucket_queue->end();
  const bool wildcard_found = wildcard_hit != wildcard_posted_.end();
  if (!bucket_found && !wildcard_found) {
    *queues = &key_queues;
    return false;
  }
  // Both structures have a candidate: the lower post seq is the receive
  // the flat arrival-order scan would have matched (FIFO non-overtaking).
  if (bucket_found &&
      (!wildcard_found || bucket_hit->seq < wildcard_hit->seq)) {
    *out = std::move(*bucket_hit);
    bucket_queue->erase(bucket_hit);
  } else {
    *out = std::move(*wildcard_hit);
    wildcard_posted_.erase(wildcard_hit);
    wildcard_count_.fetch_sub(1, std::memory_order_release);
  }
  posted_count_.fetch_sub(1, std::memory_order_relaxed);
  bucket_lock.unlock();
  if (rank_lock.owns_lock()) rank_lock.unlock();
  return true;
}

RankContext::UnexpectedHit RankContext::peek_unexpected(
    const PostedRecv& pattern) {
  auto& stats = DatapathStats::global();
  UnexpectedHit hit;
  std::uint64_t steps = 0;
  const auto record = [&hit](Bucket& bucket, std::uint64_t key,
                             const UnexpectedMessage& message) {
    hit = UnexpectedHit{&bucket, key, message.env, message.available_at,
                        message.seq, true};
  };
  if (pattern.source != kAnySource) {
    const std::uint64_t key = key_of(pattern.context, pattern.source);
    Bucket& bucket = bucket_of(key);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    stats.count_match_bucket_lock();
    auto it = bucket.keys.find(key);
    if (it != bucket.keys.end()) {
      for (const UnexpectedMessage& message : it->second.unexpected) {
        ++steps;
        if (matches(pattern, message.env)) {
          record(bucket, key, message);
          break;
        }
      }
    }
    stats.count_match_attempt(steps);
    return hit;
  }
  // Wildcard source: sweep every bucket (mutex_ held by the caller, so no
  // wildcard post races us) and keep the lowest-seq candidate. Within one
  // key the deque is seq-sorted, so the first match per key suffices.
  for (Bucket& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mutex);
    stats.count_match_bucket_lock();
    for (auto& [key, queues] : bucket.keys) {
      for (const UnexpectedMessage& message : queues.unexpected) {
        ++steps;
        if (!matches(pattern, message.env)) continue;
        if (!hit.found || message.seq < hit.seq) record(bucket, key, message);
        break;  // later entries for this key have higher seqs
      }
    }
  }
  stats.count_match_attempt(steps);
  return hit;
}

bool RankContext::pop_unexpected(std::deque<UnexpectedMessage>& queue,
                                 const PostedRecv& pattern,
                                 UnexpectedMessage* out,
                                 std::uint64_t& steps) {
  for (auto scan = queue.begin(); scan != queue.end(); ++scan) {
    ++steps;
    if (!matches(pattern, scan->env)) continue;
    *out = std::move(*scan);
    queue.erase(scan);
    unexpected_count_.fetch_sub(1, std::memory_order_relaxed);
    sub_clamped(stored_, out->charge);
    return true;
  }
  return false;
}

bool RankContext::take_unexpected(const PostedRecv& pattern,
                                  UnexpectedMessage* out) {
  auto& stats = DatapathStats::global();
  std::uint64_t steps = 0;
  if (pattern.source != kAnySource) {
    const std::uint64_t key = key_of(pattern.context, pattern.source);
    Bucket& bucket = bucket_of(key);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    stats.count_match_bucket_lock();
    auto it = bucket.keys.find(key);
    const bool found = it != bucket.keys.end() &&
                       pop_unexpected(it->second.unexpected, pattern, out,
                                      steps);
    stats.count_match_attempt(steps);
    return found;
  }
  // Wildcard source (mutex_ held by the caller): find the global
  // lowest-seq candidate, then re-lock its bucket to pop it. The entry
  // cannot vanish in between — only this rank's own thread removes
  // unexpected entries — and it stays the first match of its key's
  // seq-sorted deque. The peek already counted the attempt.
  UnexpectedHit hit = peek_unexpected(pattern);
  if (!hit.found) return false;
  std::lock_guard<std::mutex> lock(hit.bucket->mutex);
  stats.count_match_bucket_lock();
  const bool popped =
      pop_unexpected(hit.bucket->keys[hit.key].unexpected, pattern, out,
                     steps);
  MADMPI_CHECK_MSG(popped, "matched unexpected entry vanished mid-take");
  return popped;
}

void RankContext::consume_unexpected(UnexpectedMessage message,
                                     PostedRecv posted) {
  // Causal edge: the match cannot happen before the message was
  // delivered, whatever the posting thread's own lane says.
  node_.clock().sync_to(message.available_at);
  if (message.rendezvous) {
    // Late receive for an early rendezvous request: fire the stored
    // acknowledgement action (paper §4.2.2, step 2).
    message.on_match(message.env, std::move(posted));
    return;
  }
  // Virtual order picks the charge, whichever host thread won the race: a
  // receive posted no later than the delivery would have been matched
  // there and then, so only a message that arrived first pays the copy
  // out of the store.
  if (posted.posted_at > message.delivered_at) {
    node_.clock().advance(static_cast<double>(message.payload.size()) *
                          sim::kHostCopyUsPerByte);
  }
  // Credits first, completion second: once finish_recv() completes the
  // request the application may reach finalize() and close the channels,
  // so the credit return must have left by then.
  if (message.on_consumed) message.on_consumed();
  finish_recv(posted, message.env, message.payload.span());
}

void RankContext::append_posted(std::deque<PostedRecv>& queue,
                                PostedRecv&& posted) {
  posted.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  queue.push_back(std::move(posted));
  DatapathStats::global().note_match_posted_depth(
      posted_count_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void RankContext::append_unexpected(UnexpectedMessage&& message,
                                    KeyQueues* queues,
                                    std::unique_lock<std::mutex>& rank_lock,
                                    std::unique_lock<std::mutex>& bucket_lock) {
  message.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  queues->unexpected.push_back(std::move(message));
  DatapathStats::global().note_match_unexpected_depth(
      unexpected_count_.fetch_add(1, std::memory_order_relaxed) + 1);
  bucket_lock.unlock();
  if (rank_lock.owns_lock()) rank_lock.unlock();
  // Only when a probe loop is actually waiting (common deliveries skip the
  // rank lock and the notify entirely).
  if (probe_waiters_.load(std::memory_order_acquire) == 0) return;
  // Serialize with the waiter's scan-to-wait transition: a prober that
  // missed our append registered itself before scanning, so we see its
  // count; locking the rank mutex here means it has reached the condvar
  // (or the park) before our notify fires.
  { std::lock_guard<std::mutex> lock(mutex_); }
  notify_waiters();
}

// ------------------------------------------------------------------ post

void RankContext::post_recv(PostedRecv posted) {
  if (posted.source != kAnySource) {
    // Scan-or-queue happens inside ONE bucket critical section: a delivery
    // that misses the posted queue appends its unexpected entry under the
    // same lock, so post and delivery can never both miss each other.
    const std::uint64_t key = key_of(posted.context, posted.source);
    Bucket& bucket = bucket_of(key);
    auto& stats = DatapathStats::global();
    std::unique_lock<std::mutex> lock(bucket.mutex);
    stats.count_match_bucket_lock();
    auto& queues = bucket.keys[key];
    std::uint64_t steps = 0;
    UnexpectedMessage message;
    const bool found =
        pop_unexpected(queues.unexpected, posted, &message, steps);
    stats.count_match_attempt(steps);
    if (found) {
      lock.unlock();
      consume_unexpected(std::move(message), std::move(posted));
    } else {
      append_posted(queues.posted, std::move(posted));
    }
    return;
  }

  // Wildcard source: rank lock for the whole post. The count is raised
  // BEFORE any bucket is inspected — a delivery that finds its bucket
  // posted-queue empty while we are mid-sweep reads a nonzero count under
  // its bucket lock and upgrades to the rank lock, where it blocks until
  // this post either matched or queued itself. No lost match either way.
  std::unique_lock<std::mutex> lock(mutex_);
  DatapathStats::global().count_match_rank_lock();
  wildcard_count_.fetch_add(1, std::memory_order_release);
  UnexpectedMessage message;
  if (take_unexpected(posted, &message)) {
    wildcard_count_.fetch_sub(1, std::memory_order_release);
    lock.unlock();
    consume_unexpected(std::move(message), std::move(posted));
    return;
  }
  append_posted(wildcard_posted_, std::move(posted));
}

// -------------------------------------------------------------- delivery

void RankContext::deliver_eager(const Envelope& env, byte_span payload,
                                EagerConsumed on_consumed, ChunkRef backing) {
  const std::size_t charge = payload.size() + kUnexpectedEntryOverhead;
  std::unique_lock<std::mutex> rank_lock;
  std::unique_lock<std::mutex> bucket_lock;
  KeyQueues* queues = nullptr;
  PostedRecv posted;
  if (take_matching_posted(env, rank_lock, bucket_lock, &queues, &posted)) {
    // The sender's admission reserved room for this message; an immediate
    // match releases the reservation outright. Clamped: directly-driven
    // contexts (unit tests, self-sends) deliver without admitting first.
    sub_clamped(reserved_, charge);
    node_.clock().advance(static_cast<double>(payload.size()) *
                          sim::kHostCopyUsPerByte);
    sim::trace(node_.clock().now(), node_.id(), sim::TraceCategory::kMatch,
               payload.size(), "posted");
    // Same ordering as the unexpected-drain path: the device's credit
    // return leaves before the receive is observably complete, so no
    // credit packet races the channel close of finalize().
    if (on_consumed) on_consumed();
    finish_recv(posted, env, payload);
    return;
  }
  // No receive posted yet: buffer the payload, inside the same critical
  // section the miss was observed in. With a backing chunk the store just
  // keeps the reference — the wire slab IS the unexpected buffer, no host
  // bytes move. Without one (legacy/self-send callers) it stages through
  // the slab pool, which counts the copy and — on a cache miss only — the
  // allocation.
  UnexpectedMessage message;
  message.env = env;
  if (backing) {
    message.payload = std::move(backing);
  } else if (!payload.empty()) {
    message.payload = SlabPool::global().stage(payload);
  }
  message.on_consumed = std::move(on_consumed);
  message.charge = charge;
  // stored_ rises before reserved_ falls, so a concurrent admit_eager
  // only ever sees the store at-or-above its true occupancy.
  const std::size_t stored_now =
      stored_.fetch_add(charge, std::memory_order_relaxed) + charge;
  raise_high_water(stored_high_water_, stored_now);
  sub_clamped(reserved_, charge);
  message.delivered_at = node_.clock().now();
  message.available_at =
      node_.clock().advance(static_cast<double>(payload.size()) *
                            sim::kHostCopyUsPerByte);
  sim::trace(message.available_at, node_.id(), sim::TraceCategory::kMatch,
             payload.size(), "unexpected");
  append_unexpected(std::move(message), queues, rank_lock, bucket_lock);
}

void RankContext::deliver_rendezvous(const Envelope& env,
                                     RendezvousMatch on_match) {
  std::unique_lock<std::mutex> rank_lock;
  std::unique_lock<std::mutex> bucket_lock;
  KeyQueues* queues = nullptr;
  PostedRecv posted;
  if (take_matching_posted(env, rank_lock, bucket_lock, &queues, &posted)) {
    on_match(env, std::move(posted));
    return;
  }
  UnexpectedMessage message;
  message.env = env;
  message.rendezvous = true;
  message.on_match = std::move(on_match);
  message.available_at = node_.clock().now();
  append_unexpected(std::move(message), queues, rank_lock, bucket_lock);
}

// ----------------------------------------------------------------- probe

std::unique_lock<std::mutex> RankContext::lock_for_source(rank_t source) {
  if (source != kAnySource) return {};
  DatapathStats::global().count_match_rank_lock();
  return std::unique_lock<std::mutex>(mutex_);
}

void RankContext::observe(const Envelope& env, usec_t available_at,
                          MpiStatus* status) {
  node_.clock().sync_to(available_at);
  if (status != nullptr) {
    status->source = env.src;
    status->tag = env.tag;
    status->bytes = env.bytes;
  }
}

void RankContext::hand_over(UnexpectedMessage taken, MatchedMessage* message,
                            MpiStatus* status) {
  observe(taken.env, taken.available_at, status);
  message->message_ = std::move(taken);
  message->valid_ = true;
}

template <typename Found>
bool RankContext::probe_wait(const PostedRecv& pattern, rank_t source_global,
                             MpiStatus* status, Found found) {
  const usec_t probed_at = node_.clock().now();
  std::unique_lock<std::mutex> lock(mutex_);
  DatapathStats::global().count_match_rank_lock();
  // Registered before the first scan: a delivery that appends after our
  // scan missed it reads a nonzero waiter count and notifies.
  probe_waiters_.fetch_add(1, std::memory_order_release);
  WaiterGuard guard{probe_waiters_};
  for (;;) {
    if (found()) return true;
    // Watchdog-aware wait: a probe for a peer that can no longer reach us
    // would otherwise block forever (the unbounded-wait bug). Wildcard
    // probes keep waiting — some peer may still be alive.
    if (peer_unreachable_ && source_global != kInvalidRank &&
        peer_unreachable_(source_global)) {
      node_.clock().sync_to(probed_at + watchdog_horizon_);
      if (status != nullptr) {
        status->source = pattern.source;
        status->tag = pattern.tag;
        status->bytes = 0;
        status->error = ErrorCode::kTimedOut;
      }
      return false;
    }
    if (marcel::on_fiber()) {
      // Park the fiber instead of blocking its shard worker. The
      // predicate consults the failure detector *without* holding the
      // queue lock (the detector may take channel/session locks that
      // delivery paths hold while calling into us).
      lock.unlock();
      marcel::park_until([this, &pattern, source_global] {
        std::function<bool(rank_t)> detector;
        {
          std::lock_guard<std::mutex> scan_lock(mutex_);
          if (peek_unexpected(pattern).found) return true;
          detector = peer_unreachable_;
        }
        return detector != nullptr && source_global != kInvalidRank &&
               detector(source_global);
      });
      lock.lock();
    } else if (peer_unreachable_) {
      unexpected_arrived_.wait_for(lock, std::chrono::milliseconds(2));
    } else {
      unexpected_arrived_.wait(lock);
    }
  }
}

bool RankContext::iprobe(int context, rank_t source, int tag,
                         MpiStatus* status) {
  const PostedRecv pattern = pattern_of(context, source, tag);
  std::unique_lock<std::mutex> lock = lock_for_source(source);
  const UnexpectedHit hit = peek_unexpected(pattern);
  if (lock) lock.unlock();
  if (!hit.found) return false;
  observe(hit.env, hit.available_at, status);
  return true;
}

void RankContext::probe(int context, rank_t source, int tag,
                        rank_t source_global, MpiStatus* status) {
  const PostedRecv pattern = pattern_of(context, source, tag);
  UnexpectedHit hit;
  if (probe_wait(pattern, source_global, status, [&] {
        hit = peek_unexpected(pattern);
        return hit.found;
      })) {
    observe(hit.env, hit.available_at, status);
  }
}

// --------------------------------------------------------- matched probe

bool RankContext::improbe(int context, rank_t source, int tag,
                          MatchedMessage* message, MpiStatus* status) {
  const PostedRecv pattern = pattern_of(context, source, tag);
  UnexpectedMessage taken;
  std::unique_lock<std::mutex> lock = lock_for_source(source);
  const bool found = take_unexpected(pattern, &taken);
  if (lock) lock.unlock();
  if (!found) return false;
  hand_over(std::move(taken), message, status);
  return true;
}

void RankContext::mprobe(int context, rank_t source, int tag,
                         rank_t source_global, MatchedMessage* message,
                         MpiStatus* status) {
  const PostedRecv pattern = pattern_of(context, source, tag);
  UnexpectedMessage taken;
  if (probe_wait(pattern, source_global, status,
                 [&] { return take_unexpected(pattern, &taken); })) {
    hand_over(std::move(taken), message, status);
  }
}

void RankContext::mrecv(MatchedMessage message, PostedRecv posted) {
  MADMPI_CHECK_MSG(message.valid_, "mrecv on an invalid message handle");
  message.valid_ = false;
  consume_unexpected(std::move(message.message_), std::move(posted));
}

// ---------------------------------------------------------------- budget

void RankContext::set_unexpected_budget(std::size_t bytes) {
  budget_.store(bytes, std::memory_order_relaxed);
}

std::size_t RankContext::unexpected_budget() const {
  return budget_.load(std::memory_order_relaxed);
}

bool RankContext::admit_eager(std::size_t bytes) {
  const std::size_t charge = bytes + kUnexpectedEntryOverhead;
  const std::size_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) {
    reserved_.fetch_add(charge, std::memory_order_relaxed);
    return true;
  }
  std::size_t reserved = reserved_.load(std::memory_order_relaxed);
  for (;;) {
    if (stored_.load(std::memory_order_relaxed) + reserved + charge >
        budget) {
      eager_refused_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (reserved_.compare_exchange_weak(reserved, reserved + charge,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
}

void RankContext::release_eager_admission(std::size_t bytes) {
  sub_clamped(reserved_, bytes + kUnexpectedEntryOverhead);
}

// -------------------------------------------------------------- watchdog

void RankContext::set_watchdog(usec_t horizon,
                               std::function<bool(rank_t)> unreachable) {
  std::lock_guard<std::mutex> lock(mutex_);
  watchdog_horizon_ = horizon;
  peer_unreachable_ = std::move(unreachable);
}

template <typename Remove>
std::vector<PostedRecv> RankContext::sweep_posted(Remove remove) {
  std::vector<PostedRecv> removed;
  const auto take_from = [&removed, &remove](std::deque<PostedRecv>& queue) {
    const std::size_t before = removed.size();
    for (auto it = queue.begin(); it != queue.end();) {
      if (remove(*it)) {
        removed.push_back(std::move(*it));
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
    return removed.size() - before;
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Bucket& bucket : buckets_) {
      std::lock_guard<std::mutex> bucket_guard(bucket.mutex);
      for (auto& [key, queues] : bucket.keys) take_from(queues.posted);
    }
    if (const std::size_t wildcards = take_from(wildcard_posted_)) {
      wildcard_count_.fetch_sub(wildcards, std::memory_order_release);
    }
  }
  if (removed.empty()) return removed;
  posted_count_.fetch_sub(removed.size(), std::memory_order_relaxed);
  // Buckets iterate in hash order; completing in post order keeps the
  // cancellation sequence (and thus any schedule it perturbs)
  // deterministic, exactly like the flat queue did.
  std::sort(removed.begin(), removed.end(),
            [](const PostedRecv& a, const PostedRecv& b) {
              return a.seq < b.seq;
            });
  return removed;
}

template <typename Stamp>
std::size_t RankContext::fail_posted(std::vector<PostedRecv> victims,
                                     ErrorCode code, const char* label,
                                     Stamp stamp) {
  // Completed outside the queue locks (complete() signals the waiter).
  for (PostedRecv& posted : victims) {
    node_.clock().bind_lane(stamp(posted));
    MpiStatus status;
    status.source = posted.source;
    status.tag = posted.tag;
    status.bytes = 0;
    status.error = code;
    sim::trace(node_.clock().now(), node_.id(),
               sim::TraceCategory::kComplete, 0, label);
    RequestState::complete(posted.request, status);
  }
  return victims.size();
}

std::size_t RankContext::cancel_unreachable(ErrorCode code) {
  std::function<bool(rank_t)> unreachable;
  usec_t horizon = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    unreachable = peer_unreachable_;
    horizon = watchdog_horizon_;
  }
  if (!unreachable) return 0;

  // The failure detector may take channel/session locks, and delivery
  // paths hold those while calling into us — so consult it *without*
  // holding the queue locks: snapshot the peers waited on (a sweep that
  // removes nothing), query the detector unlocked, then sweep again to
  // remove victims.
  std::vector<rank_t> peers;
  sweep_posted([&peers](const PostedRecv& posted) {
    if (posted.source_global != kInvalidRank &&
        std::find(peers.begin(), peers.end(), posted.source_global) ==
            peers.end()) {
      peers.push_back(posted.source_global);
    }
    return false;
  });
  std::vector<rank_t> dead;
  for (rank_t peer : peers) {
    if (unreachable(peer)) dead.push_back(peer);
  }
  if (dead.empty()) return 0;

  // Deterministic stamp: the error is observed `horizon` after the post,
  // not whenever the wall-clock watchdog sweep got scheduled.
  return fail_posted(
      sweep_posted([&dead](const PostedRecv& posted) {
        return posted.source_global != kInvalidRank &&
               std::find(dead.begin(), dead.end(), posted.source_global) !=
                   dead.end();
      }),
      code, "watchdog-cancel",
      [horizon](const PostedRecv& posted) {
        return posted.posted_at + horizon;
      });
}

usec_t RankContext::min_ft_deadline() const {
  usec_t min_deadline = 0.0;
  const_cast<RankContext*>(this)->sweep_posted(
      [&min_deadline](const PostedRecv& posted) {
        if (posted.ft_deadline_us > 0.0 &&
            (min_deadline == 0.0 || posted.ft_deadline_us < min_deadline)) {
          min_deadline = posted.ft_deadline_us;
        }
        return false;
      });
  return min_deadline;
}

std::size_t RankContext::cancel_expired(ErrorCode code,
                                        usec_t before_deadline_us) {
  // Only called after a sustained global stall: nothing is advancing
  // virtual time anywhere, so the oldest pending deadline-carrying
  // receives can never complete. Only the cohort at or below
  // `before_deadline_us` is cancelled, stamped at their deadlines (the
  // deadline is the deterministic virtual observation time, not the
  // trigger; wall-clock stall detection is the trigger). Newer deadline
  // receives — operations merely blocked behind the stuck one — are left
  // alone; unsticking the oldest either revives them or earns them their
  // own stall round.
  return fail_posted(
      sweep_posted([before_deadline_us](const PostedRecv& posted) {
        return posted.ft_deadline_us > 0.0 &&
               posted.ft_deadline_us <= before_deadline_us;
      }),
      code, "ft-deadline-cancel",
      [](const PostedRecv& posted) { return posted.ft_deadline_us; });
}

std::size_t RankContext::cancel_context(int context, ErrorCode code) {
  return fail_posted(
      sweep_posted([context](const PostedRecv& posted) {
        return posted.context == context;
      }),
      code, "revoke-cancel",
      [](const PostedRecv& posted) { return posted.posted_at; });
}

void RankContext::notify_waiters() {
  unexpected_arrived_.notify_all();
  marcel::engine_notify();
}

bool RankContext::cancel_posted(const RequestState* request) {
  // Nothing removed means the receive already matched: cancellation lost
  // the race and the receive completes normally. The canceller is the
  // rank's own thread, so its lane already carries the right virtual
  // time — no deterministic re-stamping needed.
  return fail_posted(
             sweep_posted([request](const PostedRecv& posted) {
               return posted.request.get() == request;
             }),
             ErrorCode::kCancelled, "cancel-recv",
             [this](const PostedRecv&) { return node_.clock().now(); }) != 0;
}

// --------------------------------------------------------------- windows

void RankContext::register_window(std::uint64_t win_id, WinTarget* target) {
  std::unique_lock<std::shared_mutex> lock(win_mutex_);
  windows_[win_id] = target;
}

void RankContext::unregister_window(std::uint64_t win_id) {
  std::unique_lock<std::shared_mutex> lock(win_mutex_);
  windows_.erase(win_id);
}

WinTarget* RankContext::find_window(std::uint64_t win_id) {
  std::shared_lock<std::shared_mutex> lock(win_mutex_);
  auto it = windows_.find(win_id);
  return it == windows_.end() ? nullptr : it->second;
}

}  // namespace madmpi::mpi
