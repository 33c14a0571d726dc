#include "mpi/comm.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "common/datapath_stats.hpp"
#include "common/log.hpp"
#include "marcel/engine.hpp"
#include "marcel/executor.hpp"
#include "sim/cost_model.hpp"

#include "mpi/comm_shared.hpp"

namespace madmpi::mpi {

Comm Comm::world(Runtime* runtime, rank_t rank, int world_context) {
  // All ranks must share one Shared instance per logical communicator; the
  // runtime is the natural owner. Use a per-runtime registry.
  static std::mutex registry_mutex;
  static std::map<std::pair<Runtime*, int>, std::weak_ptr<Shared>> registry;

  std::lock_guard<std::mutex> lock(registry_mutex);
  auto key = std::make_pair(runtime, world_context);
  std::shared_ptr<Shared> shared = registry[key].lock();
  if (!shared) {
    shared = std::make_shared<Shared>();
    shared->runtime = runtime;
    shared->context = world_context;
    shared->group.resize(static_cast<std::size_t>(runtime->world_size()));
    for (int i = 0; i < runtime->world_size(); ++i) shared->group[i] = i;
    shared->creation_seq.assign(shared->group.size(), 0);
    registry[key] = shared;
  }
  return Comm(std::move(shared), rank);
}

int Comm::size() const {
  return static_cast<int>(shared_->group.size());
}

rank_t Comm::global_rank_of(rank_t comm_rank) const {
  MADMPI_CHECK(comm_rank >= 0 && comm_rank < size());
  return shared_->group[static_cast<std::size_t>(comm_rank)];
}

int Comm::context() const { return shared_->context; }

sim::Node& Comm::my_node() const {
  return shared_->runtime->node_of(global_rank_of(rank_));
}

RankContext& Comm::my_context() const {
  return shared_->runtime->context_of(global_rank_of(rank_));
}

Device& Comm::device_to(rank_t dest) const {
  return shared_->runtime->device_for(global_rank_of(rank_),
                                      global_rank_of(dest));
}

Envelope Comm::make_envelope(rank_t dest, int tag, std::uint64_t bytes,
                             bool synchronous) const {
  Envelope env;
  env.context = shared_->context;
  env.src = rank_;
  env.dst = dest;
  env.tag = tag;
  env.bytes = bytes;
  env.synchronous = synchronous;
  env.sender_big_endian = my_node().big_endian();
  return env;
}

byte_span Comm::pack_for_send(const void* buf, int count,
                              const Datatype& type,
                              std::vector<std::byte>& staging) const {
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  const bool big_endian = my_node().big_endian();
  if (type.is_contiguous() && !big_endian) {
    return byte_span{static_cast<const std::byte*>(buf), bytes};
  }
  staging.resize(bytes);
  type.pack(buf, count, staging.data());
  if (!type.is_contiguous()) {
    // Gathering a strided datatype into the wire representation is a real
    // memory pass on the sending host.
    my_node().clock().advance(static_cast<double>(bytes) *
                              sim::kHostCopyUsPerByte);
  }
  if (big_endian) {
    // The wire carries the sender's byte order (the receiver makes it
    // right, per the envelope flag); writing big-endian data is free for
    // a big-endian host, so no cost is charged here.
    type.swap_packed(staging.data(), count);
  }
  return byte_span{staging.data(), staging.size()};
}

TransferMode Comm::admit_or_demote(Device& device, rank_t dst_global,
                                   const Envelope& env) {
  TransferMode mode = device.select_mode(env.bytes, env.synchronous);
  if (mode != TransferMode::kEager) return mode;
  const rank_t src_global = global_rank_of(rank_);
  if (src_global == dst_global) return mode;  // ch_self: always eager
  // Two gates, receiver's store first: a message the store cannot hold
  // must not consume a credit it would immediately hand back.
  RankContext& peer = shared_->runtime->context_of(dst_global);
  if (!peer.admit_eager(env.bytes)) return TransferMode::kRendezvous;
  if (!device.admit_eager(src_global, dst_global, env.bytes)) {
    peer.release_eager_admission(env.bytes);
    return TransferMode::kRendezvous;
  }
  return mode;
}

Comm::SendOutcome Comm::send_core(rank_t dest, const Envelope& env,
                                  byte_span packed, SendKind kind) {
  // Collective hops (context + 1) pass their guard's entry check instead.
  if (env.context == shared_->context) {
    if (Status entry = ft_entry_check(); !entry.is_ok()) return {entry, {}};
  }
  Device& device = device_to(dest);
  const rank_t src_global = global_rank_of(rank_);
  const rank_t dst_global = global_rank_of(dest);
  const TransferMode mode = admit_or_demote(device, dst_global, env);
  if (mode == TransferMode::kEager || kind == SendKind::kBlocking) {
    const Status status =
        device.send(src_global, dst_global, env, packed, mode);
    if (!status.is_ok() && mode == TransferMode::kEager &&
        src_global != dst_global) {
      // The device refunds its own credits; this returns the reservation
      // in the receiver's store.
      shared_->runtime->context_of(dst_global).release_eager_admission(
          env.bytes);
    }
    return {status, {}};
  }
  auto state = std::make_shared<RequestState>(my_node());
  std::vector<std::byte> owned;
  if (kind != SendKind::kBorrowed) {
    // Stage the payload so the caller's buffer is free on return; the
    // device lends this copy to the wire.
    owned.assign(packed.begin(), packed.end());
    count_real_copy(packed.size());
    packed = byte_span{owned.data(), owned.size()};
  }
  if (kind == SendKind::kStaged) {
    my_node().clock().advance(static_cast<double>(packed.size()) *
                              sim::kHostCopyUsPerByte);
    // MPI_Cancel hook: the device detaches a rendezvous still awaiting the
    // receiver's ack and completes the request with kCancelled.
    state->set_cancel([&device, src_global, dst_global, env] {
      return device.try_cancel_send(src_global, dst_global, env);
    });
  }
  // The device injects the REQUEST on this thread, behind any eager frames
  // this rank already sent (MPI non-overtaking).
  device.isend_rendezvous(src_global, dst_global, env, packed,
                          std::move(owned), state);
  return {Status::ok(), std::move(state)};
}

Request Comm::send_request(const Envelope& env, SendOutcome sent) {
  if (!sent.detached) {
    sent.detached = std::make_shared<RequestState>(my_node());
    RequestState::complete(sent.detached,
                           MpiStatus::of_send(env, sent.status.code()));
  }
  return Request(std::move(sent.detached));
}

void Comm::set_errhandler(Errhandler handler) {
  std::lock_guard<std::mutex> lock(shared_->errhandler_mutex);
  if (shared_->errhandlers.empty()) {
    shared_->errhandlers.resize(shared_->group.size());
  }
  shared_->errhandlers[static_cast<std::size_t>(rank_)] =
      std::move(handler);
}

Errhandler Comm::errhandler() const {
  std::lock_guard<std::mutex> lock(shared_->errhandler_mutex);
  if (shared_->errhandlers.empty()) return Errhandler::errors_return();
  return shared_->errhandlers[static_cast<std::size_t>(rank_)];
}

Status Comm::raise_error(const Status& status) {
  if (status.is_ok()) return status;
  const Errhandler handler = errhandler();
  switch (handler.kind) {
    case ErrhandlerKind::kFatal:
      fatal("MPI error (MPI_ERRORS_ARE_FATAL) on rank " +
            std::to_string(rank_) + ": " + status.to_string());
    case ErrhandlerKind::kCustom:
      if (handler.fn) handler.fn(status.code(), status.message());
      break;
    case ErrhandlerKind::kReturn:
      break;
  }
  return status;
}

Status Comm::send(const void* buf, int count, const Datatype& type,
                  rank_t dest, int tag) {
  MADMPI_CHECK(dest >= 0 && dest < size());
  std::vector<std::byte> staging;
  const byte_span packed = pack_for_send(buf, count, type, staging);
  return raise_error(
      send_core(dest, make_envelope(dest, tag, packed.size(), false), packed,
                SendKind::kBlocking)
          .status);
}

Status Comm::ssend(const void* buf, int count, const Datatype& type,
                   rank_t dest, int tag) {
  MADMPI_CHECK(dest >= 0 && dest < size());
  std::vector<std::byte> staging;
  const byte_span packed = pack_for_send(buf, count, type, staging);
  return raise_error(
      send_core(dest, make_envelope(dest, tag, packed.size(), true), packed,
                SendKind::kBlocking)
          .status);
}

namespace {

/// Per-rank-thread buffered-send pool (MPI_Buffer_attach semantics: one
/// buffer per process; our "process" is the rank thread).
struct BsendPool {
  std::size_t capacity = 0;
  std::mutex mutex;
  std::condition_variable drained;
  std::size_t in_flight = 0;  // parked bytes (> 0 per undelivered send)
};

thread_local std::shared_ptr<BsendPool> t_bsend_pool;

void destroy_bsend_slot(void* p) {
  delete static_cast<std::shared_ptr<BsendPool>*>(p);
}

// Per-rank attachment: a thread_local under the threaded engine, the
// fiber's local slot under the sharded one — fibers from several ranks
// share each shard worker's OS thread, so a plain thread_local would let
// one rank's attach satisfy another rank's bsend (and trip the
// double-attach guard).
std::shared_ptr<BsendPool>& bsend_pool() {
  if (void** slot = marcel::fiber_local_slot(marcel::kFiberSlotBsend,
                                             &destroy_bsend_slot)) {
    if (*slot == nullptr) *slot = new std::shared_ptr<BsendPool>();
    return *static_cast<std::shared_ptr<BsendPool>*>(*slot);
  }
  return t_bsend_pool;
}

}  // namespace

void Comm::buffer_attach(std::size_t bytes) {
  std::shared_ptr<BsendPool>& attached = bsend_pool();
  MADMPI_CHECK_MSG(attached == nullptr || attached->capacity == 0,
                   "a bsend buffer is already attached");
  attached = std::make_shared<BsendPool>();
  attached->capacity = bytes;
}

void Comm::buffer_detach() {
  std::shared_ptr<BsendPool>& attached = bsend_pool();
  MADMPI_CHECK_MSG(attached != nullptr && attached->capacity != 0,
                   "no bsend buffer attached");
  std::unique_lock<std::mutex> lock(attached->mutex);
  marcel::engine_wait(lock, attached->drained,
                      [&] { return attached->in_flight == 0; });
  lock.unlock();
  attached.reset();
}

void Comm::bsend(const void* buf, int count, const Datatype& type,
                 rank_t dest, int tag) {
  MADMPI_CHECK(dest >= 0 && dest < size());
  std::shared_ptr<BsendPool> pool = bsend_pool();
  MADMPI_CHECK_MSG(pool != nullptr && pool->capacity != 0,
                   "MPI_Bsend without an attached buffer");

  std::vector<std::byte> staging;
  const byte_span view = pack_for_send(buf, count, type, staging);
  const std::size_t needed = view.size() + bsend_overhead();
  {
    std::lock_guard<std::mutex> lock(pool->mutex);
    MADMPI_CHECK_MSG(pool->in_flight + needed <= pool->capacity,
                     "attached bsend buffer too small (MPI_ERR_BUFFER)");
    pool->in_flight += needed;
  }
  auto release = [pool, needed] {
    {
      std::lock_guard<std::mutex> lock(pool->mutex);
      pool->in_flight -= needed;
      pool->drained.notify_all();
    }
    marcel::engine_notify();
  };

  // Send from a temporary thread run in place: its frames leave before
  // any later frame of this rank (MPI non-overtaking), and a rendezvous
  // completes from the device's poller, so the caller never waits for the
  // receiver. The thread's charge includes the copy into the attached
  // buffer; on the host only a rendezvous parks one, because an eager send
  // has staged its payload by the time it returns.
  const Envelope env = make_envelope(dest, tag, view.size(), false);
  SendOutcome sent;
  marcel::Executor::run_here(
      my_node(),
      marcel::ThreadCosts::kCreate +
          static_cast<double>(view.size()) * sim::kHostCopyUsPerByte,
      [&] { sent = send_core(dest, env, view, SendKind::kParked); });
  if (!sent.detached) {
    // Finished in the call: eager, or refused on a revoked communicator.
    release();
    raise_error(sent.status);
    return;
  }
  // A rendezvous has no request to carry a later error; log and drop it,
  // as real implementations do for undeliverable bsends.
  sent.detached->set_on_complete([release, env](const MpiStatus& done) {
    if (done.error != ErrorCode::kOk) {
      MADMPI_LOG_WARN("mpi", "bsend to rank %d failed: %s",
                      static_cast<int>(env.dst), error_code_name(done.error));
    }
    release();
  });
}

Request Comm::irecv(void* buf, int count, const Datatype& type,
                    rank_t source, int tag) {
  MADMPI_CHECK(source == kAnySource || (source >= 0 && source < size()));
  auto state = std::make_shared<RequestState>(my_node());
  PostedRecv posted;
  posted.context = shared_->context;
  posted.source = source;
  posted.tag = tag;
  posted.buffer = buf;
  posted.type = type;
  posted.count = count;
  posted.capacity_bytes = type.size() * static_cast<std::size_t>(count);
  posted.request = state;
  posted.source_global =
      source == kAnySource ? kInvalidRank : global_rank_of(source);
  posted.posted_at = my_node().clock().now();
  // MPI_Cancel hook: pull the receive back out of the posted queue. The
  // context outlives every request (it belongs to the session directory).
  state->set_cancel([context = &my_context(), raw = state.get()] {
    return context->cancel_posted(raw);
  });
  my_context().post_recv(std::move(posted));
  // Revocation closes a race here: revoke() registers the context first
  // and then sweeps posted receives, so a receive posted concurrently
  // either is caught by the sweep or observes the registry now.
  if (shared_->runtime->context_revoked(shared_->context)) {
    my_context().cancel_context(shared_->context, ErrorCode::kRevoked);
    my_context().notify_waiters();
  }
  return Request(std::move(state));
}

MpiStatus Comm::recv(void* buf, int count, const Datatype& type,
                     rank_t source, int tag) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    raise_error(entry);
    MpiStatus status;
    status.source = source;
    status.tag = tag;
    status.error = entry.code();
    return status;
  }
  MpiStatus status = irecv(buf, count, type, source, tag).wait();
  if (status.error != ErrorCode::kOk) {
    raise_error(Status(status.error,
                       "recv from rank " + std::to_string(source)));
  }
  return status;
}

Request Comm::isend(const void* buf, int count, const Datatype& type,
                    rank_t dest, int tag) {
  MADMPI_CHECK(dest >= 0 && dest < size());
  std::vector<std::byte> staging;
  const byte_span packed = pack_for_send(buf, count, type, staging);
  const Envelope env = make_envelope(dest, tag, packed.size(), false);
  return send_request(env, send_core(dest, env, packed, SendKind::kStaged));
}

Request Comm::issend(const void* buf, int count, const Datatype& type,
                     rank_t dest, int tag) {
  MADMPI_CHECK(dest >= 0 && dest < size());
  std::vector<std::byte> staging;
  const byte_span packed = pack_for_send(buf, count, type, staging);
  const Envelope env = make_envelope(dest, tag, packed.size(), true);
  return send_request(env, send_core(dest, env, packed, SendKind::kStaged));
}

MpiStatus Comm::sendrecv(const void* send_buf, int send_count,
                         const Datatype& send_type, rank_t dest, int send_tag,
                         void* recv_buf, int recv_count,
                         const Datatype& recv_type, rank_t source,
                         int recv_tag) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    raise_error(entry);
    MpiStatus status;
    status.source = source;
    status.tag = recv_tag;
    status.error = entry.code();
    return status;
  }
  Request recv_request = irecv(recv_buf, recv_count, recv_type, source,
                               recv_tag);
  send(send_buf, send_count, send_type, dest, send_tag);
  MpiStatus status = recv_request.wait();
  if (status.error != ErrorCode::kOk) {
    raise_error(Status(status.error,
                       "sendrecv from rank " + std::to_string(source)));
  }
  return status;
}

MpiStatus Comm::probe(rank_t source, int tag) {
  MpiStatus status;
  const rank_t source_global =
      source == kAnySource ? kInvalidRank : global_rank_of(source);
  my_context().probe(shared_->context, source, tag, source_global, &status);
  if (status.error != ErrorCode::kOk) {
    raise_error(Status(status.error,
                       "probe of rank " + std::to_string(source)));
  }
  return status;
}

bool Comm::iprobe(rank_t source, int tag, MpiStatus* status) {
  const bool found =
      my_context().iprobe(shared_->context, source, tag, status);
  // Iprobe spin loops must make progress on the fiber engine: the probed
  // message can only arrive if the sender's fiber gets to run.
  if (!found) marcel::cooperative_yield();
  return found;
}

MpiStatus Comm::mprobe(rank_t source, int tag, MatchedMessage* message) {
  MpiStatus status;
  const rank_t source_global =
      source == kAnySource ? kInvalidRank : global_rank_of(source);
  my_context().mprobe(shared_->context, source, tag, source_global, message,
                      &status);
  if (status.error != ErrorCode::kOk) {
    raise_error(Status(status.error,
                       "mprobe of rank " + std::to_string(source)));
  }
  return status;
}

bool Comm::improbe(rank_t source, int tag, MatchedMessage* message,
                   MpiStatus* status) {
  const bool found =
      my_context().improbe(shared_->context, source, tag, message, status);
  if (!found) marcel::cooperative_yield();
  return found;
}

Request Comm::imrecv(void* buf, int count, const Datatype& type,
                     MatchedMessage message) {
  MADMPI_CHECK_MSG(message.valid(), "imrecv on an invalid MatchedMessage");
  auto state = std::make_shared<RequestState>(my_node());
  PostedRecv posted;
  posted.context = shared_->context;
  posted.source = message.envelope().src;
  posted.tag = message.envelope().tag;
  posted.buffer = buf;
  posted.type = type;
  posted.count = count;
  posted.capacity_bytes = type.size() * static_cast<std::size_t>(count);
  posted.request = state;
  posted.source_global = global_rank_of(message.envelope().src);
  posted.posted_at = my_node().clock().now();
  my_context().mrecv(std::move(message), std::move(posted));
  return Request(std::move(state));
}

MpiStatus Comm::mrecv(void* buf, int count, const Datatype& type,
                      MatchedMessage message) {
  MpiStatus status = imrecv(buf, count, type, std::move(message)).wait();
  if (status.error != ErrorCode::kOk) {
    raise_error(Status(status.error, "mrecv"));
  }
  return status;
}

double Comm::wtime() const { return my_node().clock().now() * 1e-6; }
usec_t Comm::wtime_us() const { return my_node().clock().now(); }
void Comm::compute_us(usec_t us) { my_node().clock().advance(us); }

Group Comm::group() const { return Group(shared_->group); }

Comm Comm::create(const Group& subset) {
  const int seq = shared_->next_seq(rank_);
  const rank_t my_world = global_rank_of(rank_);

  // Membership sanity: every subset member must belong to this comm.
  for (rank_t member : subset.members()) {
    bool found = false;
    for (rank_t g : shared_->group) {
      if (g == member) {
        found = true;
        break;
      }
    }
    MADMPI_CHECK_MSG(found, "Comm::create group is not a subgroup");
  }

  const int my_new_rank = subset.rank_of(my_world);
  if (my_new_rank < 0) return Comm();  // caller outside the new group

  auto shared = std::make_shared<Shared>();
  shared->runtime = shared_->runtime;
  // The group digest separates different create() calls that could share a
  // sequence number across disjoint subgroups.
  shared->context = shared_->runtime->derive_context_id(
      shared_->context,
      (static_cast<std::int64_t>(seq) << 32) | subset.digest());
  shared->group = subset.members();
  shared->creation_seq.assign(shared->group.size(), 0);
  // Derived communicators inherit the parent's error handler (MPI §8.3).
  shared->errhandlers.assign(shared->group.size(), errhandler());
  return Comm(std::move(shared), my_new_rank);
}

Comm Comm::dup() {
  const int seq = shared_->next_seq(rank_);
  auto shared = std::make_shared<Shared>();
  shared->runtime = shared_->runtime;
  shared->context = shared_->runtime->derive_context_id(
      shared_->context, static_cast<std::int64_t>(seq) << 32);
  shared->group = shared_->group;
  shared->creation_seq.assign(shared->group.size(), 0);
  shared->errhandlers.assign(shared->group.size(), errhandler());

  // All ranks must share one Shared: funnel through the world registry
  // trick is unnecessary — instead each rank builds an identical Shared.
  // Identical immutable contents are sufficient: matching only uses the
  // context id and group mapping, which are equal across the copies.
  return Comm(std::move(shared), rank_);
}

Comm Comm::split(int color, int key) {
  // Only the MPI_UNDEFINED sentinel (-1 internally) may be negative; any
  // other negative color is an argument error, raised *before* the
  // allgather so an erring rank never enters the collective exchange.
  if (color < -1) {
    raise_error(Status(ErrorCode::kInvalidArgument,
                       "Comm::split: negative color " +
                           std::to_string(color) +
                           " is not MPI_UNDEFINED"));
    return Comm();
  }

  const int seq = shared_->next_seq(rank_);

  // Exchange (color, key) with every member over the collective context —
  // a genuine allgather, as a distributed implementation must.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  std::vector<Entry> entries(static_cast<std::size_t>(size()));
  Entry mine{color, key, rank_};
  allgather(&mine, static_cast<int>(sizeof(Entry)), Datatype::byte(),
            entries.data(), static_cast<int>(sizeof(Entry)),
            Datatype::byte());

  if (color < 0) return Comm();  // MPI_UNDEFINED

  std::vector<Entry> members;
  for (const auto& entry : entries) {
    if (entry.color == color) members.push_back(entry);
  }
  std::stable_sort(members.begin(), members.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.rank < b.rank;
                   });

  auto shared = std::make_shared<Shared>();
  shared->runtime = shared_->runtime;
  // Distinct colors yield distinct derived ids; the +1 keeps split's
  // variant space disjoint from dup's (variant 0).
  shared->context = shared_->runtime->derive_context_id(
      shared_->context, (static_cast<std::int64_t>(seq) << 32) |
                            (static_cast<std::uint32_t>(color) + 1));
  shared->errhandlers.assign(members.size(), errhandler());
  shared->group.reserve(members.size());
  rank_t my_new_rank = kInvalidRank;
  for (std::size_t i = 0; i < members.size(); ++i) {
    shared->group.push_back(global_rank_of(members[i].rank));
    if (members[i].rank == rank_) my_new_rank = static_cast<rank_t>(i);
  }
  shared->creation_seq.assign(shared->group.size(), 0);
  MADMPI_CHECK(my_new_rank != kInvalidRank);
  return Comm(std::move(shared), my_new_rank);
}

}  // namespace madmpi::mpi
