#include "mpi/win.hpp"

#include <cstring>
#include <string>
#include <vector>

#include "common/datapath_stats.hpp"
#include "marcel/engine.hpp"
#include "mpi/adi.hpp"
#include "mpi/comm_shared.hpp"
#include "mpi/runtime.hpp"
#include "sim/cost_model.hpp"

namespace madmpi::mpi {

// Per-rank window state: each rank's Win handle owns its own State (the
// collective agreement is the window id and the exchanged sizes). The
// target-side WinTarget is reached by peers through the RankContext
// registry; everything else is local to the owning rank's thread.
struct Win::State {
  Comm comm;
  std::uint64_t win_id = 0;
  std::unique_ptr<WinTarget> local = std::make_unique<WinTarget>();

  // Per-peer window sizes (comm-rank indexed), exchanged at creation for
  // origin-side bounds checking.
  std::vector<std::uint64_t> peer_bytes;

  // Access-epoch tracking.
  bool fence_open = false;
  std::map<rank_t, RmaLockType> locked;  // comm rank -> lock type held

  // Cumulative data-bearing ops sent per remote target (comm rank), and
  // the level already covered by a completed fence/unlock.
  std::map<rank_t, std::uint64_t> sent;
  std::map<rank_t, std::uint64_t> synced;

  // Outstanding gets (their replies complete these requests).
  std::vector<Request> pending_gets;

  bool freed = false;
};

void rma_land(std::byte* dst, byte_span data, RmaType type, RmaOp op,
              bool swap) {
  if (data.empty()) return;
  if (op == RmaOp::kReplace) {
    std::memcpy(dst, data.data(), data.size());
    if (swap) rma_swap(type, dst, data.size());
  } else {
    ChunkRef swapped;
    if (swap && rma_type_width(type) > 1) {
      swapped = SlabPool::global().stage(data);
      rma_swap(type, swapped.mutable_data(), data.size());
      data = swapped.span();
    }
    rma_op(op).apply(data.data(), dst,
                     static_cast<int>(data.size() / rma_type_width(type)),
                     rma_datatype(type));
  }
  DatapathStats::global().count_copy(data.size());
}

Win Win::init(const Comm& comm, void* base, std::size_t bytes,
              ChunkRef backing) {
  MADMPI_CHECK_MSG(comm.valid(), "Win over an invalid communicator");
  Win win;
  win.state_ = std::make_shared<State>();
  State& s = *win.state_;
  s.comm = comm;
  s.local->base = static_cast<std::byte*>(base);
  s.local->bytes = bytes;
  s.local->backing = std::move(backing);

  // Collectively-agreed window id: every rank consumes the same creation
  // sequence number and derives the same fresh id (variant 2 — the seq is
  // unique per creation, so the variant only documents the kind).
  const int seq = s.comm.shared_->next_seq(s.comm.rank());
  s.win_id = static_cast<std::uint64_t>(s.comm.shared_->runtime->derive_context_id(
      s.comm.shared_->context, (static_cast<std::int64_t>(seq) << 32) | 2));

  // Register before the size exchange: once the allgather completes,
  // every rank's window is resolvable by every peer's polling thread.
  s.comm.my_context().register_window(s.win_id, s.local.get());

  const std::uint64_t mine = bytes;
  s.peer_bytes.assign(static_cast<std::size_t>(s.comm.size()), 0);
  s.comm.allgather(&mine, 1, Datatype::uint64(), s.peer_bytes.data(), 1,
                   Datatype::uint64());
  return win;
}

Win Win::allocate(const Comm& comm, std::size_t bytes) {
  // Slab-backed registered region: the pool chunk pins the memory for the
  // window's lifetime, like an RDMA registration.
  ChunkRef backing = SlabPool::global().allocate(bytes);
  std::byte* base = bytes == 0 ? nullptr : backing.mutable_data();
  if (bytes != 0) std::memset(base, 0, bytes);
  return init(comm, base, bytes, std::move(backing));
}

Win Win::create(const Comm& comm, void* base, std::size_t bytes) {
  return init(comm, base, bytes, ChunkRef());
}

std::byte* Win::base() {
  MADMPI_CHECK_MSG(valid(), "base() on an invalid window");
  return state_->local->base;
}

std::size_t Win::size() const {
  MADMPI_CHECK_MSG(valid(), "size() on an invalid window");
  return state_->local->bytes;
}

std::uint64_t Win::id() const {
  MADMPI_CHECK_MSG(valid(), "id() on an invalid window");
  return state_->win_id;
}

std::uint64_t Win::puts_applied() const {
  std::lock_guard<std::mutex> lock(state_->local->mutex);
  return state_->local->puts_applied;
}

std::uint64_t Win::accumulates_applied() const {
  std::lock_guard<std::mutex> lock(state_->local->mutex);
  return state_->local->accs_applied;
}

Status Win::access_check(rank_t target, std::uint64_t offset,
                         std::uint64_t bytes) {
  State& s = *state_;
  if (s.freed) {
    return Status(ErrorCode::kInvalidArgument,
                  "one-sided access on a freed window");
  }
  if (target < 0 || target >= s.comm.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "one-sided target rank " + std::to_string(target) +
                      " outside the communicator");
  }
  if (!s.fence_open && s.locked.count(target) == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "one-sided access outside an epoch (no fence opened and "
                  "no lock held on the target)");
  }
  const std::uint64_t limit = s.peer_bytes[static_cast<std::size_t>(target)];
  if (bytes > limit || offset > limit - bytes) {
    return Status(ErrorCode::kOutOfRange,
                  "one-sided access [" + std::to_string(offset) + ", " +
                      std::to_string(offset + bytes) + ") beyond the " +
                      std::to_string(limit) + "-byte target window");
  }
  return Status::ok();
}

Status Win::put(const void* origin, int count, RmaType type, rank_t target,
                std::uint64_t target_offset) {
  return issue({.kind = RmaKind::kPut, .type = type, .offset = target_offset},
               count, target, origin, nullptr);
}

Status Win::accumulate(const void* origin, int count, RmaType type, RmaOp op,
                       rank_t target, std::uint64_t target_offset) {
  return issue({.kind = RmaKind::kAccumulate,
                .type = type,
                .op = op,
                .offset = target_offset},
               count, target, origin, nullptr);
}

Status Win::get(void* origin, int count, RmaType type, rank_t target,
                std::uint64_t target_offset) {
  return issue({.kind = RmaKind::kGet, .type = type, .offset = target_offset},
               count, target, nullptr, origin);
}

Status Win::issue(RmaDesc desc, int count, rank_t target, const void* source,
                  void* get_dest) {
  State& s = *state_;
  desc.win_id = s.win_id;
  desc.bytes = static_cast<std::uint64_t>(count) * rma_type_width(desc.type);
  if (Status check = access_check(target, desc.offset, desc.bytes); !check) {
    return s.comm.raise_error(check);
  }
  const rank_t my_global = s.comm.global_rank_of(s.comm.rank());
  const rank_t target_global = s.comm.global_rank_of(target);
  Runtime* runtime = s.comm.shared_->runtime;
  const byte_span data{static_cast<const std::byte*>(source),
                       static_cast<std::size_t>(desc.bytes)};

  if (runtime->node_of(my_global).id() == runtime->node_of(target_global).id()) {
    // Same node (or self): a plain host copy under the window lock. No
    // wire format is involved, so no byte-order conversion either.
    WinTarget* win = runtime->context_of(target_global).find_window(s.win_id);
    if (win == nullptr) {
      return s.comm.raise_error(
          Status(ErrorCode::kNotConnected, "target window not registered"));
    }
    {
      std::lock_guard<std::mutex> lock(win->mutex);
      if (get_dest != nullptr) {
        rma_land(static_cast<std::byte*>(get_dest),
                 {win->base + desc.offset, data.size()}, desc.type,
                 RmaOp::kReplace, false);
      } else {
        win->apply(desc, data, false);
      }
    }
    s.comm.my_node().clock().advance(static_cast<double>(desc.bytes) *
                                     sim::kHostCopyUsPerByte);
    return Status::ok();
  }

  Device& device = s.comm.device_to(target);
  if (!device.supports_rma()) {
    return s.comm.raise_error(Status(
        ErrorCode::kProtocol, "inter-node device has no one-sided support"));
  }
  if (get_dest != nullptr) {
    auto completion = std::make_shared<RequestState>(s.comm.my_node());
    Status status =
        device.rma(my_global, target_global, desc, {}, get_dest, completion);
    if (!status) return s.comm.raise_error(status);
    s.pending_gets.emplace_back(std::move(completion));
    return status;
  }

  // Wire data travels in the sender's byte order; a big-endian origin
  // stages and swaps (charged only when the peers genuinely differ, the
  // same convention as the two-sided path).
  byte_span payload = data;
  std::vector<std::byte> staging;
  if (s.comm.my_node().big_endian() && rma_type_width(desc.type) > 1) {
    staging.assign(data.begin(), data.end());
    rma_swap(desc.type, staging.data(), staging.size());
    DatapathStats::global().count_staging_alloc();
    DatapathStats::global().count_copy(staging.size());
    if (!runtime->node_of(target_global).big_endian()) {
      s.comm.my_node().clock().advance(static_cast<double>(desc.bytes) *
                                       sim::kHostCopyUsPerByte);
    }
    payload = byte_span{staging.data(), staging.size()};
  }

  Status status =
      device.rma(my_global, target_global, desc, payload, nullptr, nullptr);
  if (!status) return s.comm.raise_error(status);
  ++s.sent[target];
  return status;
}

Status Win::flush_target(rank_t target, RmaKind kind, RmaLockType release) {
  State& s = *state_;
  const rank_t my_global = s.comm.global_rank_of(s.comm.rank());
  const rank_t target_global = s.comm.global_rank_of(target);
  Device& device = s.comm.device_to(target);

  RmaDesc desc;
  desc.win_id = s.win_id;
  desc.kind = kind;
  desc.lock = release;
  desc.op_count = s.sent[target];

  auto completion = std::make_shared<RequestState>(s.comm.my_node());
  Status status =
      device.rma(my_global, target_global, desc, {}, nullptr, completion);
  if (!status) return status;
  s.synced[target] = s.sent[target];
  const MpiStatus ack = completion->wait();
  if (ack.error != ErrorCode::kOk) {
    return Status(ack.error, "one-sided completion fence failed");
  }
  return Status::ok();
}

Status Win::flush_local() {
  State& s = *state_;
  // A get's reply is its completion event.
  for (auto& get : s.pending_gets) get.wait();
  s.pending_gets.clear();
  return Status::ok();
}

Status Win::quiesce() {
  State& s = *state_;
  // 1. My outstanding gets.
  flush_local();

  // 2. Flush puts/accumulates: one cumulative sync per dirty target; the
  //    target acks once its applied-ledger catches up.
  Status failure = Status::ok();
  for (auto& [target, sent_count] : s.sent) {
    if (sent_count <= s.synced[target]) continue;
    if (Status status = flush_target(target, RmaKind::kSync,
                                     RmaLockType::kNone);
        !status) {
      failure = status;
    }
  }

  // 3. Nobody leaves until every rank's issued ops have landed (steps 1-2
  //    on every rank).
  Status barrier = s.comm.barrier();
  return failure ? barrier : failure;
}

Status Win::fence() {
  State& s = *state_;
  if (s.freed) {
    return s.comm.raise_error(
        Status(ErrorCode::kInvalidArgument, "fence on a freed window"));
  }
  // The epoch boundary: puts within the closing epoch are visible after it.
  Status status = quiesce();
  s.fence_open = true;
  if (!status) return s.comm.raise_error(status);
  return Status::ok();
}

Status Win::lock(RmaLockType type, rank_t target) {
  State& s = *state_;
  if (type == RmaLockType::kNone) {
    return s.comm.raise_error(
        Status(ErrorCode::kInvalidArgument, "lock type must be shared or "
                                            "exclusive"));
  }
  if (target < 0 || target >= s.comm.size()) {
    return s.comm.raise_error(Status(
        ErrorCode::kInvalidArgument,
        "lock target rank " + std::to_string(target) + " outside the comm"));
  }
  if (s.locked.count(target) != 0) {
    return s.comm.raise_error(Status(ErrorCode::kInvalidArgument,
                                     "lock already held on the target"));
  }
  const rank_t my_global = s.comm.global_rank_of(s.comm.rank());
  const rank_t target_global = s.comm.global_rank_of(target);
  Runtime* runtime = s.comm.shared_->runtime;

  if (runtime->node_of(my_global).id() == runtime->node_of(target_global).id()) {
    WinTarget* win = runtime->context_of(target_global).find_window(s.win_id);
    if (win == nullptr) {
      return s.comm.raise_error(
          Status(ErrorCode::kNotConnected, "target window not registered"));
    }
    std::unique_lock<std::mutex> guard(win->mutex);
    if (win->grantable(type)) {
      win->acquire(type);
    } else {
      // Queue behind earlier waiters (FIFO): the grant closure fires when
      // the releaser hands the lock over (possibly from a poller thread).
      auto granted = std::make_shared<bool>(false);
      win->waiters.push_back(
          {type, [win, granted] {
             {
               std::lock_guard<std::mutex> relock(win->mutex);
               *granted = true;
             }
             win->cv.notify_all();
             marcel::engine_notify();
           }});
      marcel::engine_wait(guard, win->cv, [&] { return *granted; });
    }
  } else {
    Device& device = s.comm.device_to(target);
    if (!device.supports_rma()) {
      return s.comm.raise_error(Status(
          ErrorCode::kProtocol, "inter-node device has no one-sided support"));
    }
    RmaDesc desc;
    desc.win_id = s.win_id;
    desc.kind = RmaKind::kLock;
    desc.lock = type;
    auto completion = std::make_shared<RequestState>(s.comm.my_node());
    Status status =
        device.rma(my_global, target_global, desc, {}, nullptr, completion);
    if (!status) return s.comm.raise_error(status);
    const MpiStatus grant = completion->wait();
    if (grant.error != ErrorCode::kOk) {
      return s.comm.raise_error(Status(grant.error, "lock request failed"));
    }
  }
  s.locked[target] = type;
  return Status::ok();
}

Status Win::unlock(rank_t target) {
  State& s = *state_;
  auto held = s.locked.find(target);
  if (held == s.locked.end()) {
    return s.comm.raise_error(
        Status(ErrorCode::kInvalidArgument, "unlock without a held lock"));
  }
  const RmaLockType type = held->second;

  // Gets issued under the lock complete before the release (MPI unlock
  // semantics: all ops are done when unlock returns).
  flush_local();

  const rank_t my_global = s.comm.global_rank_of(s.comm.rank());
  const rank_t target_global = s.comm.global_rank_of(target);
  Runtime* runtime = s.comm.shared_->runtime;

  Status status = Status::ok();
  if (runtime->node_of(my_global).id() == runtime->node_of(target_global).id()) {
    WinTarget* win = runtime->context_of(target_global).find_window(s.win_id);
    if (win == nullptr) {
      status = Status(ErrorCode::kNotConnected, "target window vanished");
    } else {
      std::vector<std::function<void()>> grants;
      {
        std::lock_guard<std::mutex> lock(win->mutex);
        grants = win->release_and_grant(type);
      }
      for (auto& grant : grants) grant();
    }
  } else {
    // The release rides the completion fence: the target drops the lock
    // only after every op sent under it has been applied, then acks.
    status = flush_target(target, RmaKind::kUnlock, type);
  }
  s.locked.erase(held);
  if (!status) return s.comm.raise_error(status);
  return status;
}

Status Win::free() {
  State& s = *state_;
  if (s.freed) return Status::ok();

  // After quiescing, no rank has one-sided traffic for this window in
  // flight anywhere, so unregistering is safe.
  Status status = quiesce();
  s.comm.my_context().unregister_window(s.win_id);
  s.local->backing = ChunkRef();  // release the slab registration
  s.freed = true;
  s.fence_open = false;
  if (!status) return s.comm.raise_error(status);
  return Status::ok();
}

}  // namespace madmpi::mpi
