// One-sided (RMA) building blocks shared between the generic MPI layer and
// the ch_mad device: the wire descriptor carried EXPRESS with every
// one-sided packet, and the target-side window state the polling thread
// operates on.
//
// Design (ROADMAP "RMA over the slab pool"; the RDMA-channel literature in
// PAPERS.md): a window is a registered memory region. A put travels as one
// control header plus a body the target-side handler lands directly into
// window memory — no unexpected-store staging, no rendezvous bounce. A put
// is an accumulate with RmaOp::kReplace: both take one path at the origin
// and one landing (WinTarget::apply) at the target. Epoch completion is a
// per-origin cumulative ledger: each put/accumulate applied at the target
// bumps `applied[origin]`; a fence or unlock carries the origin's
// cumulative sent-count and is acknowledged once the ledger catches up, so
// completion needs no per-message acks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <vector>

#include "common/slab_pool.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "mpi/datatype.hpp"
#include "mpi/op.hpp"

namespace madmpi::mpi {

/// The one-sided verbs as they appear on the wire: every one-sided packet
/// carries its RmaDesc, and the kind picks the target's handler.
enum class RmaKind : std::uint8_t {
  kNone = 0,
  kPut,         // data stored at desc.offset in the target window
  kGet,         // request: target replies with window bytes
  kGetReply,    // reply carrying the requested bytes
  kAccumulate,  // data combined into the window with desc.op
  kLock,        // passive-target lock request
  kLockGrant,   // lock granted (reply)
  kUnlock,      // lock release + completion fence (carries op_count)
  kSync,        // active-target completion fence (carries op_count)
  kAck,         // kSync/kUnlock acknowledgement
};

/// Trace label of a one-sided packet.
inline const char* rma_kind_name(RmaKind kind) {
  static constexpr const char* kNames[] = {  // indexed by RmaKind
      "rma",      "rma_put",  "rma_get",        "rma_get_reply",
      "rma_acc",  "rma_lock", "rma_lock_grant", "rma_unlock",
      "rma_sync", "rma_ack"};
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(kNames) ? kNames[index] : "rma";
}

enum class RmaLockType : std::uint8_t { kNone = 0, kShared, kExclusive };

/// Element type of a one-sided transfer. Only the primitive widths matter
/// on the wire (byte-swap on heterogeneous peers) plus the arithmetic kind
/// for accumulate; derived datatypes pack at the origin and travel as
/// kByte (no swap — matching MPI's restriction of accumulate to
/// predefined types).
enum class RmaType : std::uint8_t {
  kByte = 0,
  kInt8,
  kUint8,
  kInt32,
  kUint32,
  kInt64,
  kUint64,
  kFloat32,
  kFloat64,
};

inline Datatype rma_datatype(RmaType type) {
  switch (type) {
    case RmaType::kByte: return Datatype::byte();
    case RmaType::kInt8: return Datatype::int8();
    case RmaType::kUint8: return Datatype::uint8();
    case RmaType::kInt32: return Datatype::int32();
    case RmaType::kUint32: return Datatype::uint32();
    case RmaType::kInt64: return Datatype::int64();
    case RmaType::kUint64: return Datatype::uint64();
    case RmaType::kFloat32: return Datatype::float32();
    case RmaType::kFloat64: return Datatype::float64();
  }
  return Datatype::byte();
}

inline std::size_t rma_type_width(RmaType type) {
  switch (type) {
    case RmaType::kByte:
    case RmaType::kInt8:
    case RmaType::kUint8: return 1;
    case RmaType::kInt32:
    case RmaType::kUint32:
    case RmaType::kFloat32: return 4;
    case RmaType::kInt64:
    case RmaType::kUint64:
    case RmaType::kFloat64: return 8;
  }
  return 1;
}

/// Byte-swap `bytes` bytes of `type` elements in place (no-op for
/// single-byte types).
inline void rma_swap(RmaType type, std::byte* data, std::size_t bytes) {
  if (rma_type_width(type) <= 1 || bytes == 0) return;
  rma_datatype(type).swap_packed_bytes(data, bytes);
}

/// Reduction selector for accumulate (the wire-encodable subset of Op).
/// kReplace is MPI_REPLACE: a plain store, giving MPI_Put semantics.
enum class RmaOp : std::uint8_t {
  kReplace = 0,
  kSum,
  kProd,
  kMin,
  kMax,
  kLand,
  kLor,
  kBand,
  kBor,
  kBxor,
};

inline Op rma_op(RmaOp op) {
  switch (op) {
    case RmaOp::kSum: return Op::sum();
    case RmaOp::kProd: return Op::prod();
    case RmaOp::kMin: return Op::min();
    case RmaOp::kMax: return Op::max();
    case RmaOp::kLand: return Op::land();
    case RmaOp::kLor: return Op::lor();
    case RmaOp::kBand: return Op::band();
    case RmaOp::kBor: return Op::bor();
    case RmaOp::kBxor: return Op::bxor();
    case RmaOp::kReplace: break;  // rma_land stores instead
  }
  return Op::sum();
}

/// The one landing step of every one-sided transfer: store `data` at `dst`
/// (kReplace; a put, a get's snapshot or its reply) or combine it into
/// `dst` with `op`. `swap` says `data` holds `type` elements in the other
/// byte order: a store swaps in place after the copy, a reduction needs
/// host-order operands and so stages one swapped copy. Counts the copy; the
/// caller charges virtual time.
void rma_land(std::byte* dst, byte_span data, RmaType type, RmaOp op,
              bool swap);

/// The fixed one-sided descriptor carried EXPRESS in the ch_mad packet
/// header (flat POD; unused fields are zero for kinds that do not need
/// them, like the rest of PacketHeader).
struct RmaDesc {
  std::uint64_t win_id = 0;
  RmaKind kind = RmaKind::kNone;
  RmaType type = RmaType::kByte;
  RmaOp op = RmaOp::kReplace;
  RmaLockType lock = RmaLockType::kNone;
  std::uint64_t offset = 0;    // byte offset into the target window
  std::uint64_t bytes = 0;     // payload bytes (put/accumulate/get)
  std::uint64_t op_count = 0;  // cumulative ops sent (kSync/kUnlock fence)
};

/// Target-side state of one window exposure on one rank. Registered in the
/// rank's RankContext so the device polling thread resolves incoming RMA
/// packets by window id; every field below `mutex` is guarded by it.
///
/// Closure discipline: methods returning closures are called with `mutex`
/// held and the closures must be run after it is released — they send
/// packets (lock grants, fence acks) and sending from under a window lock
/// would invert the lock order against the poller.
struct WinTarget {
  std::byte* base = nullptr;
  std::size_t bytes = 0;
  ChunkRef backing;  // non-null when the window is slab-allocated

  std::mutex mutex;
  std::condition_variable cv;  // wakes same-node lock waiters

  // Passive-target lock state (FIFO-fair: a new request is granted only
  // when no earlier waiter is queued).
  int shared_holders = 0;
  bool exclusive_held = false;
  struct LockWaiter {
    RmaLockType type = RmaLockType::kShared;
    std::function<void()> grant;  // runs once the lock is handed over
  };
  std::deque<LockWaiter> waiters;

  // Cumulative puts/accumulates applied, per origin global rank: the
  // epoch-completion ledger.
  std::map<rank_t, std::uint64_t> applied;

  // Fence/unlock acknowledgements waiting for the ledger to catch up.
  struct PendingAck {
    rank_t origin = kInvalidRank;
    std::uint64_t expect = 0;
    RmaLockType release = RmaLockType::kNone;  // unlock: lock to drop first
    std::function<void()> fire;
  };
  std::vector<PendingAck> pending_acks;

  // Stats (introspection / tests).
  std::uint64_t puts_applied = 0;
  std::uint64_t accs_applied = 0;

  bool grantable(RmaLockType type) const {
    if (!waiters.empty()) return false;
    if (type == RmaLockType::kExclusive) {
      return !exclusive_held && shared_holders == 0;
    }
    return !exclusive_held;
  }

  void acquire(RmaLockType type) {
    if (type == RmaLockType::kExclusive) {
      exclusive_held = true;
    } else {
      ++shared_holders;
    }
  }

  /// Hand the lock to as many queued waiters as the state admits: the
  /// head exclusive waiter alone, or every leading shared waiter.
  std::vector<std::function<void()>> grant_waiters() {
    std::vector<std::function<void()>> grants;
    while (!waiters.empty()) {
      LockWaiter& head = waiters.front();
      if (head.type == RmaLockType::kExclusive) {
        if (exclusive_held || shared_holders > 0) break;
        exclusive_held = true;
        grants.push_back(std::move(head.grant));
        waiters.pop_front();
        break;
      }
      if (exclusive_held) break;
      ++shared_holders;
      grants.push_back(std::move(head.grant));
      waiters.pop_front();
    }
    cv.notify_all();
    return grants;
  }

  std::vector<std::function<void()>> release_and_grant(RmaLockType type) {
    if (type == RmaLockType::kExclusive) {
      exclusive_held = false;
    } else if (shared_holders > 0) {
      --shared_holders;
    }
    return grant_waiters();
  }

  /// Land one put or accumulate (`data` is desc.bytes long, in range) and
  /// count it. Caller holds `mutex`.
  void apply(const RmaDesc& desc, byte_span data, bool swap) {
    rma_land(base + desc.offset, data, desc.type, desc.op, swap);
    ++(desc.kind == RmaKind::kPut ? puts_applied : accs_applied);
  }

  /// One put/accumulate from `origin` was applied: bump the ledger and
  /// collect every fence acknowledgement (plus any lock grants an unlock
  /// release unblocks) that became runnable.
  std::vector<std::function<void()>> note_applied(rank_t origin) {
    ++applied[origin];
    std::vector<std::function<void()>> ready;
    const std::uint64_t level = applied[origin];
    for (auto it = pending_acks.begin(); it != pending_acks.end();) {
      if (it->origin == origin && level >= it->expect) {
        if (it->release != RmaLockType::kNone) {
          auto grants = release_and_grant(it->release);
          for (auto& grant : grants) ready.push_back(std::move(grant));
        }
        ready.push_back(std::move(it->fire));
        it = pending_acks.erase(it);
      } else {
        ++it;
      }
    }
    return ready;
  }
};

}  // namespace madmpi::mpi
