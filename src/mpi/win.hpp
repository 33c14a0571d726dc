// MPI-3-style one-sided communication: windows, put/get/accumulate, and
// the fence / lock-unlock synchronization epochs (ROADMAP "RMA over the
// slab pool").
//
// A window is a registered memory region, slab-backed when allocated here
// (Win::allocate) or caller-owned (Win::create). One-sided data travels as
// an EXPRESS control header plus a ChunkRef body the target-side ch_mad
// handler lands directly into window memory — no unexpected-store staging,
// no rendezvous bounce. Completion bookkeeping is a per-origin cumulative
// ledger (see rma.hpp): puts and accumulates are fire-and-forget, and a
// fence or unlock carries the origin's cumulative sent-count, acknowledged
// once the target's ledger catches up.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "common/status.hpp"
#include "mpi/comm.hpp"
#include "mpi/rma.hpp"

namespace madmpi::mpi {

/// Value-semantic window handle (MPI_Win); copies share one per-rank
/// state. All window calls are made on the owning rank's thread.
class Win {
 public:
  Win() = default;  // invalid handle
  bool valid() const { return state_ != nullptr; }

  /// Collective over `comm`: expose a fresh slab-backed region of `bytes`
  /// bytes (registered memory in the RDMA sense; MPI_Win_allocate).
  static Win allocate(const Comm& comm, std::size_t bytes);

  /// Collective: register caller-owned memory (MPI_Win_create). `base`
  /// must stay valid until free().
  static Win create(const Comm& comm, void* base, std::size_t bytes);

  /// This rank's exposed region.
  std::byte* base();
  std::size_t size() const;
  std::uint64_t id() const;

  /// One-sided transfers. `target` is a comm rank; `target_offset` is a
  /// byte offset into the target's window. All three require an open
  /// access epoch towards `target` (a fence epoch, or a held lock) and
  /// validate bounds against the target's window size — violations raise
  /// through the communicator's errhandler.
  Status put(const void* origin, int count, RmaType type, rank_t target,
             std::uint64_t target_offset);
  Status get(void* origin, int count, RmaType type, rank_t target,
             std::uint64_t target_offset);
  Status accumulate(const void* origin, int count, RmaType type, RmaOp op,
                    rank_t target, std::uint64_t target_offset);

  /// Active-target epoch boundary (MPI_Win_fence, collective): completes
  /// every outstanding operation this rank issued (gets included), waits
  /// until every operation targeting this rank has landed, and opens the
  /// next epoch. After the fence, every put issued before it is visible
  /// in its target window.
  Status fence();

  /// Passive-target epoch: lock the window at `target` (kShared admits
  /// concurrent shared holders, kExclusive is solitary; FIFO-fair).
  /// Blocks until granted.
  Status lock(RmaLockType type, rank_t target);

  /// Completes every operation issued under the lock at the target, then
  /// releases it. After unlock() returns, the transferred data is visible
  /// in the target window.
  Status unlock(rank_t target);

  /// Local completion of this rank's outstanding gets without closing the
  /// epoch (MPI_Win_flush_local's useful half: a get's origin buffer is
  /// readable afterwards).
  Status flush_local();

  /// Collective teardown (MPI_Win_free): quiesces all traffic, then
  /// unregisters and releases the slab backing.
  Status free();

  /// Target-side statistics of this rank's window (tests/benches).
  std::uint64_t puts_applied() const;
  std::uint64_t accumulates_applied() const;

 private:
  struct State;
  static Win init(const Comm& comm, void* base, std::size_t bytes,
                  ChunkRef backing);
  Status access_check(rank_t target, std::uint64_t offset,
                      std::uint64_t bytes);
  /// The one origin routine of put, accumulate and get: `desc` names the
  /// kind, type, op and offset; `source` is read by a put or accumulate,
  /// `get_dest` written by a get.
  Status issue(RmaDesc desc, int count, rank_t target, const void* source,
               void* get_dest);
  Status flush_target(rank_t target, RmaKind kind, RmaLockType release);
  /// Complete this rank's gets, flush every dirty target, then a barrier:
  /// the shared body of fence() and free(). Returns the first failure.
  Status quiesce();

  std::shared_ptr<State> state_;
};

}  // namespace madmpi::mpi
