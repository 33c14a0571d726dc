// One schedule per collective shape.
//
// Every collective except the two compositions (allgatherv,
// reduce_scatter_block) is a per-rank Schedule built by a pure generator
// from (topology digest or size, rank, root, bytes or per-rank blocks),
// then run by one runner (coll_schedule.cpp) over an (in, out) buffer
// pair: Send steps read `in`, Recv steps land in `out` or the run's
// scratch, Reduce steps fold scratch into `out`. The in-place shapes
// (barrier, bcast, reduce, allreduce, allgather, scan) pass the same
// buffer twice. The runner has two drives:
//
//   inline  (every blocking collective): the calling rank posts a round's
//           receives, sends (one coll_send, or coll_send_multi for a
//           fan-out, so credit back-pressure still blocks), waits, then
//           folds. Under FT capture a hop the detector proves dead is
//           skipped and recorded (coll_post_recv, coll_send).
//   hooked  (ibarrier/ibcast/iallreduce): a pending-count pump advanced
//           from RequestState completion hooks under a per-instance tag;
//           it never blocks.
//
// Each shape is generated in exactly one place: the binomial tree over an
// explicit member list (bcast down, reduce up), the flat fan-out,
// recursive doubling with the non-power-of-two fold, the ring
// (reduce-scatter, then the allgather pass that allgather runs alone),
// dissemination, the linear fan-in (gather), the linear fan-out
// (scatter), the pairwise exchange (alltoall) and the prefix chain
// (scan). The hierarchical and offload algorithms are compositions of
// these over the coll_topo.hpp member lists; the offload adds one
// blocking Offload step backed by the runtime's CollOffloadBoard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "mpi/coll_topo.hpp"
#include "mpi/coll_types.hpp"

namespace madmpi::mpi {

class RequestState;

// Blocking-collective tags on the collective context (collectives on one
// communicator are serialized, so a tag only has to separate the phases
// of one call; FT capture remaps them per epoch). The nonblocking drive
// replaces every step's tag with its instance tag.
inline constexpr int kBarrierTag = 1;
inline constexpr int kBcastTag = 2;
inline constexpr int kReduceTag = 3;
inline constexpr int kGatherTag = 4;
inline constexpr int kScatterTag = 5;
inline constexpr int kAllgatherTag = 6;
inline constexpr int kAlltoallTag = 7;
inline constexpr int kScanTag = 8;

/// Thrown by the inline drive's p2p helpers when a hop fails, unwinding
/// the algorithm to the public entry point, which routes the status
/// through the communicator's error handler (exactly once per user-visible
/// operation) and returns it. Collectives define no recovery protocol —
/// peers of the failed rank may be left mid-algorithm and rely on the
/// progress watchdog to cancel their now-unmatchable operations.
struct CollAbort {
  Status status;
};

/// Wait for an algorithm-internal receive, throwing CollAbort when it
/// completed with an error (watchdog cancellation of a dead hop). In FT
/// capture mode the failure is recorded and the algorithm continues —
/// every rank runs the full schedule so no peer is left waiting on a hop
/// that will never be posted; the verdict feeds the uniform agreement.
void coll_wait(RequestState& state);

enum class StepKind : std::uint8_t { kRecv, kSend, kReduce, kOffload };

/// Where a Recv step lands: the run's `out` buffer (the user buffer or its
/// packed staging) or the per-run scratch that holds a partner's
/// contribution until a Reduce folds it.
enum class Region : std::uint8_t { kOut, kScratch };

enum class OffloadOp : std::uint8_t { kBarrier, kBcastPut, kBcastGet };

/// The fields are ordered to pack into 48 bytes: a rank of an alltoall
/// holds 2(n-1) steps while it waits.
struct Step {
  StepKind kind = StepKind::kSend;
  Region region = Region::kOut;
  OffloadOp offload = OffloadOp::kBarrier;
  int tag = 0;
  /// Recv/Send: the partner (comm rank).
  rank_t peer = kInvalidRank;
  /// Offload: participating leaders.
  int leaders = 0;
  /// Recv: byte range in `region`. Send: byte range in `in`. Reduce: fold
  /// scratch[0, bytes) into out[offset, offset + bytes). Offload: payload
  /// size.
  std::size_t offset = 0;
  std::size_t bytes = 0;
  /// Offload: the host's descriptor-post charge and the modeled NIC tree
  /// cost.
  usec_t post_us = 0.0;
  usec_t tree_us = 0.0;
};

/// One round: Recv steps, then Send steps, then local Reduce steps — or a
/// lone Offload step. A round with several sends is a fan-out of one
/// payload (same range, bytes and tag).
using Round = std::span<const Step>;

struct Schedule {
  /// Every round's steps, in order; round i is steps[ends[i-1], ends[i]).
  std::vector<Step> steps;
  std::vector<std::size_t> ends;
  std::size_t scratch_bytes = 0;
  /// Every rank of an offloaded collective draws an offload-board key,
  /// leader or not, so the per-rank key counters stay in lockstep.
  bool offload = false;

  std::size_t rounds() const { return ends.size(); }
  Round round(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return Round(steps.data() + begin, ends[i] - begin);
  }
  /// Close the round of the steps added since the last call, if any.
  void end_round() {
    if (steps.size() > (ends.empty() ? 0 : ends.back())) {
      ends.push_back(steps.size());
    }
  }
};

/// One rank's slice of a gather/scatter/allgather/alltoall buffer: the
/// generators address rank r's data at blocks[r] and leave a rank's own
/// block to the caller's local copy. The v-variants give ragged (and
/// zero-byte) blocks; the plain ones equal, adjacent blocks.
struct Block {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

// Generators. Pure functions of their arguments; the communicator size is
// topo.island_of.size(), and the flat shapes read nothing else from it.
// The block shapes take the size `n` directly.

Schedule barrier_schedule(BarrierAlgorithm algorithm, const CollTopo& topo,
                          rank_t rank);
Schedule bcast_schedule(BcastAlgorithm algorithm, const CollTopo& topo,
                        rank_t rank, rank_t root, std::size_t bytes);
/// Reduce to `root`: the hierarchy's fan-in when `hierarchical`, else the
/// binomial tree over ranks rotated to start at the root.
Schedule reduce_schedule(bool hierarchical, const CollTopo& topo,
                         rank_t rank, rank_t root, std::size_t bytes);
/// In-place allreduce of `count` elements of `elem` bytes:
/// kRecursiveDoubling, kRing or kHierarchical (kReduceBcast is composed by
/// the caller from reduce() and bcast()).
Schedule allreduce_schedule(AllreduceAlgorithm algorithm,
                            const CollTopo& topo, rank_t rank, int count,
                            std::size_t elem);
/// Linear fan-in to `root`: every other rank sends its `send_bytes` from
/// `in`; the root lands rank r's in out at recv[r], one receive per round
/// in ascending source order. `recv` is read at the root only.
Schedule gather_schedule(int n, rank_t rank, rank_t root,
                         std::size_t send_bytes, std::span<const Block> recv);
/// Linear fan-out from `root`: the root sends send[r] to each other rank,
/// one send per round in ascending order (unlike the flat bcast, each rank
/// gets its own block); the others land `recv_bytes` at the start of out.
/// `send` is read at the root only.
Schedule scatter_schedule(int n, rank_t rank, rank_t root,
                          std::span<const Block> send,
                          std::size_t recv_bytes);
/// In-place ring allgather: each rank starts holding blocks[rank]; round k
/// (0 <= k < n-1) forwards blocks[rank-k] to rank+1 and lands
/// blocks[rank-k-1] from rank-1.
Schedule allgather_schedule(int n, rank_t rank, std::span<const Block> blocks);
/// Pairwise exchange: round k (1 <= k < n) lands recv[rank-k] from rank-k
/// and sends send[rank+k] to rank+k.
Schedule alltoall_schedule(int n, rank_t rank, std::span<const Block> send,
                           std::span<const Block> recv);
/// In-place inclusive prefix chain over `bytes`: land rank-1's prefix in
/// scratch and fold it, then send the result to rank+1.
Schedule scan_schedule(int n, rank_t rank, std::size_t bytes);

}  // namespace madmpi::mpi
