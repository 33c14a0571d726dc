// One schedule per collective shape.
//
// Every barrier/bcast/reduce/allreduce algorithm — flat, hierarchical or
// NIC-offloaded, blocking or nonblocking — is a per-rank Schedule built by
// a pure generator from (topology digest, rank, root, bytes), then run by
// one runner (coll_schedule.cpp) in one of two drives:
//
//   inline  (barrier/bcast/reduce/allreduce): the calling rank posts a
//           round's receives, sends (one coll_send, or coll_send_multi
//           for a fan-out, so credit back-pressure still blocks), waits,
//           then folds. Under FT capture a hop the detector proves dead
//           is skipped and recorded (coll_post_recv, coll_send).
//   hooked  (ibarrier/ibcast/iallreduce): a pending-count pump advanced
//           from RequestState completion hooks under a per-instance tag;
//           it never blocks.
//
// Five shapes exist, each generated in exactly one place: the binomial
// tree over an explicit member list (bcast down, reduce up), the flat
// fan-out, recursive doubling with the non-power-of-two fold, the ring
// (reduce-scatter + allgather) and dissemination. The hierarchical and
// offload algorithms are compositions of these over the coll_topo.hpp
// member lists; the offload adds one blocking Offload step backed by the
// runtime's CollOffloadBoard.
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

/// The buffer a Recv/Send step addresses: the collective's data (the user
/// buffer or its packed staging) or the per-run scratch that lands a
/// partner's contribution before a Reduce folds it.
enum class Region : std::uint8_t { kData, kScratch };

enum class OffloadOp : std::uint8_t { kBarrier, kBcastPut, kBcastGet };

struct Step {
  StepKind kind = StepKind::kSend;
  Region region = Region::kData;
  OffloadOp offload = OffloadOp::kBarrier;
  int tag = 0;
  /// Recv/Send: the partner (comm rank).
  rank_t peer = kInvalidRank;
  /// Recv/Send: byte range in `region`. Reduce: fold scratch[0, bytes)
  /// into data[offset, offset + bytes). Offload: payload size.
  std::size_t offset = 0;
  std::size_t bytes = 0;
  /// Offload: participating leaders, the host's descriptor-post charge and
  /// the modeled NIC tree cost.
  int leaders = 0;
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

// Generators. Pure functions of their arguments; the communicator size is
// topo.island_of.size(), and the flat shapes read nothing else from it.

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

}  // namespace madmpi::mpi
