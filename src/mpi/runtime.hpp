// The runtime services the generic MPI layer needs from its host (the
// core::Session implements this over the simulated cluster).
#pragma once

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "mpi/adi.hpp"
#include "mpi/coll_offload.hpp"
#include "mpi/coll_types.hpp"
#include "mpi/matching.hpp"
#include "sim/node.hpp"

namespace madmpi::mpi {

/// What the collective engine knows about the best route between two global
/// ranks — a digest of the ch_mad channel election, not the channel itself.
/// `quality` is an ordinal (higher = faster protocol class, 0 = same rank);
/// the offload fields mirror the elected link's LinkCostModel collective-
/// offload extension and are meaningful only when `offload` is true.
struct CollLink {
  int quality = 1;
  bool offload = false;
  usec_t offload_post_us = 0.0;
  usec_t offload_hop_us = 0.0;
  double offload_bytes_per_us = 1.0;
  usec_t offload_notify_us = 0.0;
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Number of ranks in the world.
  virtual int world_size() const = 0;

  /// The machine hosting a global rank (its clock is MPI_Wtime's source).
  virtual sim::Node& node_of(rank_t global) = 0;

  /// The matching context of a global rank.
  virtual RankContext& context_of(rank_t global) = 0;

  /// Device selected for src -> dst traffic (the ADI multi-device
  /// dispatch: ch_self for self, smp_plug within a node, ch_mad across
  /// nodes — paper §4.1).
  virtual Device& device_for(rank_t src, rank_t dst) = 0;

  /// Deterministic collective context-id derivation: all ranks of a
  /// communicator calling with the same (parent_context, key) receive the
  /// same fresh id; distinct keys receive distinct ids. `key` encodes the
  /// creation sequence number and (for split) the color.
  virtual int derive_context_id(int parent_context, std::int64_t key) = 0;

  /// Link digest between two global ranks for the hierarchical collective
  /// engine: the elected protocol's performance class and its NIC-offload
  /// capability. The default (uniform quality, no offload) reproduces the
  /// flat single-island topology, so hosts that don't override this keep
  /// the historical algorithms.
  virtual CollLink coll_link(rank_t a_global, rank_t b_global) {
    CollLink link;
    link.quality = (a_global == b_global) ? 0 : 1;
    return link;
  }

  /// Failure detector for the fault-tolerant collectives: true when the
  /// host knows data can no longer flow from `from` to `to` (every route
  /// dead, in that direction — link faults are directional). The default
  /// never reports a failure, so hosts without fault modelling keep the
  /// pre-FT behaviour.
  virtual bool peer_unreachable(rank_t from_global, rank_t to_global) {
    (void)from_global;
    (void)to_global;
    return false;
  }

  // --- Collective engine services --------------------------------------

  /// The NIC-offload rendezvous board (modeled firmware trees). Lives on
  /// the runtime because one offloaded operation spans every leader rank,
  /// while derived communicators clone their Shared state per rank.
  CollOffloadBoard& coll_offload_board() { return offload_board_; }

  /// The auto-tuner's session-wide decision table (invalid until
  /// MADMPI_COLL_TUNE ran tune_collectives). kAuto resolution consults it.
  CollDecisionTable coll_decision_table() const {
    std::lock_guard<std::mutex> lock(coll_table_mutex_);
    return coll_table_;
  }
  void set_coll_decision_table(const CollDecisionTable& table) {
    std::lock_guard<std::mutex> lock(coll_table_mutex_);
    coll_table_ = table;
  }

  // --- Communicator revocation (ULFM Comm::revoke) --------------------
  //
  // The registry lives on the runtime (not a process-global) so each
  // session's revocations die with it. In a real MPI the revocation
  // would be flooded over the wire; within one simulated session the
  // shared registry models the post-flood steady state. The atomic count
  // keeps the not-revoked fast path off the mutex — every operation
  // entry consults it.

  bool context_revoked(int context) const {
    if (revoked_count_.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard<std::mutex> lock(revoked_mutex_);
    return std::find(revoked_contexts_.begin(), revoked_contexts_.end(),
                     context) != revoked_contexts_.end();
  }

  void revoke_context(int context) {
    std::lock_guard<std::mutex> lock(revoked_mutex_);
    if (std::find(revoked_contexts_.begin(), revoked_contexts_.end(),
                  context) == revoked_contexts_.end()) {
      revoked_contexts_.push_back(context);
      revoked_count_.fetch_add(1, std::memory_order_release);
    }
  }

 private:
  CollOffloadBoard offload_board_;
  mutable std::mutex coll_table_mutex_;
  CollDecisionTable coll_table_;

  mutable std::mutex revoked_mutex_;
  std::vector<int> revoked_contexts_;
  std::atomic<int> revoked_count_{0};
};

}  // namespace madmpi::mpi
