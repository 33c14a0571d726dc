// Internal: the state shared by every rank's handle of one communicator.
// Included by the mpi/ sources that implement Comm.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mpi/coll_topo.hpp"
#include "mpi/comm.hpp"

namespace madmpi::mpi {

/// The group maps communicator ranks to global ranks; `context` is the
/// point-to-point context id and `context + 1` the collective one (the
/// classic MPICH two-context scheme keeping collective traffic from
/// matching user receives).
struct Comm::Shared {
  Runtime* runtime = nullptr;
  int context = 0;
  std::vector<rank_t> group;

  /// Per-comm-rank error handlers (MPI_Comm_set_errhandler is local, so
  /// each rank owns its slot; the mutex covers world comms where every
  /// rank thread shares this object). Empty vector = all errors_return().
  std::mutex errhandler_mutex;
  std::vector<Errhandler> errhandlers;

  // Per-rank count of derived-communicator creations (collective calls, so
  // all ranks' counters stay equal; used to derive matching context ids).
  std::vector<int> creation_seq;

  // Per-rank count of fault-tolerant collective invocations. Collectives
  // are called in lockstep on every rank, so the counters stay equal and
  // serve as the epoch in FT message tags — quarantining stragglers of a
  // failed collective from the next one's matching. Lazily sized so every
  // Shared creation path (world/dup/split/create/shrink) gets it for free.
  std::vector<int> coll_epoch;

  // Per-rank count of nonblocking-collective starts. Like coll_epoch these
  // stay equal across ranks (i-colls are collective calls), and the value
  // stamps each operation's instance tag so concurrent outstanding i-colls
  // never cross-match (two iallreduces sharing one tag can overtake each
  // other at a folded pair — the schedules have no cross-op ordering).
  std::vector<std::uint64_t> icoll_seq;

  // Per-rank count of NIC-offloaded collective invocations; keys the
  // runtime-wide offload board so back-to-back offloaded barriers on the
  // same communicator land on distinct board slots.
  std::vector<std::uint64_t> offload_seq;

  // Topology digest for the hierarchical algorithms, built on first use.
  // Deterministic per (runtime, group), so every rank's lazy build agrees.
  std::shared_ptr<const CollTopo> topo;

  // Per-comm-rank collective tuning. set_collective_config is local, like
  // the errhandlers: one rank's change must not reach a peer that is still
  // resolving the current collective. Lazily sized, like the counters.
  std::vector<CollectiveConfig> collectives;

  std::mutex seq_mutex;
  CollectiveConfig& collectives_of(rank_t comm_rank) {
    // Callers hold seq_mutex.
    if (collectives.size() < group.size()) collectives.resize(group.size());
    return collectives[static_cast<std::size_t>(comm_rank)];
  }
  int next_seq(rank_t comm_rank) {
    std::lock_guard<std::mutex> lock(seq_mutex);
    return creation_seq[static_cast<std::size_t>(comm_rank)]++;
  }
  int next_epoch(rank_t comm_rank) {
    std::lock_guard<std::mutex> lock(seq_mutex);
    if (coll_epoch.size() < group.size()) coll_epoch.resize(group.size(), 0);
    return coll_epoch[static_cast<std::size_t>(comm_rank)]++;
  }
  std::uint64_t next_icoll_seq(rank_t comm_rank) {
    std::lock_guard<std::mutex> lock(seq_mutex);
    if (icoll_seq.size() < group.size()) icoll_seq.resize(group.size(), 0);
    return icoll_seq[static_cast<std::size_t>(comm_rank)]++;
  }
  std::uint64_t next_offload_seq(rank_t comm_rank) {
    std::lock_guard<std::mutex> lock(seq_mutex);
    if (offload_seq.size() < group.size()) offload_seq.resize(group.size(), 0);
    return offload_seq[static_cast<std::size_t>(comm_rank)]++;
  }
};

}  // namespace madmpi::mpi
