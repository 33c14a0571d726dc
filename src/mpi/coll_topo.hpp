// Per-communicator topology digest for the hierarchical collective engine.
//
// The digest condenses what ch_mad already knows — which ranks share a node
// (smp_plug islands) and which protocol the router elects per node pair —
// into the three-level structure the algorithms walk:
//
//   island   = the ranks of one node (members[0] is the leader)
//   cluster  = islands connected by better-than-worst links (e.g. the SCI
//              machines of a cluster-of-clusters; the worst protocol — the
//              TCP interconnect — only appears between clusters)
//   reps     = one leader per cluster (the only ranks that ever cross the
//              interconnect)
//
// Built once per communicator from the Runtime::coll_link digest and
// cached: a pure function of the (live) topology, identical on every rank.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mpi/types.hpp"

namespace madmpi::mpi {

class Runtime;

struct CollTopo {
  struct Island {
    /// Comm ranks on this node, ascending; members[0] is the leader.
    std::vector<rank_t> members;
    int cluster = 0;
  };

  /// Islands ordered by leader rank (deterministic across ranks).
  std::vector<Island> islands;
  /// comm rank -> index into islands.
  std::vector<int> island_of;
  /// cluster -> island indices; clusters[c][0]'s leader is the cluster rep.
  std::vector<std::vector<int>> clusters;

  /// True when the whole communicator is one node (or one rank): the
  /// hierarchy collapses and kAuto resolves to the flat algorithms.
  bool single_island() const { return islands.size() <= 1; }
  bool single_cluster() const { return clusters.size() <= 1; }

  rank_t leader_of_island(int island) const {
    return islands[static_cast<std::size_t>(island)].members[0];
  }
  rank_t rep_of_cluster(int cluster) const {
    return leader_of_island(clusters[static_cast<std::size_t>(cluster)][0]);
  }

  /// NIC offload: true when every inter-island leader link supports the
  /// modeled collective offload (single protocol class among leaders).
  bool offload_capable = false;
  usec_t offload_post_us = 0.0;
  usec_t offload_hop_us = 0.0;
  double offload_bytes_per_us = 1.0;
  usec_t offload_notify_us = 0.0;
};

/// Build the digest for `group` (comm rank -> global rank). Deterministic:
/// depends only on the runtime's node mapping and coll_link answers.
std::shared_ptr<const CollTopo> build_coll_topo(
    Runtime& runtime, const std::vector<rank_t>& group);

// Member-list construction for the hierarchical trees, re-rooted at the
// user's root: the root stands in for its island's leader and its
// cluster's rep, so data originates/terminates at the root without an
// extra hop. The hierarchical schedule generators (coll_schedule.cpp)
// compose their levels over these lists.

/// Leaders of one cluster's islands, effective rep first.
std::vector<rank_t> cluster_leader_list(const CollTopo& topo, int cluster,
                                        int root_island, rank_t root);
/// One island's members, effective leader first.
std::vector<rank_t> island_member_list(const CollTopo& topo, int island,
                                       int root_island, rank_t root);
/// One effective rep per cluster, the root's cluster first.
std::vector<rank_t> rep_list(const CollTopo& topo, int root_cluster,
                             rank_t root);

}  // namespace madmpi::mpi
