// Collective schedules: the shape generators, their hierarchical and
// offload compositions, and the runner's two drives (see coll_schedule.hpp).
#include "mpi/coll_schedule.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>

#include "mpi/coll_offload.hpp"
#include "mpi/comm.hpp"
#include "mpi/comm_shared.hpp"
#include "mpi/ft_internal.hpp"
#include "sim/cost_model.hpp"

namespace madmpi::mpi {

void coll_wait(RequestState& state) {
  const MpiStatus status = state.wait();
  if (status.error != ErrorCode::kOk) {
    if (ft::capture_active()) {
      ft::record(status.error);
      return;
    }
    throw CollAbort{Status(status.error,
                           "collective receive failed mid-algorithm")};
  }
}

// --- Generators ------------------------------------------------------------

namespace {

int comm_size(const CollTopo& topo) {
  return static_cast<int>(topo.island_of.size());
}

int index_of(const std::vector<rank_t>& members, rank_t rank) {
  const auto it = std::find(members.begin(), members.end(), rank);
  return it == members.end() ? -1 : static_cast<int>(it - members.begin());
}

void recv(Schedule& s, rank_t peer, Region region, std::size_t offset,
          std::size_t bytes, int tag) {
  if (region == Region::kScratch) {
    s.scratch_bytes = std::max(s.scratch_bytes, offset + bytes);
  }
  s.steps.push_back(Step{.kind = StepKind::kRecv, .region = region,
                         .tag = tag, .peer = peer, .offset = offset,
                         .bytes = bytes});
}

void send(Schedule& s, rank_t peer, std::size_t offset, std::size_t bytes,
          int tag) {
  s.steps.push_back(Step{.kind = StepKind::kSend, .tag = tag, .peer = peer,
                         .offset = offset, .bytes = bytes});
}

/// Fold the scratch landing into data[offset, offset + bytes); a zero-byte
/// fold (barrier fan-in) has nothing to combine and no step.
void fold(Schedule& s, std::size_t offset, std::size_t bytes) {
  if (bytes > 0) {
    s.steps.push_back(
        Step{.kind = StepKind::kReduce, .offset = offset, .bytes = bytes});
  }
}

/// Generators reserve for the common case (a few rounds of a few steps;
/// the block shapes know their size), so building a schedule costs two
/// allocations.
Schedule reserved(std::size_t steps = 16, std::size_t rounds = 8) {
  Schedule s;
  s.steps.reserve(steps);
  s.ends.reserve(rounds);
  return s;
}

/// Ranks rotated so the root is position 0 (the flat binomial trees).
std::vector<rank_t> rotated(int n, rank_t root) {
  std::vector<rank_t> out;
  for (int i = 0; i < n; ++i) out.push_back((root + i) % n);
  return out;
}

/// The root, then every other rank ascending (the flat fan-out).
std::vector<rank_t> root_first(int n, rank_t root) {
  std::vector<rank_t> out{root};
  for (rank_t r = 0; r < n; ++r) {
    if (r != root) out.push_back(r);
  }
  return out;
}

int tree_depth(int n) {
  int depth = 0;
  while ((1 << depth) < n) ++depth;
  return depth;
}

// Shape 1a: binomial tree down from members[0]. Ranks outside the list
// take no part.
void binomial_bcast(Schedule& s, const std::vector<rank_t>& members,
                    rank_t rank, std::size_t bytes, int tag) {
  const int n = static_cast<int>(members.size());
  const int me = index_of(members, rank);
  if (n <= 1 || me < 0) return;
  auto member = [&](int i) { return members[static_cast<std::size_t>(i)]; };
  int mask = 1;
  while (mask < n) {
    if (me & mask) {
      recv(s, member(me & ~mask), Region::kOut, 0, bytes, tag);
      s.end_round();
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (me + mask < n) send(s, member(me + mask), 0, bytes, tag);
  }
  s.end_round();
}

// Shape 1b: the same tree, folded up into members[0].
void binomial_reduce(Schedule& s, const std::vector<rank_t>& members,
                     rank_t rank, std::size_t bytes, int tag) {
  const int n = static_cast<int>(members.size());
  const int me = index_of(members, rank);
  if (n <= 1 || me < 0) return;
  auto member = [&](int i) { return members[static_cast<std::size_t>(i)]; };
  for (int mask = 1; mask < n; mask <<= 1) {
    if (me & mask) {
      send(s, member(me & ~mask), 0, bytes, tag);
      s.end_round();
      return;
    }
    if ((me | mask) < n) {
      recv(s, member(me | mask), Region::kScratch, 0, bytes, tag);
      fold(s, 0, bytes);
      s.end_round();
    }
  }
}

// Shape 2: flat fan-out from members[0], all children in one round.
void flat_bcast(Schedule& s, const std::vector<rank_t>& members, rank_t rank,
                std::size_t bytes, int tag) {
  if (members.size() <= 1) return;
  if (rank == members.front()) {
    for (std::size_t i = 1; i < members.size(); ++i) {
      send(s, members[i], 0, bytes, tag);
    }
  } else if (index_of(members, rank) >= 0) {
    recv(s, members.front(), Region::kOut, 0, bytes, tag);
  }
  s.end_round();
}

// Shape 3: recursive doubling. For non-power-of-two sizes the `rem`
// lowest odd ranks fold their contribution into their even neighbour, sit
// out the log2 rounds and get the result back at the end.
void recursive_doubling(Schedule& s, int n, rank_t rank, std::size_t bytes,
                        int tag) {
  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  const int rem = n - pof2;
  const bool folded = rank < 2 * rem;
  const bool odd = rank % 2 == 1;
  if (folded && odd) {
    send(s, rank - 1, 0, bytes, tag);
    s.end_round();
  } else {
    if (folded) {
      recv(s, rank + 1, Region::kScratch, 0, bytes, tag);
      fold(s, 0, bytes);
      s.end_round();
    }
    const int core = folded ? rank / 2 : rank - rem;
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner_core = core ^ mask;
      const rank_t partner =
          partner_core < rem ? partner_core * 2 : partner_core + rem;
      recv(s, partner, Region::kScratch, 0, bytes, tag);
      send(s, partner, 0, bytes, tag);
      fold(s, 0, bytes);
      s.end_round();
    }
  }
  if (folded) {
    if (odd) {
      recv(s, rank - 1, Region::kOut, 0, bytes, tag);
    } else {
      send(s, rank + 1, 0, bytes, tag);
    }
    s.end_round();
  }
}

// Shape 4a: the allgather pass. Each rank starts holding blocks[start];
// step k forwards blocks[start-k] to the right and lands blocks[start-k-1]
// from the left, so after n-1 steps every rank holds every block.
void allgather_pass(Schedule& s, int n, rank_t rank, int start,
                    std::span<const Block> blocks, int tag) {
  const rank_t right = (rank + 1) % n;
  const rank_t left = (rank - 1 + n) % n;
  for (int k = 0; k < n - 1; ++k) {
    const Block& out = blocks[static_cast<std::size_t>((start - k + n) % n)];
    const Block& in =
        blocks[static_cast<std::size_t>((start - k - 1 + n) % n)];
    recv(s, left, Region::kOut, in.offset, in.bytes, tag);
    send(s, right, out.offset, out.bytes, tag);
    s.end_round();
  }
}

// Shape 4b: bandwidth-optimal ring — a reduce-scatter pass (n-1 steps over
// n chunks), then the allgather pass circulating the reduced chunks. Each
// rank sends 2*(n-1)/n of the data, independent of n.
void ring(Schedule& s, int n, rank_t rank, int count, std::size_t elem,
          int tag) {
  // Chunk c covers elements [first(c), first(c+1)).
  auto first = [&](int c) {
    return static_cast<std::size_t>(c * (count / n) + std::min(c, count % n));
  };
  std::vector<Block> chunks;
  for (int c = 0; c < n; ++c) {
    chunks.push_back({elem * first(c), elem * (first(c + 1) - first(c))});
  }
  const rank_t right = (rank + 1) % n;
  const rank_t left = (rank - 1 + n) % n;
  // After step k of the first pass, rank r holds the partial reduction of
  // chunk r-k-1 over ranks r-k-1..r; the pass ends with rank r holding
  // chunk r+1 fully reduced.
  for (int k = 0; k < n - 1; ++k) {
    const Block& out = chunks[static_cast<std::size_t>((rank - k + n) % n)];
    const Block& in =
        chunks[static_cast<std::size_t>((rank - k - 1 + n) % n)];
    recv(s, left, Region::kScratch, 0, in.bytes, tag);
    send(s, right, out.offset, out.bytes, tag);
    fold(s, in.offset, in.bytes);
    s.end_round();
  }
  allgather_pass(s, n, rank, rank + 1, chunks, tag);
}

// Shape 5: dissemination — log2(n) rounds of zero-byte exchanges.
void dissemination(Schedule& s, int n, rank_t rank, int tag) {
  for (int mask = 1; mask < n; mask <<= 1) {
    recv(s, (rank - mask + n) % n, Region::kOut, 0, 0, tag);
    send(s, (rank + mask) % n, 0, 0, tag);
    s.end_round();
  }
}

// --- Hierarchical compositions -------------------------------------------
//
// Level 1: one effective rep per cluster crosses the interconnect, as a
// flat fan-out — rep count is the cluster count and every hop pays a full
// serialization on the slowest wire, so the deepest path pays one instead
// of log2(reps). Level 2: island leaders, binomial within each cluster.
// Level 3: ranks within each island. The member lists are re-rooted so the
// user's root stands in for its island leader and cluster rep.

void hierarchy_down(Schedule& s, const CollTopo& topo, rank_t rank,
                    rank_t root, std::size_t bytes, int tag) {
  const int root_island = topo.island_of[static_cast<std::size_t>(root)];
  const int my_island = topo.island_of[static_cast<std::size_t>(rank)];
  if (!topo.single_cluster()) {
    const int root_cluster =
        topo.islands[static_cast<std::size_t>(root_island)].cluster;
    flat_bcast(s, rep_list(topo, root_cluster, root), rank, bytes, tag);
  }
  const int my_cluster =
      topo.islands[static_cast<std::size_t>(my_island)].cluster;
  binomial_bcast(s, cluster_leader_list(topo, my_cluster, root_island, root),
                 rank, bytes, tag);
  binomial_bcast(s, island_member_list(topo, my_island, root_island, root),
                 rank, bytes, tag);
}

/// The fan-in mirror: island, then cluster leaders, then reps (binomial at
/// every level — a reduce combines at each hop, so a flat fan-in would
/// serialize the folds at the root).
void hierarchy_up(Schedule& s, const CollTopo& topo, rank_t rank,
                  rank_t root, std::size_t bytes, int tag) {
  const int root_island = topo.island_of[static_cast<std::size_t>(root)];
  const int my_island = topo.island_of[static_cast<std::size_t>(rank)];
  const int my_cluster =
      topo.islands[static_cast<std::size_t>(my_island)].cluster;
  binomial_reduce(s, island_member_list(topo, my_island, root_island, root),
                  rank, bytes, tag);
  binomial_reduce(s, cluster_leader_list(topo, my_cluster, root_island, root),
                  rank, bytes, tag);
  if (!topo.single_cluster()) {
    const int root_cluster =
        topo.islands[static_cast<std::size_t>(root_island)].cluster;
    binomial_reduce(s, rep_list(topo, root_cluster, root), rank, bytes, tag);
  }
}

}  // namespace

Schedule barrier_schedule(BarrierAlgorithm algorithm, const CollTopo& topo,
                          rank_t rank) {
  Schedule s = reserved();
  if (algorithm == BarrierAlgorithm::kHierarchical) {
    // Zero-byte fan-in to cluster 0's rep, zero-byte release back out.
    const rank_t root = topo.rep_of_cluster(0);
    hierarchy_up(s, topo, rank, root, 0, kReduceTag);
    hierarchy_down(s, topo, rank, root, 0, kBcastTag);
  } else if (algorithm == BarrierAlgorithm::kOffload) {
    // Island fan-in to the leader; the leaders' NICs run the combine and
    // release tree (up and down: 2 * depth hops); island release.
    s.offload = true;
    const int island = topo.island_of[static_cast<std::size_t>(rank)];
    const auto& members =
        topo.islands[static_cast<std::size_t>(island)].members;
    const int leaders = static_cast<int>(topo.islands.size());
    binomial_reduce(s, members, rank, 0, kBarrierTag);
    if (rank == topo.leader_of_island(island)) {
      s.steps.push_back(Step{
          .kind = StepKind::kOffload,
          .offload = OffloadOp::kBarrier,
          .leaders = leaders,
          .post_us = topo.offload_post_us,
          .tree_us = 2.0 * tree_depth(leaders) * topo.offload_hop_us +
                     topo.offload_notify_us});
      s.end_round();
    }
    binomial_bcast(s, members, rank, 0, kBarrierTag);
  } else {
    dissemination(s, comm_size(topo), rank, kBarrierTag);
  }
  return s;
}

Schedule bcast_schedule(BcastAlgorithm algorithm, const CollTopo& topo,
                        rank_t rank, rank_t root, std::size_t bytes) {
  Schedule s = reserved();
  const int n = comm_size(topo);
  switch (algorithm) {
    case BcastAlgorithm::kLinear:
      flat_bcast(s, root_first(n, root), rank, bytes, kBcastTag);
      break;
    case BcastAlgorithm::kHierarchical:
      hierarchy_down(s, topo, rank, root, bytes, kBcastTag);
      break;
    case BcastAlgorithm::kOffload: {
      // The root stands in for its island's leader (no staging hop), so
      // the NIC tree spans {root} ∪ {other islands' leaders}. The root
      // DMAs the payload in and departs — a bcast is not a barrier; each
      // leaf completes at max(own post, root post + pipeline latency) and
      // pays the landing copy.
      s.offload = true;
      const int root_island = topo.island_of[static_cast<std::size_t>(root)];
      const int my_island = topo.island_of[static_cast<std::size_t>(rank)];
      const int leaders = static_cast<int>(topo.islands.size());
      const double wire_us =
          static_cast<double>(bytes) / topo.offload_bytes_per_us;
      if (rank == root) {
        s.steps.push_back(Step{.kind = StepKind::kOffload,
                               .offload = OffloadOp::kBcastPut,
                               .leaders = leaders,
                               .bytes = bytes,
                               .post_us = topo.offload_post_us + wire_us});
      } else if (my_island != root_island &&
                 rank == topo.leader_of_island(my_island)) {
        s.steps.push_back(Step{
            .kind = StepKind::kOffload,
            .offload = OffloadOp::kBcastGet,
            .leaders = leaders,
            .bytes = bytes,
            .post_us = topo.offload_post_us,
            .tree_us = tree_depth(leaders) * topo.offload_hop_us + wire_us +
                       topo.offload_notify_us});
      }
      s.end_round();
      binomial_bcast(s, island_member_list(topo, my_island, root_island, root),
                     rank, bytes, kBcastTag);
      break;
    }
    default:
      binomial_bcast(s, rotated(n, root), rank, bytes, kBcastTag);
      break;
  }
  return s;
}

Schedule reduce_schedule(bool hierarchical, const CollTopo& topo,
                         rank_t rank, rank_t root, std::size_t bytes) {
  Schedule s = reserved();
  if (hierarchical) {
    hierarchy_up(s, topo, rank, root, bytes, kReduceTag);
  } else {
    binomial_reduce(s, rotated(comm_size(topo), root), rank, bytes,
                    kReduceTag);
  }
  return s;
}

Schedule allreduce_schedule(AllreduceAlgorithm algorithm,
                            const CollTopo& topo, rank_t rank, int count,
                            std::size_t elem) {
  Schedule s = reserved();
  const std::size_t bytes = elem * static_cast<std::size_t>(count);
  if (algorithm == AllreduceAlgorithm::kHierarchical) {
    // Reduce to the natural root (cluster 0's rep), release along the
    // same trees.
    const rank_t root = topo.rep_of_cluster(0);
    hierarchy_up(s, topo, rank, root, bytes, kReduceTag);
    hierarchy_down(s, topo, rank, root, bytes, kBcastTag);
  } else if (algorithm == AllreduceAlgorithm::kRing) {
    ring(s, comm_size(topo), rank, count, elem, kReduceTag);
  } else {
    MADMPI_CHECK(algorithm == AllreduceAlgorithm::kRecursiveDoubling);
    recursive_doubling(s, comm_size(topo), rank, bytes, kReduceTag);
  }
  return s;
}

// The block shapes (coll_schedule.hpp). A rank's own block is the
// caller's local copy, never a step.

Schedule gather_schedule(int n, rank_t rank, rank_t root,
                         std::size_t send_bytes,
                         std::span<const Block> recv_blocks) {
  const std::size_t rounds = rank == root ? static_cast<std::size_t>(n) : 1;
  Schedule s = reserved(rounds, rounds);
  if (rank != root) {
    send(s, root, 0, send_bytes, kGatherTag);
    s.end_round();
    return s;
  }
  for (rank_t src = 0; src < n; ++src) {
    if (src == root) continue;
    const Block& block = recv_blocks[static_cast<std::size_t>(src)];
    recv(s, src, Region::kOut, block.offset, block.bytes, kGatherTag);
    s.end_round();
  }
  return s;
}

Schedule scatter_schedule(int n, rank_t rank, rank_t root,
                          std::span<const Block> send_blocks,
                          std::size_t recv_bytes) {
  const std::size_t rounds = rank == root ? static_cast<std::size_t>(n) : 1;
  Schedule s = reserved(rounds, rounds);
  if (rank != root) {
    recv(s, root, Region::kOut, 0, recv_bytes, kScatterTag);
    s.end_round();
    return s;
  }
  for (rank_t dst = 0; dst < n; ++dst) {
    if (dst == root) continue;
    const Block& block = send_blocks[static_cast<std::size_t>(dst)];
    send(s, dst, block.offset, block.bytes, kScatterTag);
    s.end_round();
  }
  return s;
}

Schedule allgather_schedule(int n, rank_t rank,
                            std::span<const Block> blocks) {
  Schedule s = reserved(2 * static_cast<std::size_t>(n),
                        static_cast<std::size_t>(n));
  allgather_pass(s, n, rank, rank, blocks, kAllgatherTag);
  return s;
}

Schedule alltoall_schedule(int n, rank_t rank,
                           std::span<const Block> send_blocks,
                           std::span<const Block> recv_blocks) {
  Schedule s = reserved(2 * static_cast<std::size_t>(n),
                        static_cast<std::size_t>(n));
  for (int k = 1; k < n; ++k) {
    const rank_t dst = (rank + k) % n;
    const rank_t src = (rank - k + n) % n;
    const Block& in = recv_blocks[static_cast<std::size_t>(src)];
    const Block& out = send_blocks[static_cast<std::size_t>(dst)];
    recv(s, src, Region::kOut, in.offset, in.bytes, kAlltoallTag);
    send(s, dst, out.offset, out.bytes, kAlltoallTag);
    s.end_round();
  }
  return s;
}

Schedule scan_schedule(int n, rank_t rank, std::size_t bytes) {
  Schedule s = reserved();
  if (rank > 0) {
    recv(s, rank - 1, Region::kScratch, 0, bytes, kScanTag);
    fold(s, 0, bytes);
    s.end_round();
  }
  if (rank + 1 < n) {
    send(s, rank + 1, 0, bytes, kScanTag);
    s.end_round();
  }
  return s;
}

// --- Inline drive ----------------------------------------------------------

Status Comm::run_schedule(const Schedule& schedule, const std::byte* in,
                          std::byte* out, const Datatype& type,
                          const Op* op) {
  std::vector<std::byte> scratch(schedule.scratch_bytes);
  const std::uint64_t offload_key =
      schedule.offload
          ? (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(shared_->context))
             << 32) | (shared_->next_offload_seq(rank_) & 0xffffffffu)
          : 0;
  sim::VirtualClock& clock = my_node().clock();
  // Under FT capture the tags are remapped to the epoch, each receive
  // carries the agreement deadline, and a hop the detector already proves
  // dead is recorded instead of posted.
  const bool capture = ft::capture_active();
  const usec_t ft_timeout =
      capture ? collective_config().agree_timeout_us : 0.0;
  std::vector<std::shared_ptr<RequestState>> posted;
  std::vector<rank_t> dests;
  try {
    for (std::size_t i = 0; i < schedule.rounds(); ++i) {
      const Round round = schedule.round(i);
      posted.clear();
      dests.clear();
      const Step* fanout = nullptr;  // the round's sends share one payload
      for (const Step& step : round) {
        if (step.kind == StepKind::kRecv) {
          if (capture && rank_unreachable(step.peer, rank_)) {
            ft::record(ErrorCode::kProcFailed);
            continue;
          }
          std::byte* at =
              (step.region == Region::kOut ? out : scratch.data()) +
              step.offset;
          posted.push_back(coll_post_recv(
              at, step.bytes, step.peer,
              capture ? ft::remap_tag(step.tag) : step.tag, ft_timeout));
        } else if (step.kind == StepKind::kSend) {
          MADMPI_CHECK(fanout == nullptr || (fanout->offset == step.offset &&
                                             fanout->bytes == step.bytes &&
                                             fanout->tag == step.tag));
          fanout = &step;
          dests.push_back(step.peer);
        }
      }
      if (fanout != nullptr) {
        coll_send_multi(dests, in + fanout->offset, fanout->bytes,
                        fanout->tag);
      }
      for (const auto& state : posted) coll_wait(*state);
      for (const Step& step : round) {
        if (step.kind == StepKind::kReduce) {
          op->apply(scratch.data(), out + step.offset,
                    static_cast<int>(step.bytes / type.size()), type);
          clock.advance(static_cast<double>(step.bytes) *
                        sim::kHostCopyUsPerByte);
        } else if (step.kind == StepKind::kOffload) {
          CollOffloadBoard& board = shared_->runtime->coll_offload_board();
          clock.advance(step.post_us);
          if (step.offload == OffloadOp::kBarrier) {
            clock.sync_to(board.barrier(offload_key, step.leaders,
                                        clock.now(), step.tree_us));
          } else if (step.offload == OffloadOp::kBcastPut) {
            board.bcast_put(offload_key, step.leaders, clock.now(), in,
                            step.bytes);
          } else {
            clock.sync_to(board.bcast_get(offload_key, step.leaders,
                                          clock.now(), step.tree_us, out,
                                          step.bytes));
            clock.advance(static_cast<double>(step.bytes) *
                          sim::kHostCopyUsPerByte);
          }
        }
      }
    }
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  return Status::ok();
}

// --- Hooked drive ----------------------------------------------------------
//
// The pump: `pending_` counts outstanding tracked sub-operations plus one
// issuing token held while a round is being posted. Completions decrement;
// whoever drops it to zero folds the finished round and issues the next.
// Rounds are issued outside the mutex, and coll_isend/coll_post_recv never
// block (eager completes inline, rendezvous detaches), so hooks never
// stall their completer. Reduce steps are charged to no virtual clock:
// the completer may be lane-bound to another node.
//
// Tags: each instance gets a private tag from a lockstep per-rank counter
// (Shared::next_icoll_seq). Two outstanding iallreduces sharing one tag
// could cross-match at a folded pair — schedules have no cross-op
// ordering — so the instance, not the algorithm, namespaces the traffic.
// The window recycles after 64 concurrent instances; it starts at 100,
// clear of the blocking tags.

namespace {

constexpr int kIcollTagBase = 100;
constexpr std::uint64_t kIcollTagWindow = 64;

bool sends_only(Round round) {
  return std::all_of(round.begin(), round.end(), [](const Step& step) {
    return step.kind == StepKind::kSend;
  });
}

}  // namespace

/// One in-flight nonblocking collective on one rank. Owns its scratch,
/// any staging and the user-facing request; kept alive by the shared_ptr
/// captured in each completion hook.
class IcollSchedule : public std::enable_shared_from_this<IcollSchedule> {
 public:
  IcollSchedule(const Comm& comm, Schedule schedule)
      : comm_(comm),
        tag_(kIcollTagBase +
             static_cast<int>(comm.shared_->next_icoll_seq(comm.rank()) %
                              kIcollTagWindow)),
        schedule_(std::move(schedule)),
        scratch_(schedule_.scratch_bytes),
        user_(std::make_shared<RequestState>(comm_.my_node())) {
    MADMPI_CHECK_MSG(!schedule_.offload,
                     "the NIC offload has no nonblocking drive");
  }

  /// The run's buffers, as in the inline drive (equal for every shape with
  /// a nonblocking form).
  const std::byte* in = nullptr;
  std::byte* out = nullptr;
  Datatype type = Datatype::byte();
  Op op = Op::sum();
  /// Packed copy of a non-contiguous ibcast payload (in/out point here).
  std::vector<std::byte> staging;
  /// Runs on the completing context after a clean last round; the buffer
  /// hand-off to the user happens at wait/test, which orders after it.
  std::function<void()> on_finish;

  Request start() {
    if (schedule_.rounds() == 0) {
      finish();
    } else {
      issue();
    }
    return Request(user_);
  }

 private:
  void track(Request request) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++pending_;
    }
    auto self = shared_from_this();
    request.state()->set_on_complete(
        [self](const MpiStatus& status) { self->on_done(status); });
  }

  /// Post the next round under the issuing token, so an inline completion
  /// (eager send) cannot advance mid-post. Consecutive send-only rounds go
  /// out together: they read data nothing in between changes.
  void issue() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++pending_;
    }
    Round round;
    do {
      round = schedule_.round(next_++);
      for (const Step& step : round) {
        if (step.kind == StepKind::kRecv) {
          std::byte* at =
              (step.region == Region::kOut ? out : scratch_.data()) +
              step.offset;
          track(Request(
              comm_.coll_post_recv(at, step.bytes, step.peer, tag_, 0.0)));
        } else if (step.kind == StepKind::kSend) {
          track(comm_.coll_isend(in + step.offset, step.bytes, step.peer,
                                 tag_));
        }
      }
    } while (sends_only(round) && next_ < schedule_.rounds() &&
             sends_only(schedule_.round(next_)));
    on_done(MpiStatus{});
  }

  void on_done(const MpiStatus& status) {
    bool fire = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (status.error != ErrorCode::kOk && error_ == ErrorCode::kOk) {
        error_ = status.error;
      }
      fire = (--pending_ == 0);
    }
    if (fire) advance();
  }

  /// Runs with nothing in flight, so the round index and buffers are
  /// race-free. A recorded error short-circuits the remaining rounds.
  void advance() {
    if (error_ == ErrorCode::kOk) {
      // The sends lend `in` to the wire without staging, but report
      // completion only after injection (eager) or transfer (rendezvous),
      // so folding into `out` (the same buffer) here is safe.
      for (const Step& step : schedule_.round(next_ - 1)) {
        if (step.kind == StepKind::kReduce) {
          op.apply(scratch_.data(), out + step.offset,
                   static_cast<int>(step.bytes / type.size()), type);
        }
      }
      if (next_ < schedule_.rounds()) {
        issue();
        return;
      }
    }
    finish();
  }

  void finish() {
    if (error_ == ErrorCode::kOk && on_finish) on_finish();
    MpiStatus status;
    status.error = error_;
    RequestState::complete(user_, status);
  }

  Comm comm_;
  const int tag_;
  const Schedule schedule_;
  std::vector<std::byte> scratch_;
  std::shared_ptr<RequestState> user_;

  std::mutex mutex_;
  int pending_ = 0;
  ErrorCode error_ = ErrorCode::kOk;
  std::size_t next_ = 0;  // index of the next round to issue
};

// --- Nonblocking entry points ---------------------------------------------

template <class Blocking>
std::optional<Request> Comm::icoll_decided(Blocking&& blocking) {
  auto decided = [this](ErrorCode error) {
    auto state = std::make_shared<RequestState>(my_node());
    MpiStatus status;
    status.error = error;
    RequestState::complete(state, status);
    return Request(std::move(state));
  };
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    raise_error(entry);
    return decided(entry.code());
  }
  // FT mode's survivable algorithm and agreement have no hooked drive.
  if (size() == 1 || ft_should_wrap()) return decided(blocking().code());
  return std::nullopt;
}

Request Comm::ibcast(void* buf, int count, const Datatype& type,
                     rank_t root) {
  MADMPI_CHECK(root >= 0 && root < size());
  if (auto decided =
          icoll_decided([&] { return bcast(buf, count, type, root); })) {
    return *decided;
  }
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  // Same resolution as the blocking bcast; the NIC offload is a blocking
  // rendezvous, so it falls back to the hierarchical tree here.
  BcastAlgorithm algorithm = resolve_bcast(bytes);
  if (algorithm == BcastAlgorithm::kOffload) {
    algorithm = BcastAlgorithm::kHierarchical;
  }
  auto sched = std::make_shared<IcollSchedule>(
      *this, bcast_schedule(algorithm, coll_topo(), rank_, root, bytes));
  if (type.is_contiguous()) {
    sched->out = static_cast<std::byte*>(buf);
  } else {
    sched->staging.resize(bytes);
    sched->out = sched->staging.data();
    if (rank_ == root) {
      type.pack(buf, count, sched->out);
    } else {
      sched->on_finish = [wire = sched->out, buf, count, type] {
        type.unpack(wire, count, buf);
      };
    }
  }
  sched->in = sched->out;
  return sched->start();
}

Request Comm::iallreduce(const void* send_buf, void* recv_buf, int count,
                         const Datatype& type, const Op& op) {
  if (auto decided = icoll_decided([&] {
        return allreduce(send_buf, recv_buf, count, type, op);
      })) {
    return *decided;
  }
  MADMPI_CHECK_MSG(type.is_contiguous(),
                   "iallreduce requires a contiguous datatype");
  auto sched = std::make_shared<IcollSchedule>(
      *this, allreduce_schedule(AllreduceAlgorithm::kRecursiveDoubling,
                                coll_topo(), rank_, count, type.size()));
  sched->out = static_cast<std::byte*>(recv_buf);
  sched->in = sched->out;
  sched->type = type;
  sched->op = op;
  std::memcpy(recv_buf, send_buf,
              type.size() * static_cast<std::size_t>(count));
  return sched->start();
}

Request Comm::ibarrier() {
  if (auto decided = icoll_decided([&] { return barrier(); })) {
    return *decided;
  }
  return std::make_shared<IcollSchedule>(
             *this, barrier_schedule(BarrierAlgorithm::kDissemination,
                                     coll_topo(), rank_))
      ->start();
}

}  // namespace madmpi::mpi
