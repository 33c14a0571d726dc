// Structure of the collective schedules, checked without a session: every
// generator is run for every rank of hand-built topology digests, every
// algorithm and every root, and a tiny executor runs the per-rank
// schedules against each other under strict rendezvous semantics (a
// transfer completes only while both sides sit in the round that holds
// it). Checks:
//   - every Send has exactly one matching Recv (same peer pair, bytes and
//     tag, FIFO per pair), and no in-place round receives into data it
//     also sends;
//   - all schedules run to completion (no deadlock);
//   - a bcast delivers to every rank exactly once, a reduce folds every
//     contribution exactly once, a barrier lets no rank out before every
//     rank entered;
//   - gather, scatter, allgather and alltoall land every block in its
//     slot exactly once (equal, ragged and zero-byte blocks) and touch
//     nothing between the slots; scan folds every lower rank exactly once;
//   - a hierarchical bcast crosses the interconnect clusters-1 times;
//   - the block shapes keep their post order (alltoall round k pairs
//     rank-k with rank+k, the allgather pass is the ring, the gather root
//     receives in ascending source order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mpi/coll_schedule.hpp"

namespace madmpi {
namespace {

using mpi::AllreduceAlgorithm;
using mpi::BarrierAlgorithm;
using mpi::BcastAlgorithm;
using mpi::Block;
using mpi::CollTopo;
using mpi::OffloadOp;
using mpi::Region;
using mpi::Round;
using mpi::Schedule;
using mpi::Step;
using mpi::StepKind;

/// A digest built by hand: nodes[c] lists the rank counts of cluster c's
/// machines; ranks are numbered node-major, like the session's layout.
CollTopo make_topo(const std::vector<std::vector<int>>& nodes,
                   bool offload = false) {
  CollTopo topo;
  rank_t next = 0;
  for (std::size_t c = 0; c < nodes.size(); ++c) {
    std::vector<int> cluster;
    for (int ranks : nodes[c]) {
      CollTopo::Island island;
      island.cluster = static_cast<int>(c);
      for (int i = 0; i < ranks; ++i) {
        island.members.push_back(next++);
        topo.island_of.push_back(static_cast<int>(topo.islands.size()));
      }
      cluster.push_back(static_cast<int>(topo.islands.size()));
      topo.islands.push_back(std::move(island));
    }
    topo.clusters.push_back(std::move(cluster));
  }
  if (offload) {
    topo.offload_capable = true;
    topo.offload_post_us = 1.0;
    topo.offload_hop_us = 2.0;
    topo.offload_bytes_per_us = 100.0;
    topo.offload_notify_us = 1.0;
  }
  return topo;
}

/// `ranks` over `clusters` clusters as evenly as possible, on machines of
/// `per_node` ranks (the last machine of a cluster takes the remainder):
/// the misaligned meta-cluster shape of the collectives ablation.
CollTopo misaligned_topo(int ranks, int clusters, int per_node) {
  std::vector<std::vector<int>> nodes(static_cast<std::size_t>(clusters));
  for (int c = 0; c < clusters; ++c) {
    for (int left = ranks / clusters + (c < ranks % clusters ? 1 : 0);
         left > 0; left -= per_node) {
      nodes[static_cast<std::size_t>(c)].push_back(std::min(per_node, left));
    }
  }
  return make_topo(nodes);
}

int size_of(const CollTopo& topo) {
  return static_cast<int>(topo.island_of.size());
}

int cluster_of(const CollTopo& topo, rank_t rank) {
  return topo.islands[static_cast<std::size_t>(
                          topo.island_of[static_cast<std::size_t>(rank)])]
      .cluster;
}

/// What one byte of a rank's buffer holds: the contributions folded into
/// it, as a count and a sum of per-rank keys (exactly-once means count ==
/// contributors and sum == the sum of their keys).
struct Cell {
  int count = 0;
  std::uint64_t sum = 0;
};

std::uint64_t key_of(rank_t rank) {
  return 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(rank + 1);
}

struct Ref {
  rank_t rank = 0;
  std::size_t round = 0;
  std::size_t step = 0;
};

/// Runs one schedule per rank against each other; every check failure is
/// a gtest failure tagged with `label`.
class Executor {
 public:
  Executor(std::vector<Schedule> schedules, std::string label)
      : s_(std::move(schedules)), label_(std::move(label)) {
    const std::size_t n = s_.size();
    data_.resize(n);
    scratch_.resize(n);
    data_recvs_.assign(n, 0);
    cur_.assign(n, 0);
    pending_.assign(n, 0);
    entered_.assign(n, false);
    for (std::size_t r = 0; r < n; ++r) {
      scratch_[r].resize(s_[r].scratch_bytes);
    }
  }

  /// Track, per rank, which ranks' entry it has causally heard of (the
  /// barrier check; O(size) per transfer, so opt-in).
  void track_entry() {
    heard_.assign(s_.size(), std::vector<bool>(s_.size(), false));
    for (std::size_t r = 0; r < s_.size(); ++r) heard_[r][r] = true;
  }

  /// Every rank's data buffer starts as `bytes` cells; `seed(rank)` says
  /// whether the rank contributes its key to them.
  template <typename Seed>
  void fill(std::size_t bytes, Seed seed) {
    for (std::size_t r = 0; r < s_.size(); ++r) {
      data_[r].assign(bytes, Cell{});
      if (seed(static_cast<rank_t>(r))) {
        for (Cell& cell : data_[r]) cell = {1, key_of(static_cast<rank_t>(r))};
      }
    }
  }

  /// Set one rank's out buffer directly (the block shapes' layouts).
  void set_out(rank_t r, std::vector<Cell> cells) {
    data_[static_cast<std::size_t>(r)] = std::move(cells);
  }

  /// Give a rank a send buffer of its own. Once any rank has one, Send
  /// steps read `in` (gather, scatter, alltoall); otherwise they read the
  /// out buffer, as the in-place shapes do.
  void set_in(rank_t r, std::vector<Cell> cells) {
    if (in_.empty()) in_.resize(s_.size());
    in_[static_cast<std::size_t>(r)] = std::move(cells);
  }

  /// Pair sends with receives, then run to completion. False (after
  /// recording a failure) when pairing fails or the run deadlocks.
  bool run() {
    for (std::size_t r = 0; r < s_.size(); ++r) {
      landed_.emplace_back(data_[r].size(), 0);
    }
    if (!pair()) return false;
    for (std::size_t r = 0; r < s_.size(); ++r) ready_.push_back(r);
    while (!ready_.empty()) {
      const std::size_t r = ready_.front();
      ready_.pop_front();
      enter(r);
    }
    for (std::size_t r = 0; r < s_.size(); ++r) {
      if (cur_[r] != s_[r].rounds()) {
        ADD_FAILURE() << label_ << ": deadlock, rank " << r
                      << " stuck in round " << cur_[r] << " of "
                      << s_[r].rounds();
        return false;
      }
    }
    return true;
  }

  const std::vector<Cell>& data(rank_t r) const {
    return data_[static_cast<std::size_t>(r)];
  }
  int data_recvs(rank_t r) const {
    return data_recvs_[static_cast<std::size_t>(r)];
  }
  /// How many receives landed on each byte of a rank's out buffer.
  const std::vector<int>& landed(rank_t r) const {
    return landed_[static_cast<std::size_t>(r)];
  }
  bool heard_everyone(rank_t r) const {
    for (bool heard : heard_[static_cast<std::size_t>(r)]) {
      if (!heard) return false;
    }
    return true;
  }

 private:
  const Step& step_at(const Ref& ref) const {
    return s_[static_cast<std::size_t>(ref.rank)].round(ref.round)[ref.step];
  }

  bool pair() {
    // Per ordered (sender, receiver): sends and receives in schedule order.
    std::map<std::pair<rank_t, rank_t>, std::pair<std::vector<Ref>,
                                                  std::vector<Ref>>>
        channels;
    partner_.resize(s_.size());
    for (std::size_t r = 0; r < s_.size(); ++r) {
      const rank_t me = static_cast<rank_t>(r);
      partner_[r].resize(s_[r].rounds());
      for (std::size_t i = 0; i < s_[r].rounds(); ++i) {
        const Round round = s_[r].round(i);
        partner_[r][i].resize(round.size());
        for (std::size_t j = 0; j < round.size(); ++j) {
          const Step& step = round[j];
          if (step.kind == StepKind::kSend) {
            channels[{me, step.peer}].first.push_back({me, i, j});
          } else if (step.kind == StepKind::kRecv) {
            channels[{step.peer, me}].second.push_back({me, i, j});
          }
        }
        check_no_overlap(me, round);
      }
    }
    for (const auto& [pair, lists] : channels) {
      const auto& [sends, recvs] = lists;
      if (sends.size() != recvs.size()) {
        ADD_FAILURE() << label_ << ": " << pair.first << "->" << pair.second
                      << " has " << sends.size() << " sends but "
                      << recvs.size() << " receives";
        return false;
      }
      for (std::size_t k = 0; k < sends.size(); ++k) {
        const Step& send = step_at(sends[k]);
        const Step& recv = step_at(recvs[k]);
        if (send.bytes != recv.bytes || send.tag != recv.tag) {
          ADD_FAILURE() << label_ << ": message " << k << " of " << pair.first
                        << "->" << pair.second << " sends " << send.bytes
                        << " B tag " << send.tag << ", receives " << recv.bytes
                        << " B tag " << recv.tag;
          return false;
        }
        partner_[static_cast<std::size_t>(sends[k].rank)][sends[k].round]
                [sends[k].step] = recvs[k];
        partner_[static_cast<std::size_t>(recvs[k].rank)][recvs[k].round]
                [recvs[k].step] = sends[k];
      }
    }
    return true;
  }

  /// The nonblocking drive lends `in` to in-flight sends, so an in-place
  /// round must never land a receive on bytes it is also sending.
  void check_no_overlap(rank_t me, Round round) {
    if (!in_.empty()) return;
    for (const Step& recv : round) {
      if (recv.kind != StepKind::kRecv || recv.region != Region::kOut) {
        continue;
      }
      for (const Step& send : round) {
        if (send.kind == StepKind::kSend &&
            recv.offset < send.offset + send.bytes &&
            send.offset < recv.offset + recv.bytes) {
          ADD_FAILURE() << label_ << ": rank " << me
                        << " receives over data it sends in one round";
        }
      }
    }
  }

  /// Rank r sits in round cur_[r]: match every transfer whose partner is
  /// in its own round, join offload operations, complete when all done.
  void enter(std::size_t r) {
    if (cur_[r] == s_[r].rounds()) return;
    const std::size_t i = cur_[r];
    const Round round = s_[r].round(i);
    pending_[r] = 0;
    for (std::size_t j = 0; j < round.size(); ++j) {
      const Step& step = round[j];
      if (step.kind == StepKind::kSend || step.kind == StepKind::kRecv) {
        ++pending_[r];
      } else if (step.kind == StepKind::kOffload) {
        ++pending_[r];
        join_offload(r, step);
      }
    }
    for (std::size_t j = 0; j < round.size(); ++j) {
      const Step& step = round[j];
      if (step.kind != StepKind::kSend && step.kind != StepKind::kRecv) {
        continue;
      }
      const Ref other = partner_[r][i][j];
      const std::size_t o = static_cast<std::size_t>(other.rank);
      if (cur_[o] == other.round && entered_[o]) {
        if (step.kind == StepKind::kSend) {
          transfer({static_cast<rank_t>(r), i, j}, other);
        } else {
          transfer(other, {static_cast<rank_t>(r), i, j});
        }
      }
    }
    entered_[r] = true;
    maybe_complete(r);
  }

  void transfer(const Ref& from, const Ref& to) {
    const std::size_t a = static_cast<std::size_t>(from.rank);
    const std::size_t b = static_cast<std::size_t>(to.rank);
    const Step& send = step_at(from);
    const Step& recv = step_at(to);
    std::vector<Cell>& dst =
        recv.region == Region::kOut ? data_[b] : scratch_[b];
    const std::vector<Cell>& src = in_.empty() ? data_[a] : in_[a];
    for (std::size_t k = 0; k < send.bytes; ++k) {
      dst[recv.offset + k] = src[send.offset + k];
    }
    if (recv.region == Region::kOut) {
      ++data_recvs_[b];
      for (std::size_t k = 0; k < recv.bytes; ++k) {
        ++landed_[b][recv.offset + k];
      }
    }
    merge_heard(b, a);
    --pending_[a];
    --pending_[b];
    if (a != b) maybe_complete(a);
    maybe_complete(b);
  }

  void merge_heard(std::size_t into, std::size_t from) {
    if (heard_.empty()) return;
    for (std::size_t k = 0; k < heard_[into].size(); ++k) {
      if (heard_[from][k]) heard_[into][k] = true;
    }
  }

  void join_offload(std::size_t r, const Step& step) {
    if (step.offload == OffloadOp::kBarrier) {
      barrier_.push_back(r);
      if (static_cast<int>(barrier_.size()) == step.leaders) {
        const std::vector<std::size_t> joined = std::move(barrier_);
        barrier_.clear();
        // The NIC tree combines every leader's view, then releases it.
        for (std::size_t l : joined) merge_heard(r, l);
        for (std::size_t l : joined) {
          merge_heard(l, r);
          --pending_[l];
          if (l != r) maybe_complete(l);
        }
      }
    } else if (step.offload == OffloadOp::kBcastPut) {
      put_ = data_[r];
      put_done_ = true;
      --pending_[r];
      for (std::size_t l : gets_) {
        data_[l] = put_;
        ++data_recvs_[l];
        --pending_[l];
        maybe_complete(l);
      }
      gets_.clear();
    } else if (put_done_) {
      data_[r] = put_;
      ++data_recvs_[r];
      --pending_[r];
    } else {
      gets_.push_back(r);
    }
  }

  void maybe_complete(std::size_t r) {
    if (!entered_[r] || pending_[r] != 0 || cur_[r] == s_[r].rounds()) {
      return;
    }
    for (const Step& step : s_[r].round(cur_[r])) {
      if (step.kind == StepKind::kReduce) {
        for (std::size_t k = 0; k < step.bytes; ++k) {
          data_[r][step.offset + k].count += scratch_[r][k].count;
          data_[r][step.offset + k].sum += scratch_[r][k].sum;
        }
      }
    }
    ++cur_[r];
    entered_[r] = false;
    ready_.push_back(r);
  }

  std::vector<Schedule> s_;
  std::string label_;
  std::vector<std::vector<Cell>> data_, scratch_, in_;
  std::vector<std::vector<int>> landed_;
  std::vector<std::vector<bool>> heard_;
  std::vector<int> data_recvs_;
  std::vector<std::size_t> cur_;
  std::vector<std::vector<std::vector<Ref>>> partner_;
  std::vector<int> pending_;
  std::vector<bool> entered_;
  std::deque<std::size_t> ready_;
  std::vector<std::size_t> barrier_, gets_;  // offload ops waiting
  std::vector<Cell> put_;
  bool put_done_ = false;
};

template <typename Generate>
std::vector<Schedule> for_every_rank(const CollTopo& topo, Generate generate) {
  std::vector<Schedule> out;
  for (rank_t r = 0; r < size_of(topo); ++r) out.push_back(generate(r));
  return out;
}

void check_barrier(const CollTopo& topo, BarrierAlgorithm algorithm,
                   const std::string& label) {
  Executor run(for_every_rank(topo, [&](rank_t r) {
                 return mpi::barrier_schedule(algorithm, topo, r);
               }),
               label);
  run.track_entry();
  if (!run.run()) return;
  for (rank_t r = 0; r < size_of(topo); ++r) {
    EXPECT_TRUE(run.heard_everyone(r))
        << label << ": rank " << r << " left before every rank entered";
  }
}

void check_bcast(const CollTopo& topo, BcastAlgorithm algorithm, rank_t root,
                 const std::string& label) {
  constexpr std::size_t kBytes = 3;
  std::vector<Schedule> schedules = for_every_rank(topo, [&](rank_t r) {
    return mpi::bcast_schedule(algorithm, topo, r, root, kBytes);
  });
  if (algorithm == BcastAlgorithm::kHierarchical) {
    int crossings = 0;
    for (rank_t r = 0; r < size_of(topo); ++r) {
      for (const Step& step : schedules[static_cast<std::size_t>(r)].steps) {
        if (step.kind == StepKind::kSend &&
            cluster_of(topo, r) != cluster_of(topo, step.peer)) {
          ++crossings;
        }
      }
    }
    EXPECT_EQ(crossings, static_cast<int>(topo.clusters.size()) - 1) << label;
  }
  Executor run(std::move(schedules), label);
  run.fill(kBytes, [root](rank_t r) { return r == root; });
  if (!run.run()) return;
  for (rank_t r = 0; r < size_of(topo); ++r) {
    EXPECT_EQ(run.data_recvs(r), r == root ? 0 : 1)
        << label << ": deliveries to rank " << r;
    for (const Cell& cell : run.data(r)) {
      ASSERT_EQ(cell.count, 1) << label << ": rank " << r;
      ASSERT_EQ(cell.sum, key_of(root)) << label << ": rank " << r;
    }
  }
}

/// Every cell of `cells` folds every rank's contribution exactly once.
void expect_full_fold(const CollTopo& topo, const std::vector<Cell>& cells,
                      const std::string& where) {
  std::uint64_t all = 0;
  for (rank_t r = 0; r < size_of(topo); ++r) all += key_of(r);
  for (const Cell& cell : cells) {
    ASSERT_EQ(cell.count, size_of(topo)) << where;
    ASSERT_EQ(cell.sum, all) << where;
  }
}

void check_reduce(const CollTopo& topo, bool hierarchical, rank_t root,
                  const std::string& label) {
  constexpr std::size_t kBytes = 2;
  Executor run(for_every_rank(topo, [&](rank_t r) {
                 return mpi::reduce_schedule(hierarchical, topo, r, root,
                                             kBytes);
               }),
               label);
  run.fill(kBytes, [](rank_t) { return true; });
  if (!run.run()) return;
  expect_full_fold(topo, run.data(root), label + ": root");
}

void check_allreduce(const CollTopo& topo, AllreduceAlgorithm algorithm,
                     const std::string& label) {
  // One-byte elements, a count that is not a multiple of the size (ragged
  // ring chunks) and at least one element per rank (the ring's floor).
  const int count = size_of(topo) + 3;
  Executor run(for_every_rank(topo, [&](rank_t r) {
                 return mpi::allreduce_schedule(algorithm, topo, r, count, 1);
               }),
               label);
  run.fill(static_cast<std::size_t>(count), [](rank_t) { return true; });
  if (!run.run()) return;
  for (rank_t r = 0; r < size_of(topo); ++r) {
    expect_full_fold(topo, run.data(r), label + ": rank " + std::to_string(r));
  }
}

/// Block sizes for the block shapes: equal (two bytes each), or ragged
/// with zero-byte blocks among them, keyed by one or two ranks.
std::size_t block_bytes(bool ragged, int a, int b = 0) {
  return ragged ? static_cast<std::size_t>((a * 5 + b * 3 + 1) % 4) : 2;
}

/// Blocks of sizes[r] bytes in descending rank order, each after a
/// one-byte gap, so a stray landing hits a gap or a neighbour's slot.
std::vector<Block> layout(const std::vector<std::size_t>& sizes) {
  std::vector<Block> blocks(sizes.size());
  std::size_t at = 0;
  for (std::size_t r = sizes.size(); r-- > 0;) {
    blocks[r] = {at + 1, sizes[r]};
    at += 1 + sizes[r];
  }
  return blocks;
}

/// A buffer laid out as `blocks` (plus a trailing gap), block s holding
/// keys[s] when `filled(s)`.
template <typename Filled>
std::vector<Cell> buffer(const std::vector<Block>& blocks,
                         const std::vector<std::uint64_t>& keys,
                         Filled filled) {
  std::size_t end = 0;
  for (const Block& block : blocks) {
    end = std::max(end, block.offset + block.bytes);
  }
  std::vector<Cell> cells(end + 1);
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    if (!filled(s)) continue;
    for (std::size_t k = 0; k < blocks[s].bytes; ++k) {
      cells[blocks[s].offset + k] = {1, keys[s]};
    }
  }
  return cells;
}

/// Rank r's out buffer holds keys[s] exactly once in every blocks[s],
/// landed by exactly one receive — by none for block `own`, the caller's
/// local copy (-1: none) — and nothing between the blocks.
void expect_blocks(const Executor& run, rank_t r,
                   const std::vector<Block>& blocks,
                   const std::vector<std::uint64_t>& keys, int own,
                   const std::string& where) {
  const std::vector<Cell>& out = run.data(r);
  const std::vector<int>& landed = run.landed(r);
  std::vector<bool> in_block(out.size(), false);
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    for (std::size_t k = blocks[s].offset;
         k < blocks[s].offset + blocks[s].bytes; ++k) {
      in_block[k] = true;
      ASSERT_EQ(landed[k], static_cast<int>(s) == own ? 0 : 1)
          << where << ": landings on block " << s;
      ASSERT_EQ(out[k].count, 1) << where << ": block " << s;
      ASSERT_EQ(out[k].sum, keys[s]) << where << ": block " << s;
    }
  }
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (in_block[k]) continue;
    ASSERT_EQ(landed[k], 0) << where << ": landing in a gap at " << k;
    ASSERT_EQ(out[k].count, 0) << where << ": data in a gap at " << k;
  }
}

std::vector<std::uint64_t> rank_keys(int n) {
  std::vector<std::uint64_t> keys;
  for (rank_t r = 0; r < n; ++r) keys.push_back(key_of(r));
  return keys;
}

void check_gather(int n, rank_t root, bool ragged, const std::string& label) {
  std::vector<std::size_t> sizes;
  for (rank_t r = 0; r < n; ++r) sizes.push_back(block_bytes(ragged, r));
  const std::vector<Block> blocks = layout(sizes);
  const std::vector<std::uint64_t> keys = rank_keys(n);
  std::vector<Schedule> schedules;
  for (rank_t r = 0; r < n; ++r) {
    schedules.push_back(mpi::gather_schedule(
        n, r, root, sizes[static_cast<std::size_t>(r)], blocks));
  }
  Executor run(std::move(schedules), label);
  for (rank_t r = 0; r < n; ++r) {
    run.set_in(r, std::vector<Cell>(sizes[static_cast<std::size_t>(r)],
                                    Cell{1, key_of(r)}));
  }
  run.set_out(root, buffer(blocks, keys, [root](std::size_t s) {
                return static_cast<rank_t>(s) == root;
              }));
  if (!run.run()) return;
  expect_blocks(run, root, blocks, keys, root, label + ": root");
}

void check_scatter(int n, rank_t root, bool ragged,
                   const std::string& label) {
  std::vector<std::size_t> sizes;
  for (rank_t r = 0; r < n; ++r) sizes.push_back(block_bytes(ragged, r));
  const std::vector<Block> blocks = layout(sizes);
  const std::vector<std::uint64_t> keys = rank_keys(n);
  std::vector<Schedule> schedules;
  for (rank_t r = 0; r < n; ++r) {
    schedules.push_back(mpi::scatter_schedule(
        n, r, root, blocks, sizes[static_cast<std::size_t>(r)]));
  }
  Executor run(std::move(schedules), label);
  run.set_in(root, buffer(blocks, keys, [](std::size_t) { return true; }));
  for (rank_t r = 0; r < n; ++r) {
    run.set_out(r, std::vector<Cell>(sizes[static_cast<std::size_t>(r)],
                                     r == root ? Cell{1, key_of(r)} : Cell{}));
  }
  if (!run.run()) return;
  for (rank_t r = 0; r < n; ++r) {
    expect_blocks(run, r, {Block{0, sizes[static_cast<std::size_t>(r)]}},
                  {key_of(r)}, r == root ? 0 : -1,
                  label + ": rank " + std::to_string(r));
  }
}

void check_allgather(int n, bool ragged, const std::string& label) {
  std::vector<std::size_t> sizes;
  for (rank_t r = 0; r < n; ++r) sizes.push_back(block_bytes(ragged, r));
  const std::vector<Block> blocks = layout(sizes);
  const std::vector<std::uint64_t> keys = rank_keys(n);
  std::vector<Schedule> schedules;
  for (rank_t r = 0; r < n; ++r) {
    schedules.push_back(mpi::allgather_schedule(n, r, blocks));
  }
  Executor run(std::move(schedules), label);
  for (rank_t r = 0; r < n; ++r) {
    run.set_out(r, buffer(blocks, keys, [r](std::size_t s) {
                  return static_cast<rank_t>(s) == r;
                }));
  }
  if (!run.run()) return;
  for (rank_t r = 0; r < n; ++r) {
    expect_blocks(run, r, blocks, keys, r,
                  label + ": rank " + std::to_string(r));
  }
}

void check_alltoall(int n, bool ragged, const std::string& label) {
  // Rank a's block for rank b: block_bytes(a, b) bytes keyed a * n + b.
  auto key = [n](rank_t from, rank_t to) { return key_of(from * n + to); };
  std::vector<Schedule> schedules;
  std::vector<std::vector<Cell>> ins;
  std::vector<std::vector<Block>> recv_blocks;
  std::vector<std::vector<std::uint64_t>> recv_keys;
  for (rank_t r = 0; r < n; ++r) {
    std::vector<std::size_t> send_sizes, recv_sizes;
    std::vector<std::uint64_t> send_keys, keys;
    for (rank_t p = 0; p < n; ++p) {
      send_sizes.push_back(block_bytes(ragged, r, p));
      recv_sizes.push_back(block_bytes(ragged, p, r));
      send_keys.push_back(key(r, p));
      keys.push_back(key(p, r));
    }
    const std::vector<Block> send = layout(send_sizes);
    recv_blocks.push_back(layout(recv_sizes));
    recv_keys.push_back(std::move(keys));
    schedules.push_back(
        mpi::alltoall_schedule(n, r, send, recv_blocks.back()));
    ins.push_back(buffer(send, send_keys, [](std::size_t) { return true; }));
  }
  Executor run(std::move(schedules), label);
  for (rank_t r = 0; r < n; ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    run.set_in(r, std::move(ins[i]));
    run.set_out(r, buffer(recv_blocks[i], recv_keys[i], [r](std::size_t s) {
                  return static_cast<rank_t>(s) == r;
                }));
  }
  if (!run.run()) return;
  for (rank_t r = 0; r < n; ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    expect_blocks(run, r, recv_blocks[i], recv_keys[i], r,
                  label + ": rank " + std::to_string(r));
  }
}

void check_scan(int n, const std::string& label) {
  constexpr std::size_t kBytes = 2;
  std::vector<Schedule> schedules;
  for (rank_t r = 0; r < n; ++r) {
    schedules.push_back(mpi::scan_schedule(n, r, kBytes));
  }
  Executor run(std::move(schedules), label);
  run.fill(kBytes, [](rank_t) { return true; });
  if (!run.run()) return;
  std::uint64_t prefix = 0;
  for (rank_t r = 0; r < n; ++r) {
    prefix += key_of(r);
    for (const Cell& cell : run.data(r)) {
      ASSERT_EQ(cell.count, r + 1) << label << ": rank " << r;
      ASSERT_EQ(cell.sum, prefix) << label << ": rank " << r;
    }
  }
}

/// Allgather and alltoall move n^2 blocks (alltoall over n^2 channels).
/// The block shapes read nothing from a digest but its size, so the
/// 1024-rank digest checks only the linear ones.
constexpr int kQuadraticMaxRanks = 256;

/// Every algorithm the topology can resolve to, at every root in `roots`.
void check_all(const CollTopo& topo, const std::string& shape,
               const std::vector<rank_t>& roots) {
  std::vector<BarrierAlgorithm> barriers{BarrierAlgorithm::kDissemination,
                                         BarrierAlgorithm::kHierarchical};
  std::vector<BcastAlgorithm> bcasts{BcastAlgorithm::kBinomial,
                                     BcastAlgorithm::kLinear,
                                     BcastAlgorithm::kHierarchical};
  if (topo.offload_capable) {
    barriers.push_back(BarrierAlgorithm::kOffload);
    bcasts.push_back(BcastAlgorithm::kOffload);
  }
  for (BarrierAlgorithm algorithm : barriers) {
    check_barrier(topo, algorithm,
                  shape + " barrier " + mpi::algorithm_name(algorithm));
  }
  for (AllreduceAlgorithm algorithm :
       {AllreduceAlgorithm::kRecursiveDoubling, AllreduceAlgorithm::kRing,
        AllreduceAlgorithm::kHierarchical}) {
    check_allreduce(topo, algorithm,
                    shape + " allreduce " + mpi::algorithm_name(algorithm));
  }
  for (rank_t root : roots) {
    const std::string at = " root " + std::to_string(root);
    for (BcastAlgorithm algorithm : bcasts) {
      check_bcast(topo, algorithm, root,
                  shape + " bcast " + mpi::algorithm_name(algorithm) + at);
    }
    check_reduce(topo, false, root, shape + " reduce flat" + at);
    check_reduce(topo, true, root, shape + " reduce hier" + at);
  }
  const int n = size_of(topo);
  for (bool ragged : {false, true}) {
    const std::string blocks = ragged ? " ragged" : " equal";
    if (n <= kQuadraticMaxRanks) {
      check_allgather(n, ragged, shape + " allgather" + blocks);
      check_alltoall(n, ragged, shape + " alltoall" + blocks);
    }
    for (rank_t root : roots) {
      const std::string at = blocks + " root " + std::to_string(root);
      check_gather(n, root, ragged, shape + " gather" + at);
      check_scatter(n, root, ragged, shape + " scatter" + at);
    }
  }
  check_scan(n, shape + " scan");
}

std::vector<rank_t> every_root(const CollTopo& topo) {
  std::vector<rank_t> roots;
  for (rank_t r = 0; r < size_of(topo); ++r) roots.push_back(r);
  return roots;
}

TEST(CollSchedule, SingleNode) {
  for (int n : {2, 3, 5, 8}) {
    const CollTopo topo = make_topo({{n}});
    check_all(topo, "1x" + std::to_string(n), every_root(topo));
  }
}

TEST(CollSchedule, MetaCluster) {
  // meta_cluster(3, 2, 2): three SCI clusters of two 2-rank machines.
  const CollTopo topo = make_topo({{2, 2}, {2, 2}, {2, 2}});
  check_all(topo, "meta(3,2,2)", every_root(topo));
}

TEST(CollSchedule, HomogeneousSciWithOffload) {
  // homogeneous(5, SCI, 2): one offload-capable cluster of five machines.
  const CollTopo topo = make_topo({{2, 2, 2, 2, 2}}, /*offload=*/true);
  check_all(topo, "sci(5x2)", every_root(topo));
}

TEST(CollSchedule, MisalignedMetaCluster) {
  // The collectives ablation's misaligned 1024-rank shape: five clusters
  // of 205/205/205/205/204 ranks on 7-rank machines. Roots: the first and
  // last rank, every cluster rep, a non-leader and the last rank of a
  // short trailing machine.
  const CollTopo topo = misaligned_topo(1024, 5, 7);
  ASSERT_EQ(size_of(topo), 1024);
  ASSERT_EQ(topo.clusters.size(), 5u);
  std::vector<rank_t> roots{1, 3, 204, 1023};
  for (std::size_t c = 0; c < topo.clusters.size(); ++c) {
    roots.push_back(topo.rep_of_cluster(static_cast<int>(c)));
  }
  check_all(topo, "misaligned(1024,5,7)", roots);
}

TEST(CollSchedule, LinearRootFansOutInOneRound) {
  const CollTopo topo = make_topo({{2, 2}, {3}});
  const Schedule root =
      mpi::bcast_schedule(BcastAlgorithm::kLinear, topo, 2, 2, 16);
  ASSERT_EQ(root.rounds(), 1u);
  std::vector<rank_t> peers;
  for (const Step& step : root.round(0)) peers.push_back(step.peer);
  EXPECT_EQ(peers, (std::vector<rank_t>{0, 1, 3, 4, 5, 6}));
}

TEST(CollSchedule, AlltoallRoundKPairsRankMinusKWithRankPlusK) {
  for (int n : {2, 3, 5, 8}) {
    std::vector<Block> send, recv;
    for (int p = 0; p < n; ++p) {
      send.push_back({static_cast<std::size_t>(10 * p), 3});
      recv.push_back({static_cast<std::size_t>(10 * p + 5), 3});
    }
    for (rank_t r = 0; r < n; ++r) {
      const Schedule s = mpi::alltoall_schedule(n, r, send, recv);
      ASSERT_EQ(s.rounds(), static_cast<std::size_t>(n - 1));
      for (int k = 1; k < n; ++k) {
        const Round round = s.round(static_cast<std::size_t>(k - 1));
        const rank_t src = (r - k + n) % n;
        const rank_t dst = (r + k) % n;
        ASSERT_EQ(round.size(), 2u);
        EXPECT_EQ(round[0].kind, StepKind::kRecv);
        EXPECT_EQ(round[0].peer, src);
        EXPECT_EQ(round[0].offset, recv[static_cast<std::size_t>(src)].offset);
        EXPECT_EQ(round[1].kind, StepKind::kSend);
        EXPECT_EQ(round[1].peer, dst);
        EXPECT_EQ(round[1].offset, send[static_cast<std::size_t>(dst)].offset);
      }
    }
  }
}

TEST(CollSchedule, AllgatherPassIsTheRing) {
  // Step k: land block rank-k-1 from the left neighbour, forward block
  // rank-k to the right one — the ring allgather's order.
  for (int n : {2, 3, 5, 8}) {
    std::vector<Block> blocks;
    for (int p = 0; p < n; ++p) {
      blocks.push_back({static_cast<std::size_t>(4 * p), 4});
    }
    for (rank_t r = 0; r < n; ++r) {
      const Schedule s = mpi::allgather_schedule(n, r, blocks);
      ASSERT_EQ(s.rounds(), static_cast<std::size_t>(n - 1));
      for (int k = 0; k < n - 1; ++k) {
        const Round round = s.round(static_cast<std::size_t>(k));
        ASSERT_EQ(round.size(), 2u);
        EXPECT_EQ(round[0].kind, StepKind::kRecv);
        EXPECT_EQ(round[0].peer, (r - 1 + n) % n);
        EXPECT_EQ(round[0].offset,
                  blocks[static_cast<std::size_t>((r - k - 1 + 2 * n) % n)]
                      .offset);
        EXPECT_EQ(round[1].kind, StepKind::kSend);
        EXPECT_EQ(round[1].peer, (r + 1) % n);
        EXPECT_EQ(round[1].offset,
                  blocks[static_cast<std::size_t>((r - k + n) % n)].offset);
      }
    }
  }
}

TEST(CollSchedule, GatherRootReceivesInAscendingSourceOrder) {
  const int n = 6;
  const std::vector<Block> blocks(static_cast<std::size_t>(n), Block{0, 1});
  for (rank_t root : {0, 3, 5}) {
    const Schedule s = mpi::gather_schedule(n, root, root, 1, blocks);
    std::vector<rank_t> sources;
    for (std::size_t i = 0; i < s.rounds(); ++i) {
      ASSERT_EQ(s.round(i).size(), 1u) << "one receive per round";
      EXPECT_EQ(s.round(i)[0].kind, StepKind::kRecv);
      sources.push_back(s.round(i)[0].peer);
    }
    std::vector<rank_t> expected;
    for (rank_t r = 0; r < n; ++r) {
      if (r != root) expected.push_back(r);
    }
    EXPECT_EQ(sources, expected) << "root " << root;
  }
}

TEST(CollSchedule, ScatterRootSendsOnePerRoundInAscendingOrder) {
  const int n = 5;
  const std::vector<Block> blocks(static_cast<std::size_t>(n), Block{0, 1});
  const Schedule s = mpi::scatter_schedule(n, 2, 2, blocks, 1);
  std::vector<rank_t> dests;
  for (std::size_t i = 0; i < s.rounds(); ++i) {
    ASSERT_EQ(s.round(i).size(), 1u);
    EXPECT_EQ(s.round(i)[0].kind, StepKind::kSend);
    dests.push_back(s.round(i)[0].peer);
  }
  EXPECT_EQ(dests, (std::vector<rank_t>{0, 1, 3, 4}));
}

}  // namespace
}  // namespace madmpi
