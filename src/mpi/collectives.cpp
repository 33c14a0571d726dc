// Collective operations over point-to-point (the "generic part: collective
// ops" box of the MPICH structure, paper Figure 1). Every collective runs a
// generated schedule (coll_schedule.cpp) through one runner, except two
// compositions of the public calls: allgatherv (gatherv to rank 0, then
// bcast) and reduce_scatter_block (reduce, then scatter). The plain
// gather/scatter/alltoall delegate to their v-variants with equal blocks.
//
// Contiguous datatypes are sent from and received into the user buffers
// directly; any other type is packed once before the run and unpacked once
// after it (Blocks below). Collectives run on `context + 1` — the private
// collective context of the communicator — so their traffic can never
// match user receives.
//
// Every entry point runs its body once inside ft_guard, the one place
// that knows about the opt-in fault-tolerant mode (DESIGN.md §9). Under
// its capture the body's hops record failures instead of unwinding, and
// bcast's binomial tree is the survivable one (ft_bcast_tree).
#include <climits>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "mpi/coll_schedule.hpp"
#include "mpi/comm.hpp"
#include "mpi/comm_shared.hpp"
#include "mpi/ft_internal.hpp"

namespace madmpi::mpi {

namespace {

/// Where each rank's block of a gather/scatter/allgather/alltoall buffer
/// sits in the buffer the schedule addresses. A contiguous type is
/// addressed in the user buffer itself; any other type through one packed
/// staging copy, packed before the run (send side) or unpacked after it
/// (receive side).
class Blocks {
 public:
  Blocks() = default;
  /// Block r: counts[r] elements at element displacement displs[r].
  Blocks(const Datatype& type, std::span<const int> counts,
         std::span<const int> displs)
      : type_(type) {
    blocks_.reserve(counts.size());
    if (!type.is_contiguous()) user_.reserve(counts.size());
    std::size_t packed = 0;
    for (std::size_t r = 0; r < counts.size(); ++r) {
      const std::size_t bytes =
          type.size() * static_cast<std::size_t>(counts[r]);
      const std::size_t at =
          type.extent() * static_cast<std::size_t>(displs[r]);
      if (type.is_contiguous()) {
        blocks_.push_back({at, bytes});
      } else {
        user_.push_back({at, counts[r]});
        blocks_.push_back({packed, bytes});
        packed += bytes;
      }
    }
    staging_.resize(packed);
  }
  /// One block of `count` elements.
  Blocks(const Datatype& type, int count)
      : Blocks(type, std::span<const int>(&count, 1), kZero) {}

  std::span<const Block> blocks() const { return blocks_; }
  const Block& at(rank_t r) const {
    return blocks_[static_cast<std::size_t>(r)];
  }

  /// The send side: the user buffer, or the staging packed from it.
  const std::byte* in(const void* user) {
    if (type_.is_contiguous()) return static_cast<const std::byte*>(user);
    for (std::size_t r = 0; r < blocks_.size(); ++r) {
      type_.pack(static_cast<const std::byte*>(user) + user_[r].at,
                 user_[r].count, staging_.data() + blocks_[r].offset);
    }
    return staging_.data();
  }

  /// The receive side: the user buffer, or the staging unpack() drains.
  std::byte* out(void* user) {
    return type_.is_contiguous() ? static_cast<std::byte*>(user)
                                 : staging_.data();
  }
  void unpack(void* user) const {
    if (type_.is_contiguous()) return;
    for (std::size_t r = 0; r < blocks_.size(); ++r) {
      type_.unpack(staging_.data() + blocks_[r].offset, user_[r].count,
                   static_cast<std::byte*>(user) + user_[r].at);
    }
  }

 private:
  static constexpr int kZero[1] = {0};
  struct Placed {
    std::size_t at;  // byte offset in the user buffer
    int count;
  };
  Datatype type_ = Datatype::byte();
  std::vector<Placed> user_;  // staged types only
  std::vector<Block> blocks_;
  std::vector<std::byte> staging_;
};

/// `n` blocks of `count` elements, rank r's at element r * count: the plain
/// calls' layout, in the v-variants' int displacements.
std::pair<std::vector<int>, std::vector<int>> equal_blocks(int count, int n) {
  MADMPI_CHECK_MSG(
      count >= 0 && static_cast<std::int64_t>(count) * n <= INT_MAX,
      "collective buffer exceeds the int displacement range");
  std::vector<int> displs;
  displs.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) displs.push_back(r * count);
  return {std::vector<int>(static_cast<std::size_t>(n), count),
          std::move(displs)};
}

/// A rank's own block never touches the wire: one copy between the two
/// addressed buffers.
void copy_own(const std::byte* in, const Block& from, std::byte* out,
              const Block& to) {
  MADMPI_CHECK_MSG(from.bytes == to.bytes,
                   "own block: send/recv type signatures disagree");
  if (from.bytes > 0) {
    std::memcpy(out + to.offset, in + from.offset, from.bytes);
  }
}

}  // namespace

template <class Body>
Status Comm::ft_guard(Body&& body) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (!ft_should_wrap()) return body();
  const int epoch = shared_->next_epoch(rank_);
  ft::begin_capture(epoch);
  const Status inner = body();
  ErrorCode observed = ft::end_capture();
  if (observed == ErrorCode::kOk && !inner.is_ok()) observed = inner.code();

  const FtOutcome agreed = ft_agree_internal(
      epoch, observed == ErrorCode::kOk ? 0u : 1u, 0xffffffffu, {});
  if (agreed.err_bits != 0) {
    return raise_error(
        Status(ErrorCode::kProcFailed,
               "collective failed on at least one rank (agreed)"));
  }
  return Status::ok();
}

Status Comm::coll_try_send(const void* buf, std::size_t bytes, rank_t dest,
                           int tag) {
  // Collective traffic obeys the same flow control as user traffic: a
  // congested peer demotes the hop to rendezvous.
  Envelope env = make_envelope(dest, ft::remap_tag(tag), bytes, false);
  env.context = shared_->context + 1;
  return send_core(dest, env,
                   byte_span{static_cast<const std::byte*>(buf), bytes},
                   SendKind::kBlocking)
      .status;
}

Request Comm::coll_isend(const void* buf, std::size_t bytes, rank_t dest,
                         int tag) {
  // The schedule keeps its payload buffer alive until every tracked
  // sub-operation completes, so the rendezvous borrows it instead of
  // paying a staging copy per tree hop.
  Envelope env = make_envelope(dest, tag, bytes, false);
  env.context = shared_->context + 1;
  return send_request(
      env, send_core(dest, env,
                     byte_span{static_cast<const std::byte*>(buf), bytes},
                     SendKind::kBorrowed));
}

void Comm::coll_send(const void* buf, std::size_t bytes, rank_t dest,
                     int tag) {
  const bool capture = ft::capture_active();
  if (capture && rank_unreachable(rank_, dest)) {
    // The detector already proves this hop dead: skip the device (and in
    // particular never start a rendezvous handshake a dead peer cannot
    // answer) and record the verdict.
    ft::record(ErrorCode::kProcFailed);
    return;
  }
  const Status status = coll_try_send(buf, bytes, dest, tag);
  if (status.is_ok()) return;
  if (capture) {
    ft::record(status.code());
    return;
  }
  throw CollAbort{status};
}

void Comm::coll_send_multi(const std::vector<rank_t>& children,
                           const void* buf, std::size_t bytes, int tag) {
  if (children.empty()) return;
  if (ft::capture_active() || children.size() == 1) {
    for (rank_t child : children) coll_send(buf, bytes, child, tag);
    return;
  }
  // The caller blocks right here until every hop completes, so the
  // rendezvous helpers can borrow `buf` without staging (coll_isend's
  // lifetime contract).
  std::vector<Request> requests;
  requests.reserve(children.size());
  for (rank_t child : children) {
    requests.push_back(coll_isend(buf, bytes, child, tag));
  }
  for (Request& request : requests) coll_wait(*request.state());
}

std::shared_ptr<RequestState> Comm::coll_post_recv(void* buf,
                                                   std::size_t bytes,
                                                   rank_t source, int tag,
                                                   usec_t ft_timeout_us) {
  auto state = std::make_shared<RequestState>(my_node());
  PostedRecv posted;
  posted.context = shared_->context + 1;
  posted.source = source;
  posted.tag = tag;
  posted.buffer = buf;
  posted.count = static_cast<int>(bytes);
  posted.capacity_bytes = bytes;
  posted.request = state;
  if (source != kAnySource) posted.source_global = global_rank_of(source);
  posted.posted_at = my_node().clock().now();
  if (ft_timeout_us > 0) {
    posted.ft_deadline_us = posted.posted_at + ft_timeout_us;
  }
  my_context().post_recv(std::move(posted));
  return state;
}

void Comm::set_collective_config(const CollectiveConfig& config) {
  std::lock_guard<std::mutex> lock(shared_->seq_mutex);
  shared_->collectives_of(rank_) = config;
}

CollectiveConfig Comm::collective_config() const {
  std::lock_guard<std::mutex> lock(shared_->seq_mutex);
  return shared_->collectives_of(rank_);
}

Status Comm::barrier() {
  return ft_guard([&] {
    if (size() == 1) return Status::ok();
    return run_schedule(
        barrier_schedule(resolve_barrier(), coll_topo(), rank_), nullptr,
        nullptr);
  });
}

Status Comm::bcast(void* buf, int count, const Datatype& type, rank_t root) {
  MADMPI_CHECK(root >= 0 && root < size());
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  // In place: the root's payload (packed once when non-contiguous) and
  // every other rank's landing share one buffer, unpacked only once the
  // guard reports success (in FT mode, after the agreement).
  Blocks wire(type, count);
  std::byte* data = wire.out(buf);
  const Status status = ft_guard([&] {
    if (size() == 1) return Status::ok();
    if (rank_ == root) wire.in(buf);
    if (ft::capture_active()) {
      ft_bcast_tree(data, bytes, root);
      return Status::ok();
    }
    return run_schedule(
        bcast_schedule(resolve_bcast(bytes), coll_topo(), rank_, root, bytes),
        data, data);
  });
  if (status.is_ok() && rank_ != root) wire.unpack(buf);
  return status;
}

Status Comm::reduce(const void* send_buf, void* recv_buf, int count,
                    const Datatype& type, const Op& op, rank_t root) {
  MADMPI_CHECK(root >= 0 && root < size());
  MADMPI_CHECK_MSG(type.is_contiguous(),
                   "reduce requires a contiguous datatype");
  return ft_guard([&] {
    const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
    // Local accumulator starts as this rank's contribution. Reduce has no
    // algorithm knob of its own: it rides the allreduce resolution, whose
    // hierarchical variant shares its fan-in.
    std::vector<std::byte> accum(bytes);
    std::memcpy(accum.data(), send_buf, bytes);
    const bool hierarchical =
        size() > 1 &&
        resolve_allreduce(bytes) == AllreduceAlgorithm::kHierarchical;
    const Status status = run_schedule(
        reduce_schedule(hierarchical, coll_topo(), rank_, root, bytes),
        accum.data(), accum.data(), type, &op);
    if (!status.is_ok()) return status;
    if (rank_ == root) {
      std::memcpy(recv_buf, accum.data(), bytes);
    }
    return Status::ok();
  });
}

Status Comm::allreduce(const void* send_buf, void* recv_buf, int count,
                       const Datatype& type, const Op& op) {
  return ft_guard([&] {
    const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
    // FT mode resolves to kReduceBcast: reduce, then the survivable bcast.
    AllreduceAlgorithm algorithm = resolve_allreduce(bytes);
    // The ring needs at least one element per rank to be worthwhile (and
    // correct chunking); degrade gracefully for tiny payloads.
    if (algorithm == AllreduceAlgorithm::kRing && count < size()) {
      algorithm = AllreduceAlgorithm::kRecursiveDoubling;
    }
    if (size() == 1 || algorithm == AllreduceAlgorithm::kReduceBcast) {
      // The inner collectives already routed any failure through the
      // error handler; propagate without raising a second time.
      Status status = reduce(send_buf, recv_buf, count, type, op, 0);
      if (!status.is_ok()) return status;
      return bcast(recv_buf, count, type, 0);
    }

    MADMPI_CHECK_MSG(type.is_contiguous(),
                     "allreduce requires a contiguous datatype");
    std::memcpy(recv_buf, send_buf, bytes);
    auto* data = static_cast<std::byte*>(recv_buf);
    return run_schedule(
        allreduce_schedule(algorithm, coll_topo(), rank_, count, type.size()),
        data, data, type, &op);
  });
}

Status Comm::gather(const void* send_buf, int send_count,
                    const Datatype& send_type, void* recv_buf, int recv_count,
                    const Datatype& recv_type, rank_t root) {
  // The receive layout is significant at the root only.
  const auto [counts, displs] =
      equal_blocks(rank_ == root ? recv_count : 0, size());
  return gatherv(send_buf, send_count, send_type, recv_buf, counts, displs,
                 recv_type, root);
}

Status Comm::gatherv(const void* send_buf, int send_count,
                     const Datatype& send_type, void* recv_buf,
                     std::span<const int> recv_counts,
                     std::span<const int> displacements,
                     const Datatype& recv_type, rank_t root) {
  return ft_guard([&] {
    const int n = size();
    Blocks send(send_type, send_count);
    const std::byte* in = send.in(send_buf);
    Blocks recv;
    std::byte* out = nullptr;
    if (rank_ == root) {
      MADMPI_CHECK(recv_counts.size() == static_cast<std::size_t>(n));
      MADMPI_CHECK(displacements.size() == static_cast<std::size_t>(n));
      recv = Blocks(recv_type, recv_counts, displacements);
      out = recv.out(recv_buf);
      copy_own(in, send.at(0), out, recv.at(root));
    }
    const Status status = run_schedule(
        gather_schedule(n, rank_, root, send.at(0).bytes, recv.blocks()), in,
        out);
    if (status.is_ok()) recv.unpack(recv_buf);
    return status;
  });
}

Status Comm::scatter(const void* send_buf, int send_count,
                     const Datatype& send_type, void* recv_buf,
                     int recv_count, const Datatype& recv_type, rank_t root) {
  // The send layout is significant at the root only.
  const auto [counts, displs] =
      equal_blocks(rank_ == root ? send_count : 0, size());
  return scatterv(send_buf, counts, displs, send_type, recv_buf, recv_count,
                  recv_type, root);
}

Status Comm::scatterv(const void* send_buf, std::span<const int> send_counts,
                      std::span<const int> displacements,
                      const Datatype& send_type, void* recv_buf,
                      int recv_count, const Datatype& recv_type,
                      rank_t root) {
  return ft_guard([&] {
    const int n = size();
    Blocks recv(recv_type, recv_count);
    std::byte* out = recv.out(recv_buf);
    Blocks send;
    const std::byte* in = nullptr;
    if (rank_ == root) {
      MADMPI_CHECK(send_counts.size() == static_cast<std::size_t>(n));
      MADMPI_CHECK(displacements.size() == static_cast<std::size_t>(n));
      send = Blocks(send_type, send_counts, displacements);
      in = send.in(send_buf);
      copy_own(in, send.at(root), out, recv.at(0));
    }
    const Status status = run_schedule(
        scatter_schedule(n, rank_, root, send.blocks(), recv.at(0).bytes), in,
        out);
    if (status.is_ok()) recv.unpack(recv_buf);
    return status;
  });
}

Status Comm::allgather(const void* send_buf, int send_count,
                       const Datatype& send_type, void* recv_buf,
                       int recv_count, const Datatype& recv_type) {
  return ft_guard([&] {
    const int n = size();
    const auto [counts, displs] = equal_blocks(recv_count, n);
    Blocks send(send_type, send_count);
    Blocks recv(recv_type, counts, displs);
    std::byte* out = recv.out(recv_buf);
    copy_own(send.in(send_buf), send.at(0), out, recv.at(rank_));
    // In place: each step forwards a block an earlier step landed.
    const Status status =
        run_schedule(allgather_schedule(n, rank_, recv.blocks()), out, out);
    if (status.is_ok()) recv.unpack(recv_buf);
    return status;
  });
}

Status Comm::allgatherv(const void* send_buf, int send_count,
                        const Datatype& send_type, void* recv_buf,
                        std::span<const int> recv_counts,
                        std::span<const int> displacements,
                        const Datatype& recv_type) {
  return ft_guard([&] {
    const int n = size();
    MADMPI_CHECK(recv_counts.size() == static_cast<std::size_t>(n));
    MADMPI_CHECK(displacements.size() == static_cast<std::size_t>(n));
    // Gather the packed blocks to rank 0, then bcast their concatenation
    // (simple and correct for ragged sizes). The inner calls route any
    // failure through the error handler themselves.
    std::vector<int> wire_counts;
    std::vector<int> wire_displs;
    std::int64_t total = 0;
    for (int r = 0; r < n; ++r) {
      wire_displs.push_back(static_cast<int>(total));
      total += static_cast<std::int64_t>(recv_type.size()) * recv_counts[r];
      MADMPI_CHECK_MSG(recv_counts[r] >= 0 && total <= INT_MAX,
                       "allgatherv blocks exceed the int byte count range");
      wire_counts.push_back(static_cast<int>(total) - wire_displs.back());
    }
    const int wire_bytes = static_cast<int>(total);
    std::vector<std::byte> wire(static_cast<std::size_t>(wire_bytes));
    Status status = gatherv(send_buf, send_count, send_type, wire.data(),
                            wire_counts, wire_displs, Datatype::byte(), 0);
    if (!status.is_ok()) return status;
    status = bcast(wire.data(), wire_bytes, Datatype::byte(), 0);
    if (!status.is_ok()) return status;
    auto* out = static_cast<std::byte*>(recv_buf);
    for (int r = 0; r < n; ++r) {
      recv_type.unpack(
          wire.data() + wire_displs[static_cast<std::size_t>(r)],
          recv_counts[r],
          out + recv_type.extent() *
                    static_cast<std::size_t>(displacements[r]));
    }
    return Status::ok();
  });
}

Status Comm::alltoall(const void* send_buf, int send_count,
                      const Datatype& send_type, void* recv_buf,
                      int recv_count, const Datatype& recv_type) {
  const int n = size();
  const auto [send_counts, send_displs] = equal_blocks(send_count, n);
  const auto [recv_counts, recv_displs] = equal_blocks(recv_count, n);
  return alltoallv(send_buf, send_counts, send_displs, send_type, recv_buf,
                   recv_counts, recv_displs, recv_type);
}

Status Comm::alltoallv(const void* send_buf, std::span<const int> send_counts,
                       std::span<const int> send_displs,
                       const Datatype& send_type, void* recv_buf,
                       std::span<const int> recv_counts,
                       std::span<const int> recv_displs,
                       const Datatype& recv_type) {
  return ft_guard([&] {
    const int n = size();
    MADMPI_CHECK(send_counts.size() == static_cast<std::size_t>(n));
    MADMPI_CHECK(send_displs.size() == static_cast<std::size_t>(n));
    MADMPI_CHECK(recv_counts.size() == static_cast<std::size_t>(n));
    MADMPI_CHECK(recv_displs.size() == static_cast<std::size_t>(n));
    Blocks send(send_type, send_counts, send_displs);
    Blocks recv(recv_type, recv_counts, recv_displs);
    const std::byte* in = send.in(send_buf);
    std::byte* out = recv.out(recv_buf);
    copy_own(in, send.at(rank_), out, recv.at(rank_));
    const Status status = run_schedule(
        alltoall_schedule(n, rank_, send.blocks(), recv.blocks()), in, out);
    if (status.is_ok()) recv.unpack(recv_buf);
    return status;
  });
}

Status Comm::scan(const void* send_buf, void* recv_buf, int count,
                  const Datatype& type, const Op& op) {
  MADMPI_CHECK_MSG(type.is_contiguous(), "scan requires a contiguous datatype");
  return ft_guard([&] {
    const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
    std::memcpy(recv_buf, send_buf, bytes);
    auto* data = static_cast<std::byte*>(recv_buf);
    return run_schedule(scan_schedule(size(), rank_, bytes), data, data, type,
                        &op);
  });
}

Status Comm::reduce_scatter_block(const void* send_buf, void* recv_buf,
                                  int count, const Datatype& type,
                                  const Op& op) {
  MADMPI_CHECK_MSG(type.is_contiguous(),
                   "reduce_scatter requires a contiguous datatype");
  return ft_guard([&] {
    const int n = size();
    std::vector<std::byte> full(type.size() *
                                static_cast<std::size_t>(count) *
                                static_cast<std::size_t>(n));
    Status status = reduce(send_buf, full.data(), count * n, type, op, 0);
    if (!status.is_ok()) return status;  // reduce already raised
    return scatter(full.data(), count, type, recv_buf, count, type, 0);
  });
}

}  // namespace madmpi::mpi
