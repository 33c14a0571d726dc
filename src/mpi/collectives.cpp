// Collective operations over point-to-point (the "generic part: collective
// ops" box of the MPICH structure, paper Figure 1). barrier, bcast, reduce
// and allreduce run generated schedules (coll_schedule.cpp); the rest are
// the classic MPICH algorithms: ring allgather, pairwise alltoall, linear
// gather/scatter/scan.
//
// Collectives run on `context + 1` — the private collective context of the
// communicator — so their traffic can never match user receives.
#include <cstring>
#include <vector>

#include "mpi/coll_schedule.hpp"
#include "mpi/comm.hpp"
#include "mpi/comm_shared.hpp"
#include "mpi/ft_internal.hpp"

namespace madmpi::mpi {

void Comm::coll_send(const void* buf, std::size_t bytes, rank_t dest,
                     int tag) {
  if (ft::capture_active() && rank_unreachable(rank_, dest)) {
    // The detector already proves this hop dead: skip the device (and in
    // particular never start a rendezvous handshake a dead peer cannot
    // answer) and record the verdict.
    ft::record(ErrorCode::kProcFailed);
    return;
  }
  Envelope env = make_envelope(dest, ft::remap_tag(tag), bytes, false);
  env.context = shared_->context + 1;
  Device& device = device_to(dest);
  const rank_t dst_global = global_rank_of(dest);
  // Collective traffic obeys the same flow control as user traffic: a
  // congested peer demotes the hop to rendezvous.
  const TransferMode mode =
      admit_or_demote(device, dst_global, env, false, /*may_block=*/true);
  Status status =
      device.send(global_rank_of(rank_), dst_global, env,
                  byte_span{static_cast<const std::byte*>(buf), bytes},
                  mode);
  if (!status.is_ok()) {
    release_admission(dst_global, env, mode);
    if (ft::capture_active()) {
      ft::record(status.code());
      return;
    }
    throw CollAbort{status};
  }
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
                                                   bool hooked) {
  const bool capture = !hooked && ft::capture_active();
  if (capture && rank_unreachable(source, rank_)) {
    ft::record(ErrorCode::kProcFailed);
    return nullptr;
  }
  auto state = std::make_shared<RequestState>(my_node());
  PostedRecv posted;
  posted.context = shared_->context + 1;
  posted.source = source;
  posted.tag = capture ? ft::remap_tag(tag) : tag;
  posted.buffer = buf;
  posted.count = static_cast<int>(bytes);
  posted.capacity_bytes = bytes;
  posted.request = state;
  posted.source_global = global_rank_of(source);
  posted.posted_at = my_node().clock().now();
  if (capture) {
    posted.ft_deadline_us =
        posted.posted_at + collective_config().agree_timeout_us;
  }
  my_context().post_recv(std::move(posted));
  return state;
}

void Comm::coll_recv(void* buf, std::size_t bytes, rank_t source, int tag) {
  if (auto state = coll_post_recv(buf, bytes, source, tag)) coll_wait(*state);
}

void Comm::gather_packed_to_root(const void* send_buf, int send_count,
                                 const Datatype& send_type, std::byte* wire,
                                 const std::vector<std::size_t>& offsets,
                                 rank_t root) {
  const int n = size();
  if (rank_ != root) {
    std::vector<std::byte> staging;
    const byte_span packed =
        pack_for_send(send_buf, send_count, send_type, staging);
    coll_send(packed.data(), packed.size(), root, kGatherTag);
    return;
  }
  MADMPI_CHECK(offsets.size() == static_cast<std::size_t>(n) + 1);
  for (rank_t src = 0; src < n; ++src) {
    std::byte* dst = wire + offsets[static_cast<std::size_t>(src)];
    const std::size_t bytes = offsets[static_cast<std::size_t>(src) + 1] -
                              offsets[static_cast<std::size_t>(src)];
    if (src == rank_) {
      MADMPI_CHECK_MSG(
          send_type.size() * static_cast<std::size_t>(send_count) == bytes,
          "gather root's own block disagrees with its receive slot");
      send_type.pack(send_buf, send_count, dst);
    } else {
      coll_recv(dst, bytes, src, kGatherTag);
    }
  }
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
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] { return barrier(); });
  }
  if (size() == 1) return Status::ok();
  return run_schedule(barrier_schedule(resolve_barrier(), coll_topo(), rank_),
                      nullptr);
}

Status Comm::bcast(void* buf, int count, const Datatype& type, rank_t root) {
  MADMPI_CHECK(root >= 0 && root < size());
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_bcast(buf, count, type, root);
  }
  if (size() == 1) return Status::ok();
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);

  // The payload travels packed; non-contiguous types are staged.
  std::vector<std::byte> staging;
  std::byte* wire = nullptr;
  if (type.is_contiguous()) {
    wire = static_cast<std::byte*>(buf);
  } else {
    staging.resize(bytes);
    wire = staging.data();
    if (rank_ == root) type.pack(buf, count, wire);
  }

  const Status status = run_schedule(
      bcast_schedule(resolve_bcast(bytes), coll_topo(), rank_, root, bytes),
      wire);
  if (!status.is_ok()) return status;
  if (!type.is_contiguous() && rank_ != root) {
    type.unpack(wire, count, buf);
  }
  return Status::ok();
}

Status Comm::reduce(const void* send_buf, void* recv_buf, int count,
                    const Datatype& type, const Op& op, rank_t root) {
  MADMPI_CHECK(root >= 0 && root < size());
  MADMPI_CHECK_MSG(type.is_contiguous(),
                   "reduce requires a contiguous datatype");
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective(
        [&] { return reduce(send_buf, recv_buf, count, type, op, root); });
  }
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
      accum.data(), type, &op);
  if (!status.is_ok()) return status;
  if (rank_ == root) {
    std::memcpy(recv_buf, accum.data(), bytes);
  }
  return Status::ok();
}

Status Comm::allreduce(const void* send_buf, void* recv_buf, int count,
                       const Datatype& type, const Op& op) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_allreduce(send_buf, recv_buf, count, type, op);
  }
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  AllreduceAlgorithm algorithm = resolve_allreduce(bytes);
  // The ring needs at least one element per rank to be worthwhile (and
  // correct chunking); degrade gracefully for tiny payloads.
  if (algorithm == AllreduceAlgorithm::kRing && count < size()) {
    algorithm = AllreduceAlgorithm::kRecursiveDoubling;
  }
  if (size() == 1 || algorithm == AllreduceAlgorithm::kReduceBcast) {
    // The inner collectives already routed any failure through the error
    // handler; propagate without raising a second time.
    Status status = reduce(send_buf, recv_buf, count, type, op, 0);
    if (!status.is_ok()) return status;
    return bcast(recv_buf, count, type, 0);
  }

  MADMPI_CHECK_MSG(type.is_contiguous(),
                   "allreduce requires a contiguous datatype");
  std::memcpy(recv_buf, send_buf, bytes);
  return run_schedule(
      allreduce_schedule(algorithm, coll_topo(), rank_, count, type.size()),
      static_cast<std::byte*>(recv_buf), type, &op);
}

Status Comm::gather(const void* send_buf, int send_count,
                    const Datatype& send_type, void* recv_buf, int recv_count,
                    const Datatype& recv_type, rank_t root) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return gather(send_buf, send_count, send_type, recv_buf, recv_count,
                    recv_type, root);
    });
  }
  const int n = size();
  const std::size_t bytes =
      send_type.size() * static_cast<std::size_t>(send_count);
  std::vector<std::size_t> offsets;
  std::vector<std::byte> wire;
  if (rank_ == root) {
    MADMPI_CHECK_MSG(
        recv_type.size() * static_cast<std::size_t>(recv_count) == bytes,
        "gather send/recv type signatures disagree");
    offsets.resize(static_cast<std::size_t>(n) + 1, 0);
    for (int r = 0; r < n; ++r) {
      offsets[static_cast<std::size_t>(r) + 1] =
          offsets[static_cast<std::size_t>(r)] + bytes;
    }
    wire.resize(offsets.back());
  }
  try {
    gather_packed_to_root(send_buf, send_count, send_type, wire.data(),
                          offsets, root);
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  if (rank_ == root) {
    auto* out = static_cast<std::byte*>(recv_buf);
    const std::size_t slot =
        recv_type.extent() * static_cast<std::size_t>(recv_count);
    for (rank_t src = 0; src < n; ++src) {
      recv_type.unpack(wire.data() + offsets[static_cast<std::size_t>(src)],
                       recv_count, out + slot * static_cast<std::size_t>(src));
    }
  }
  return Status::ok();
}

Status Comm::gatherv(const void* send_buf, int send_count,
                     const Datatype& send_type, void* recv_buf,
                     std::span<const int> recv_counts,
                     std::span<const int> displacements,
                     const Datatype& recv_type, rank_t root) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return gatherv(send_buf, send_count, send_type, recv_buf, recv_counts,
                     displacements, recv_type, root);
    });
  }
  const int n = size();
  std::vector<std::size_t> offsets;
  std::vector<std::byte> wire;
  if (rank_ == root) {
    MADMPI_CHECK(recv_counts.size() == static_cast<std::size_t>(n));
    MADMPI_CHECK(displacements.size() == static_cast<std::size_t>(n));
    offsets.resize(static_cast<std::size_t>(n) + 1, 0);
    for (int r = 0; r < n; ++r) {
      offsets[static_cast<std::size_t>(r) + 1] =
          offsets[static_cast<std::size_t>(r)] +
          recv_type.size() * static_cast<std::size_t>(recv_counts[r]);
    }
    wire.resize(offsets.back());
  }
  try {
    gather_packed_to_root(send_buf, send_count, send_type, wire.data(),
                          offsets, root);
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  if (rank_ == root) {
    auto* out = static_cast<std::byte*>(recv_buf);
    for (rank_t src = 0; src < n; ++src) {
      recv_type.unpack(wire.data() + offsets[static_cast<std::size_t>(src)],
                       recv_counts[src],
                       out + recv_type.extent() *
                                 static_cast<std::size_t>(displacements[src]));
    }
  }
  return Status::ok();
}

Status Comm::scatter(const void* send_buf, int send_count,
                     const Datatype& send_type, void* recv_buf,
                     int recv_count, const Datatype& recv_type, rank_t root) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return scatter(send_buf, send_count, send_type, recv_buf, recv_count,
                     recv_type, root);
    });
  }
  const int n = size();
  const std::size_t bytes =
      recv_type.size() * static_cast<std::size_t>(recv_count);
  try {
    if (rank_ == root) {
      MADMPI_CHECK_MSG(
          send_type.size() * static_cast<std::size_t>(send_count) == bytes,
          "scatter send/recv type signatures disagree");
      const auto* in = static_cast<const std::byte*>(send_buf);
      const std::size_t slot =
          send_type.extent() * static_cast<std::size_t>(send_count);
      std::vector<std::byte> wire(bytes);
      for (rank_t dst = 0; dst < n; ++dst) {
        const std::byte* src_elem = in + slot * static_cast<std::size_t>(dst);
        send_type.pack(src_elem, send_count, wire.data());
        if (dst == rank_) {
          recv_type.unpack(wire.data(), recv_count, recv_buf);
        } else {
          coll_send(wire.data(), bytes, dst, kScatterTag);
        }
      }
    } else {
      std::vector<std::byte> wire(bytes);
      coll_recv(wire.data(), bytes, root, kScatterTag);
      recv_type.unpack(wire.data(), recv_count, recv_buf);
    }
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  return Status::ok();
}

Status Comm::scatterv(const void* send_buf, std::span<const int> send_counts,
                      std::span<const int> displacements,
                      const Datatype& send_type, void* recv_buf,
                      int recv_count, const Datatype& recv_type,
                      rank_t root) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return scatterv(send_buf, send_counts, displacements, send_type,
                      recv_buf, recv_count, recv_type, root);
    });
  }
  const int n = size();
  try {
    if (rank_ == root) {
      MADMPI_CHECK(send_counts.size() == static_cast<std::size_t>(n));
      MADMPI_CHECK(displacements.size() == static_cast<std::size_t>(n));
      const auto* in = static_cast<const std::byte*>(send_buf);
      for (rank_t dst = 0; dst < n; ++dst) {
        const std::size_t bytes =
            send_type.size() * static_cast<std::size_t>(send_counts[dst]);
        const std::byte* src_elem =
            in + send_type.extent() *
                     static_cast<std::size_t>(displacements[dst]);
        std::vector<std::byte> wire(bytes);
        send_type.pack(src_elem, send_counts[dst], wire.data());
        if (dst == rank_) {
          MADMPI_CHECK(recv_type.size() *
                           static_cast<std::size_t>(recv_count) == bytes);
          recv_type.unpack(wire.data(), recv_count, recv_buf);
        } else {
          coll_send(wire.data(), bytes, dst, kScatterTag);
        }
      }
    } else {
      const std::size_t bytes =
          recv_type.size() * static_cast<std::size_t>(recv_count);
      std::vector<std::byte> wire(bytes);
      coll_recv(wire.data(), bytes, root, kScatterTag);
      recv_type.unpack(wire.data(), recv_count, recv_buf);
    }
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  return Status::ok();
}

Status Comm::allgather(const void* send_buf, int send_count,
                       const Datatype& send_type, void* recv_buf,
                       int recv_count, const Datatype& recv_type) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return allgather(send_buf, send_count, send_type, recv_buf, recv_count,
                       recv_type);
    });
  }
  // Ring algorithm: size-1 steps, each forwarding the freshest block.
  const int n = size();
  const std::size_t block =
      send_type.size() * static_cast<std::size_t>(send_count);
  MADMPI_CHECK_MSG(
      recv_type.size() * static_cast<std::size_t>(recv_count) == block,
      "allgather send/recv type signatures disagree");

  std::vector<std::byte> wire(block * static_cast<std::size_t>(n));
  send_type.pack(send_buf, send_count,
                 wire.data() + block * static_cast<std::size_t>(rank_));

  const rank_t right = (rank_ + 1) % n;
  const rank_t left = (rank_ - 1 + n) % n;
  int cur = rank_;
  try {
    for (int step = 0; step < n - 1; ++step) {
      const int incoming = (cur - 1 + n) % n;
      // Post the receive before sending to avoid rendezvous cross-blocking.
      const auto state = coll_post_recv(
          wire.data() + block * static_cast<std::size_t>(incoming), block,
          left, kAllgatherTag);
      coll_send(wire.data() + block * static_cast<std::size_t>(cur), block,
                right, kAllgatherTag);
      if (state) coll_wait(*state);
      cur = incoming;
    }
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }

  auto* out = static_cast<std::byte*>(recv_buf);
  const std::size_t slot =
      recv_type.extent() * static_cast<std::size_t>(recv_count);
  for (rank_t r = 0; r < n; ++r) {
    recv_type.unpack(wire.data() + block * static_cast<std::size_t>(r),
                     recv_count, out + slot * static_cast<std::size_t>(r));
  }
  return Status::ok();
}

Status Comm::allgatherv(const void* send_buf, int send_count,
                        const Datatype& send_type, void* recv_buf,
                        std::span<const int> recv_counts,
                        std::span<const int> displacements,
                        const Datatype& recv_type) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return allgatherv(send_buf, send_count, send_type, recv_buf,
                        recv_counts, displacements, recv_type);
    });
  }
  // Gather-to-0 then bcast of the concatenated packed blocks (simple and
  // correct for ragged sizes).
  const int n = size();
  MADMPI_CHECK(recv_counts.size() == static_cast<std::size_t>(n));
  MADMPI_CHECK(displacements.size() == static_cast<std::size_t>(n));

  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (int r = 0; r < n; ++r) {
    offsets[static_cast<std::size_t>(r) + 1] =
        offsets[static_cast<std::size_t>(r)] +
        recv_type.size() * static_cast<std::size_t>(recv_counts[r]);
  }
  std::vector<std::byte> wire(offsets.back());

  try {
    gather_packed_to_root(send_buf, send_count, send_type, wire.data(),
                          offsets, 0);
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  Status status =
      bcast(wire.data(), static_cast<int>(wire.size()), Datatype::byte(), 0);
  if (!status.is_ok()) return status;  // bcast already raised

  auto* out = static_cast<std::byte*>(recv_buf);
  for (rank_t r = 0; r < n; ++r) {
    recv_type.unpack(wire.data() + offsets[static_cast<std::size_t>(r)],
                     recv_counts[r],
                     out + recv_type.extent() *
                               static_cast<std::size_t>(displacements[r]));
  }
  return Status::ok();
}

Status Comm::alltoall(const void* send_buf, int send_count,
                      const Datatype& send_type, void* recv_buf,
                      int recv_count, const Datatype& recv_type) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return alltoall(send_buf, send_count, send_type, recv_buf, recv_count,
                      recv_type);
    });
  }
  const int n = size();
  const std::size_t block =
      send_type.size() * static_cast<std::size_t>(send_count);
  MADMPI_CHECK_MSG(
      recv_type.size() * static_cast<std::size_t>(recv_count) == block,
      "alltoall send/recv type signatures disagree");

  const auto* in = static_cast<const std::byte*>(send_buf);
  auto* out = static_cast<std::byte*>(recv_buf);
  const std::size_t in_slot =
      send_type.extent() * static_cast<std::size_t>(send_count);
  const std::size_t out_slot =
      recv_type.extent() * static_cast<std::size_t>(recv_count);

  std::vector<std::byte> send_wire(block);
  std::vector<std::byte> recv_wire(block);

  // Own block first.
  send_type.pack(in + in_slot * static_cast<std::size_t>(rank_), send_count,
                 send_wire.data());
  recv_type.unpack(send_wire.data(), recv_count,
                   out + out_slot * static_cast<std::size_t>(rank_));

  // Pairwise exchange: step i pairs (rank+i) with (rank-i).
  try {
    for (int i = 1; i < n; ++i) {
      const rank_t dst = (rank_ + i) % n;
      const rank_t src = (rank_ - i + n) % n;

      const auto state =
          coll_post_recv(recv_wire.data(), block, src, kAlltoallTag);
      send_type.pack(in + in_slot * static_cast<std::size_t>(dst), send_count,
                     send_wire.data());
      coll_send(send_wire.data(), block, dst, kAlltoallTag);
      if (!state) continue;  // FT capture skipped a provably dead source
      coll_wait(*state);
      recv_type.unpack(recv_wire.data(), recv_count,
                       out + out_slot * static_cast<std::size_t>(src));
    }
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  return Status::ok();
}

Status Comm::alltoallv(const void* send_buf, std::span<const int> send_counts,
                       std::span<const int> send_displs,
                       const Datatype& send_type, void* recv_buf,
                       std::span<const int> recv_counts,
                       std::span<const int> recv_displs,
                       const Datatype& recv_type) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return alltoallv(send_buf, send_counts, send_displs, send_type,
                       recv_buf, recv_counts, recv_displs, recv_type);
    });
  }
  const int n = size();
  MADMPI_CHECK(send_counts.size() == static_cast<std::size_t>(n));
  MADMPI_CHECK(send_displs.size() == static_cast<std::size_t>(n));
  MADMPI_CHECK(recv_counts.size() == static_cast<std::size_t>(n));
  MADMPI_CHECK(recv_displs.size() == static_cast<std::size_t>(n));

  const auto* in = static_cast<const std::byte*>(send_buf);
  auto* out = static_cast<std::byte*>(recv_buf);

  // Own block.
  {
    const std::size_t bytes =
        send_type.size() * static_cast<std::size_t>(send_counts[rank_]);
    MADMPI_CHECK_MSG(
        recv_type.size() * static_cast<std::size_t>(recv_counts[rank_]) ==
            bytes,
        "alltoallv self block signatures disagree");
    std::vector<std::byte> wire(bytes);
    send_type.pack(in + send_type.extent() *
                            static_cast<std::size_t>(send_displs[rank_]),
                   send_counts[rank_], wire.data());
    recv_type.unpack(wire.data(), recv_counts[rank_],
                     out + recv_type.extent() *
                               static_cast<std::size_t>(recv_displs[rank_]));
  }

  // Pairwise exchange, ragged block sizes per peer.
  try {
    for (int i = 1; i < n; ++i) {
      const rank_t dst = (rank_ + i) % n;
      const rank_t src = (rank_ - i + n) % n;
      const std::size_t send_bytes =
          send_type.size() * static_cast<std::size_t>(send_counts[dst]);
      const std::size_t recv_bytes =
          recv_type.size() * static_cast<std::size_t>(recv_counts[src]);

      std::vector<std::byte> recv_wire(recv_bytes);
      const auto state =
          coll_post_recv(recv_wire.data(), recv_bytes, src, kAlltoallTag);
      std::vector<std::byte> send_wire(send_bytes);
      send_type.pack(in + send_type.extent() *
                              static_cast<std::size_t>(send_displs[dst]),
                     send_counts[dst], send_wire.data());
      coll_send(send_wire.data(), send_bytes, dst, kAlltoallTag);
      if (!state) continue;  // FT capture skipped a provably dead source
      coll_wait(*state);
      recv_type.unpack(recv_wire.data(), recv_counts[src],
                       out + recv_type.extent() *
                                 static_cast<std::size_t>(recv_displs[src]));
    }
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  return Status::ok();
}

Status Comm::scan(const void* send_buf, void* recv_buf, int count,
                  const Datatype& type, const Op& op) {
  MADMPI_CHECK_MSG(type.is_contiguous(), "scan requires a contiguous datatype");
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective(
        [&] { return scan(send_buf, recv_buf, count, type, op); });
  }
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  std::memcpy(recv_buf, send_buf, bytes);

  try {
    if (rank_ > 0) {
      std::vector<std::byte> prefix(bytes);
      coll_recv(prefix.data(), bytes, rank_ - 1, kScanTag);
      // recv_buf = prefix OP own.
      op.apply(prefix.data(), recv_buf, count, type);
    }
    if (rank_ + 1 < size()) {
      coll_send(recv_buf, bytes, rank_ + 1, kScanTag);
    }
  } catch (const CollAbort& abort) {
    return raise_error(abort.status);
  }
  return Status::ok();
}

Status Comm::reduce_scatter_block(const void* send_buf, void* recv_buf,
                                  int count, const Datatype& type,
                                  const Op& op) {
  MADMPI_CHECK_MSG(type.is_contiguous(),
                   "reduce_scatter requires a contiguous datatype");
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    return raise_error(entry);
  }
  if (ft_should_wrap()) {
    return ft_collective([&] {
      return reduce_scatter_block(send_buf, recv_buf, count, type, op);
    });
  }
  const int n = size();
  std::vector<std::byte> full(type.size() *
                              static_cast<std::size_t>(count) *
                              static_cast<std::size_t>(n));
  Status status = reduce(send_buf, full.data(), count * n, type, op, 0);
  if (!status.is_ok()) return status;  // reduce already raised
  return scatter(full.data(), count, type, recv_buf, count, type, 0);
}

}  // namespace madmpi::mpi
