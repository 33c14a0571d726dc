// The zero-copy datapath's memory subsystem: slab pool size classes and
// caching, chunk refcount handoff (the retransmit-safety mechanism), lent
// caller memory, scatter-gather chunk lists, the control-region writer —
// and the end-to-end properties they exist for: a steady-state eager
// ping-pong performs zero datapath allocations and exactly one staging
// copy per message, and a steady-state rendezvous ping-pong copies nothing
// on the host (the sender's buffer is lent to the wire).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/native_device.hpp"
#include "common/datapath_stats.hpp"
#include "common/slab_pool.hpp"
#include "core/ch_mad.hpp"
#include "core/pingpong.hpp"
#include "core/session.hpp"
#include "sim/fault.hpp"

namespace madmpi {
namespace {

SlabPool::Options small_pool_options() {
  SlabPool::Options options;
  options.max_slab_bytes = 4096;
  options.refill_batch = 1;  // no spares: allocation counts stay exact
  return options;
}

// ------------------------------------------------------------- SlabPool

TEST(SlabPool, SizeClassRoundsUpAndReuses) {
  SlabPool pool(small_pool_options());
  Slab* slab = pool.acquire(100);
  ASSERT_NE(slab, nullptr);
  EXPECT_GE(slab->capacity(), 100u);  // class 128
  EXPECT_EQ(slab->capacity(), 128u);
  EXPECT_FALSE(slab->fallback());
  slab->release();

  // Same class comes back from the free list, not the heap.
  Slab* again = pool.acquire(65);
  EXPECT_EQ(again, slab);
  again->release();

  const auto stats = pool.stats();
  EXPECT_EQ(stats.fresh_allocs, 1u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.cached_slabs, 1u);
}

TEST(SlabPool, RefillBatchCachesSpares) {
  SlabPool::Options options = small_pool_options();
  options.refill_batch = 3;
  SlabPool pool(options);
  Slab* slab = pool.acquire(64);
  const auto stats = pool.stats();
  // One handed out, two spares parked for future concurrency spikes.
  EXPECT_EQ(stats.fresh_allocs, 3u);
  EXPECT_EQ(stats.cached_slabs, 2u);
  slab->release();
  // A burst of three concurrent slabs never touches the heap again.
  Slab* a = pool.acquire(64);
  Slab* b = pool.acquire(64);
  Slab* c = pool.acquire(64);
  EXPECT_EQ(pool.stats().fresh_allocs, 3u);
  a->release();
  b->release();
  c->release();
}

TEST(SlabPool, OversizeRequestFallsBackUncached) {
  SlabPool pool(small_pool_options());  // classes top out at 4 KB
  Slab* big = pool.acquire(64 * 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_TRUE(big->fallback());
  EXPECT_GE(big->capacity(), 64u * 1024);
  big->release();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.cached_slabs, 0u);  // fallbacks are never cached
}

TEST(SlabPool, DisabledPoolAlwaysFallsBack) {
  SlabPool::Options options = small_pool_options();
  options.disabled = true;
  SlabPool pool(options);
  ChunkRef chunk = pool.allocate(64);
  ASSERT_TRUE(static_cast<bool>(chunk));
  EXPECT_TRUE(chunk.slab()->fallback());
  chunk.reset();
  EXPECT_EQ(pool.stats().fallbacks, 1u);
  EXPECT_EQ(pool.stats().fresh_allocs, 0u);
}

TEST(SlabPool, HighWaterTracksPeakOutstandingBytes) {
  SlabPool pool(small_pool_options());
  ChunkRef a = pool.allocate(64);
  ChunkRef b = pool.allocate(64);
  ChunkRef c = pool.allocate(64);
  EXPECT_EQ(pool.stats().outstanding_bytes, 3u * 64);
  EXPECT_EQ(pool.stats().high_water_bytes, 3u * 64);
  a.reset();
  b.reset();
  // The peak sticks after the drain; outstanding drops.
  EXPECT_EQ(pool.stats().outstanding_bytes, 64u);
  EXPECT_EQ(pool.stats().high_water_bytes, 3u * 64);
  c.reset();
}

TEST(SlabPool, RecycleKeepsEverySlabOfAPeak) {
  // No per-class cap: however many slabs a burst held at once, all of
  // them come back to the cache, and the same burst again carves none.
  SlabPool pool(small_pool_options());
  constexpr std::size_t kBurst = 64;
  for (int round = 0; round < 2; ++round) {
    std::vector<ChunkRef> burst;
    for (std::size_t i = 0; i < kBurst; ++i) burst.push_back(pool.allocate(64));
    burst.clear();
    EXPECT_EQ(pool.stats().cached_slabs, kBurst);
    EXPECT_EQ(pool.stats().fresh_allocs, kBurst);
  }
  EXPECT_EQ(pool.stats().reuses, kBurst);
}

TEST(SlabPool, TrimDropsCachedSlabs) {
  SlabPool pool(small_pool_options());
  pool.allocate(64).reset();
  EXPECT_EQ(pool.stats().cached_slabs, 1u);
  pool.trim();
  EXPECT_EQ(pool.stats().cached_slabs, 0u);
}

TEST(SlabPool, StageCopiesAndCounts) {
  SlabPool pool(small_pool_options());
  const auto before = DatapathStats::global().snapshot();
  std::vector<std::byte> src(100);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i);
  }
  ChunkRef chunk = pool.stage(src.data(), src.size());
  EXPECT_EQ(chunk.size(), src.size());
  EXPECT_EQ(std::memcmp(chunk.data(), src.data(), src.size()), 0);
  const auto d = DatapathStats::global().snapshot() - before;
  EXPECT_EQ(d.bytes_copied, src.size());
  EXPECT_EQ(d.slab_allocs, 1u);
}

TEST(SlabPool, LentMemoryReleasesOnceAfterTheLastReference) {
  // Stack memory: had the pool ever freed it, ASan (or the allocator)
  // would abort here.
  alignas(64) std::byte memory[256];
  std::memset(memory, 0x3c, sizeof memory);
  const auto before = DatapathStats::global().snapshot();
  int released = 0;
  ChunkRef lent = ChunkRef::lend({memory, sizeof memory}, [&] { ++released; });
  EXPECT_TRUE(lent.slab()->lent());
  EXPECT_FALSE(lent.slab()->fallback());
  EXPECT_EQ(lent.data(), memory);  // a view, not a copy

  // Every holder a wire frame can create: a frame's copy, a retransmit
  // copy of that frame, a relay's subchunk, a receiver's view.
  ChunkList frame;
  frame.push_back(lent);
  ChunkList retransmit = frame;
  ChunkRef relay = lent.subchunk(16, 128);
  ChunkRef view = retransmit.slice(64, 64);
  lent.reset();
  frame.clear();
  relay.reset();
  EXPECT_EQ(released, 0);
  retransmit.clear();
  EXPECT_EQ(released, 0);
  EXPECT_EQ(std::to_integer<int>(view.data()[0]), 0x3c);
  view.reset();
  EXPECT_EQ(released, 1);

  // A zero-byte loan still carries its hook.
  ChunkRef empty = ChunkRef::lend({}, [&] { ++released; });
  EXPECT_TRUE(static_cast<bool>(empty));
  EXPECT_TRUE(empty.empty());
  empty.reset();
  EXPECT_EQ(released, 2);

  for (std::byte b : memory) ASSERT_EQ(std::to_integer<int>(b), 0x3c);
  const auto d = DatapathStats::global().snapshot() - before;
  EXPECT_EQ(d.bytes_copied, 0u);
  EXPECT_EQ(d.staging_allocs, 0u);
}

TEST(SlabPool, LentMemoryReleasesOnTheThreadDroppingTheLastReference) {
  std::vector<std::byte> memory(4096, std::byte{0x11});
  std::atomic<int> released{0};
  std::thread::id releaser;
  ChunkRef lent = ChunkRef::lend({memory.data(), memory.size()}, [&] {
    releaser = std::this_thread::get_id();
    released.fetch_add(1);
  });
  ChunkRef remote = lent.subchunk(0, 1024);
  lent.reset();
  std::thread other([chunk = std::move(remote)]() mutable { chunk.reset(); });
  const std::thread::id other_id = other.get_id();
  other.join();
  EXPECT_EQ(released.load(), 1);
  EXPECT_EQ(releaser, other_id);
}

// ------------------------------------------------------------- ChunkRef

TEST(ChunkRef, RefcountHandoffAcrossCopies) {
  SlabPool pool(small_pool_options());
  ChunkRef first = pool.allocate(64);
  Slab* slab = first.slab();
  EXPECT_EQ(slab->refs(), 1u);

  // The retransmit pattern: every copy of a frame's payload bumps the
  // refcount; the slab stays alive until the last in-flight copy dies.
  ChunkRef retransmit_a = first;
  ChunkRef retransmit_b = first;
  EXPECT_EQ(slab->refs(), 3u);
  first.reset();  // sender moves on before delivery
  EXPECT_EQ(slab->refs(), 2u);
  std::memset(retransmit_a.mutable_data(), 0x5a, retransmit_a.size());
  retransmit_a.reset();
  // The surviving copy still reads the bytes.
  EXPECT_EQ(std::to_integer<int>(retransmit_b.data()[0]), 0x5a);
  retransmit_b.reset();
  EXPECT_EQ(pool.stats().cached_slabs, 1u);  // recycled at refcount zero
}

TEST(ChunkRef, SubchunkSharesTheSlab) {
  SlabPool pool(small_pool_options());
  ChunkRef whole = pool.allocate(128);
  ChunkRef tail = whole.subchunk(100, 28);
  EXPECT_EQ(tail.slab(), whole.slab());
  EXPECT_EQ(tail.data(), whole.data() + 100);
  EXPECT_EQ(whole.slab()->refs(), 2u);
  whole.reset();
  EXPECT_EQ(tail.slab()->refs(), 1u);  // the view alone keeps it alive
}

// ------------------------------------------------------------ ChunkList

TEST(ChunkList, HeaderBodyPairCoalescesToOneSpan) {
  SlabPool pool(small_pool_options());
  ChunkRef whole = pool.allocate(100);
  for (std::size_t i = 0; i < 100; ++i) {
    whole.mutable_data()[i] = static_cast<std::byte>(i);
  }
  // The eager wire shape: EXPRESS prefix and CHEAPER remainder as two
  // views of the same slab.
  ChunkList list;
  list.push_back(whole.subchunk(0, 30));
  list.push_back(whole.subchunk(30, 70));
  EXPECT_EQ(list.segment_count(), 2u);
  EXPECT_TRUE(list.is_contiguous());
  byte_span joined = list.contiguous();
  EXPECT_EQ(joined.size(), 100u);
  EXPECT_EQ(joined.data(), whole.data());

  // slice() may cross the coalesced seam.
  ChunkRef mid = list.slice(20, 40);
  EXPECT_EQ(std::to_integer<int>(mid.data()[0]), 20);
  EXPECT_EQ(std::to_integer<int>(mid.data()[39]), 59);
}

TEST(ChunkList, DisjointSlabsAreScatterGather) {
  SlabPool pool(small_pool_options());
  ChunkList list;
  list.push_back(pool.allocate(64));
  list.push_back(pool.allocate(64));
  EXPECT_FALSE(list.is_contiguous());
  EXPECT_EQ(list.size(), 128u);
  // Slices inside one segment are fine; crossing the break aborts (not
  // tested here — it is a programming-error CHECK).
  ChunkRef inside = list.slice(64, 64);
  EXPECT_EQ(inside.data(), list.segment(1).data());
}

TEST(ChunkList, MoveZeroesTheSource) {
  SlabPool pool(small_pool_options());
  ChunkList list;
  list.push_back(pool.allocate(64));
  ChunkList moved = std::move(list);
  EXPECT_EQ(moved.size(), 64u);
  EXPECT_TRUE(list.empty());             // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(list.segment_count(), 0u);   // NOLINT(bugprone-use-after-move)
}

TEST(ChunkList, VectorCompatAssignAndResize) {
  ChunkList list;
  const char text[] = "compat";
  list.assign(text, sizeof text);
  EXPECT_EQ(list.size(), sizeof text);
  EXPECT_EQ(std::memcmp(list.data(), text, sizeof text), 0);
  list.resize(16);
  EXPECT_EQ(list.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(std::to_integer<int>(list.contiguous()[i]), 0);
  }
}

// ----------------------------------------------------------- ChunkWriter

TEST(ChunkWriter, BuildsControlRegionInOneSlab) {
  SlabPool pool(small_pool_options());
  ChunkWriter writer(pool, 256);
  writer.put<std::uint32_t>(0xdeadbeef);
  const char body[] = "payload";
  writer.append(body, sizeof body);
  EXPECT_EQ(writer.position(), 4 + sizeof body);

  // The express/cheaper split: two chunks, one slab.
  ChunkRef head = writer.chunk(0, 4);
  ChunkRef tail = writer.chunk(4, sizeof body);
  EXPECT_EQ(head.slab(), tail.slab());
  EXPECT_EQ(tail.data(), head.data() + 4);
  std::uint32_t value = 0;
  std::memcpy(&value, head.data(), 4);
  EXPECT_EQ(value, 0xdeadbeefu);
}

TEST(ChunkWriter, RegrowsByCopyWhenReserveIsTooSmall) {
  SlabPool pool(small_pool_options());
  ChunkWriter writer(pool, 64);
  std::vector<std::byte> data(200, std::byte{0x7f});
  writer.append(data.data(), 100);
  writer.append(data.data(), 100);  // forces a regrow past 64/128
  EXPECT_EQ(writer.position(), 200u);
  ChunkRef all = writer.take_all();
  for (std::size_t i = 0; i < 200; ++i) {
    ASSERT_EQ(std::to_integer<int>(all.data()[i]), 0x7f);
  }
}

// -------------------------------------------- end-to-end datapath budget

core::Session::Options two_nodes(sim::Protocol protocol) {
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  return options;
}

TEST(ZeroCopyDatapath, SteadyStateEagerPingPongAllocatesNothing) {
  core::Session session(two_nodes(sim::Protocol::kTcp));
  constexpr std::size_t kBytes = 256;
  constexpr int kReps = 40;
  core::mpi_pingpong(session, kBytes, kReps);  // settle pools and queues
  auto& stats = DatapathStats::global();
  const auto before = stats.snapshot();
  core::mpi_pingpong(session, kBytes, kReps);
  const auto d = stats.snapshot() - before;
  const std::uint64_t msgs = 2 * (kReps + 1);

  // THE acceptance property: zero fresh datapath buffers in steady state —
  // every control region, wire frame and unexpected-store entry rides a
  // recycled pooled slab.
  EXPECT_EQ(d.staging_allocs, 0u);
  EXPECT_EQ(d.slab_allocs, 0u);
  EXPECT_EQ(d.slab_fallbacks, 0u);
  // And exactly one staging copy per message: the sender packing the user
  // payload into the control slab. The receive side is views end to end.
  EXPECT_EQ(d.bytes_copied, msgs * kBytes);
}

TEST(ZeroCopyDatapath, SeparateBlockEagerAlsoAllocationFree) {
  // 1 KB rides above the TCP 64 B aggregation threshold: header inline,
  // body as its own data frame — the scatter-gather shape.
  core::Session session(two_nodes(sim::Protocol::kTcp));
  constexpr std::size_t kBytes = 1024;
  constexpr int kReps = 40;
  core::mpi_pingpong(session, kBytes, kReps);
  auto& stats = DatapathStats::global();
  const auto before = stats.snapshot();
  core::mpi_pingpong(session, kBytes, kReps);
  const auto d = stats.snapshot() - before;
  EXPECT_EQ(d.staging_allocs, 0u);
  EXPECT_EQ(d.slab_allocs, 0u);
  EXPECT_EQ(d.bytes_copied, 2u * (kReps + 1) * kBytes);
}

TEST(ZeroCopyDatapath, RetransmitsDeliverIntactPayloads) {
  // Frame drops force the transport to re-send from its queued Frame copy;
  // with chunk payloads that copy is a refcount bump, and the payload must
  // still arrive intact after the sender's Packing has been destroyed.
  core::Session session(two_nodes(sim::Protocol::kTcp));
  auto plan0 = std::make_shared<sim::FaultPlan>(11);
  auto plan1 = std::make_shared<sim::FaultPlan>(12);
  plan0->drop(0.25);
  plan1->drop(0.25);
  session.fabric().find_nic(0, sim::Protocol::kTcp)->mutable_model()
      .fault_plan = plan0;
  session.fabric().find_nic(1, sim::Protocol::kTcp)->mutable_model()
      .fault_plan = plan1;

  session.run([](mpi::Comm comm) {
    const int peer = 1 - comm.rank();
    for (int round = 0; round < 20; ++round) {
      // Alternate inline (<=64 B) and separate-frame (>64 B) bodies.
      const std::size_t bytes = round % 2 == 0 ? 48 : 512;
      std::vector<std::uint8_t> out(bytes);
      for (std::size_t i = 0; i < bytes; ++i) {
        out[i] = static_cast<std::uint8_t>((round * 37 + i) & 0xff);
      }
      std::vector<std::uint8_t> in(bytes, 0);
      if (comm.rank() == 0) {
        comm.send(out.data(), static_cast<int>(bytes),
                  mpi::Datatype::uint8(), peer, round);
        comm.recv(in.data(), static_cast<int>(bytes), mpi::Datatype::uint8(),
                  peer, round);
      } else {
        comm.recv(in.data(), static_cast<int>(bytes), mpi::Datatype::uint8(),
                  peer, round);
        comm.send(out.data(), static_cast<int>(bytes),
                  mpi::Datatype::uint8(), peer, round);
      }
      ASSERT_EQ(std::memcmp(in.data(), out.data(), bytes), 0)
          << "round " << round << " (" << bytes << " B)";
    }
  });
}

TEST(ZeroCopyDatapath, UnexpectedStoreParksTheWireChunk) {
  // Sends land before any receive posts: the unexpected store must hold
  // the wire chunk by reference, and a later receive still gets the right
  // bytes — after the sender's message object is long gone.
  core::Session session(two_nodes(sim::Protocol::kTcp));
  session.run([](mpi::Comm comm) {
    constexpr int kTrain = 6;
    if (comm.rank() == 0) {
      for (int seq = 0; seq < kTrain; ++seq) {
        std::vector<std::uint8_t> payload(
            static_cast<std::size_t>(32 + 64 * seq));
        for (std::size_t i = 0; i < payload.size(); ++i) {
          payload[i] = static_cast<std::uint8_t>((seq * 131 + i) & 0xff);
        }
        comm.send(payload.data(), static_cast<int>(payload.size()),
                  mpi::Datatype::uint8(), 1, 5);
      }
      int done = 0;
      comm.recv(&done, 1, mpi::Datatype::int32(), 1, 6);
    } else {
      // Give the whole train time to park in the unexpected store.
      comm.compute_us(5000.0);
      for (int seq = 0; seq < kTrain; ++seq) {
        std::vector<std::uint8_t> in(static_cast<std::size_t>(32 + 64 * seq),
                                     0);
        const auto status =
            comm.recv(in.data(), static_cast<int>(in.size()),
                      mpi::Datatype::uint8(), 0, 5);
        ASSERT_EQ(status.error, ErrorCode::kOk);
        ASSERT_EQ(status.bytes, in.size());
        for (std::size_t i = 0; i < in.size(); ++i) {
          ASSERT_EQ(in[i], static_cast<std::uint8_t>((seq * 131 + i) & 0xff))
              << "message " << seq << " byte " << i;
        }
      }
      const int done = 1;
      comm.send(&done, 1, mpi::Datatype::int32(), 0, 6);
    }
  });
}

// ------------------------------------------------ lent rendezvous payloads

/// The payload `rank` sends in `round`.
std::vector<std::uint8_t> pattern(int rank, int round, std::size_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] =
        static_cast<std::uint8_t>((rank * 151 + round * 37 + i * 7) & 0xff);
  }
  return out;
}

/// Blocking ping-pong between ranks 0 and 1 that checks every payload
/// byte: each side sends its own round-stamped pattern.
void checked_pingpong(core::Session& session, std::size_t bytes, int rounds) {
  session.run([&](mpi::Comm comm) {
    if (comm.rank() > 1) return;
    const int peer = 1 - comm.rank();
    const auto type = mpi::Datatype::uint8();
    const int count = static_cast<int>(bytes);
    std::vector<std::uint8_t> in(bytes);
    for (int round = 0; round < rounds; ++round) {
      const std::vector<std::uint8_t> out = pattern(comm.rank(), round, bytes);
      if (comm.rank() == 0) {
        ASSERT_TRUE(comm.send(out.data(), count, type, peer, round).is_ok());
        ASSERT_EQ(comm.recv(in.data(), count, type, peer, round).error,
                  ErrorCode::kOk);
      } else {
        ASSERT_EQ(comm.recv(in.data(), count, type, peer, round).error,
                  ErrorCode::kOk);
        ASSERT_TRUE(comm.send(out.data(), count, type, peer, round).is_ok());
      }
      ASSERT_EQ(in, pattern(peer, round, bytes)) << "round " << round;
    }
  });
}

void expect_copy_free_rendezvous(sim::Protocol protocol, std::size_t bytes) {
  SCOPED_TRACE(std::string(sim::protocol_name(protocol)) + " " +
               std::to_string(bytes) + " B");
  core::Session session(two_nodes(protocol));
  ASSERT_GT(bytes, session.ch_mad()->switch_point());
  constexpr int kRounds = 4;
  checked_pingpong(session, bytes, kRounds);  // settle pools and workers
  const std::uint64_t rendezvous_before = session.ch_mad()->rendezvous_sent();
  const auto before = DatapathStats::global().snapshot();
  checked_pingpong(session, bytes, kRounds);
  const auto d = DatapathStats::global().snapshot() - before;
  EXPECT_EQ(session.ch_mad()->rendezvous_sent() - rendezvous_before,
            2u * kRounds);
  // The sender lends its buffer to the wire and the receiver places the
  // bytes straight into the posted buffer: no host copy, no staging slab
  // (not even the one-off slab a >256 KiB body used to need).
  EXPECT_EQ(d.bytes_copied, 0u);
  EXPECT_EQ(d.slab_fallbacks, 0u);
  EXPECT_EQ(d.staging_allocs, 0u);
}

TEST(ZeroCopyDatapath, SteadyStateRendezvousOverSciCopiesNothing) {
  expect_copy_free_rendezvous(sim::Protocol::kSisci, 64u << 10);
  expect_copy_free_rendezvous(sim::Protocol::kSisci, 1u << 20);
}

TEST(ZeroCopyDatapath, SteadyStateRendezvousOverTcpCopiesNothing) {
  // TCP's elected switch point is 64 KiB, sent eager: its first
  // rendezvous size is the next one up.
  expect_copy_free_rendezvous(sim::Protocol::kTcp, (64u << 10) + 1);
  expect_copy_free_rendezvous(sim::Protocol::kTcp, 1u << 20);
}

enum class SendKind { kSend, kIsend, kBsend };

/// Bytes copied, sender and receiver together, while rank 0 sends `bytes`
/// to rank 1 by a blocking send, an isend it then waits on, or a bsend.
std::uint64_t bytes_copied_sending(core::Session& session, std::size_t bytes,
                                   SendKind kind) {
  std::uint64_t copied = 0;
  session.run([&](mpi::Comm comm) {
    const auto type = mpi::Datatype::uint8();
    const int count = static_cast<int>(bytes);
    comm.barrier();
    if (comm.rank() == 0) {
      const auto out = pattern(0, 0, bytes);
      if (kind == SendKind::kBsend) {
        mpi::Comm::buffer_attach(bytes + mpi::Comm::bsend_overhead());
      }
      const auto before = DatapathStats::global().snapshot();
      switch (kind) {
        case SendKind::kSend:
          EXPECT_TRUE(comm.send(out.data(), count, type, 1, 0).is_ok());
          break;
        case SendKind::kIsend:
          EXPECT_EQ(comm.isend(out.data(), count, type, 1, 0).wait().error,
                    ErrorCode::kOk);
          break;
        case SendKind::kBsend:
          comm.bsend(out.data(), count, type, 1, 0);
          break;
      }
      comm.barrier();
      copied = (DatapathStats::global().snapshot() - before).bytes_copied;
      if (kind == SendKind::kBsend) mpi::Comm::buffer_detach();
    } else {
      std::vector<std::uint8_t> in(bytes);
      EXPECT_EQ(comm.recv(in.data(), count, type, 0, 0).error,
                ErrorCode::kOk);
      EXPECT_EQ(in, pattern(0, 0, bytes));
      comm.barrier();
    }
  });
  return copied;
}

/// A blocking send lends the caller's buffer to the wire and copies
/// nothing. isend stages the payload once so the caller's buffer is free on
/// return; the device lends that copy to the wire, so a 1 MiB isend copies
/// exactly 1 MiB. `baseline` names a native device to carry the traffic
/// instead of ch_mad.
void expect_isend_stages_once(const char* baseline) {
  SCOPED_TRACE(baseline != nullptr ? baseline : "ch_mad");
  core::Session::Options options = two_nodes(sim::Protocol::kSisci);
  if (baseline != nullptr) {
    options.internode_factory =
        [baseline](core::Session& s) -> std::unique_ptr<core::ManagedDevice> {
      return std::make_unique<baselines::NativeDevice>(
          baselines::profile_by_name(baseline), s.fabric(), s.cluster(),
          s.directory());
    };
  }
  core::Session session(std::move(options));
  constexpr std::size_t kBytes = 1u << 20;
  EXPECT_EQ(bytes_copied_sending(session, kBytes, SendKind::kSend), 0u);
  EXPECT_EQ(bytes_copied_sending(session, kBytes, SendKind::kIsend), kBytes);
}

TEST(ZeroCopyDatapath, IsendCountsItsOneStagingCopy) {
  expect_isend_stages_once(nullptr);
  expect_isend_stages_once("ScaMPI");
}

TEST(ZeroCopyDatapath, EagerBsendCopiesWhatSendCopies) {
  // An eager bsend is sent in place, so it parks no host copy of its own:
  // its attached-buffer copy exists in virtual time only.
  core::Session session(two_nodes(sim::Protocol::kSisci));
  constexpr std::size_t kBytes = 1024;
  const std::uint64_t blocking =
      bytes_copied_sending(session, kBytes, SendKind::kSend);
  EXPECT_EQ(blocking, kBytes);
  EXPECT_EQ(bytes_copied_sending(session, kBytes, SendKind::kBsend), blocking);
}

TEST(ZeroCopyDatapath, SenderReusesItsBufferAsSoonAsSendReturns) {
  // Lending is invisible to the application: a blocking send returns once
  // the receiver placed the bytes, an isend lends its own staged copy.
  core::Session session(two_nodes(sim::Protocol::kSisci));
  constexpr std::size_t kBytes = 256u << 10;
  session.run([&](mpi::Comm comm) {
    const auto type = mpi::Datatype::uint8();
    const int count = static_cast<int>(kBytes);
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> buffer = pattern(0, 0, kBytes);
      ASSERT_TRUE(comm.send(buffer.data(), count, type, 1, 0).is_ok());
      std::memset(buffer.data(), 0xee, kBytes);
      buffer = pattern(0, 1, kBytes);
      mpi::Request request = comm.isend(buffer.data(), count, type, 1, 1);
      std::memset(buffer.data(), 0xee, kBytes);
      EXPECT_EQ(request.wait().error, ErrorCode::kOk);
    } else {
      comm.compute_us(2000.0);  // both sends wait for their receives
      for (int round = 0; round < 2; ++round) {
        std::vector<std::uint8_t> in(kBytes);
        ASSERT_EQ(comm.recv(in.data(), count, type, 0, round).error,
                  ErrorCode::kOk);
        EXPECT_EQ(in, pattern(0, round, kBytes)) << "round " << round;
      }
    }
  });
}

/// Rank `from` sends `rounds` rendezvous payloads to rank `to`, alternating
/// blocking sends and isends; every send must complete exactly once (a
/// second completion aborts in RequestState) and with kOk, and every
/// payload must arrive intact.
void lent_sends_complete(core::Session& session, int from, int to,
                         std::size_t bytes, int rounds) {
  session.run([&](mpi::Comm comm) {
    const auto type = mpi::Datatype::uint8();
    const int count = static_cast<int>(bytes);
    if (comm.rank() == from) {
      for (int round = 0; round < rounds; ++round) {
        const auto out = pattern(from, round, bytes);
        if (round % 2 == 0) {
          EXPECT_TRUE(comm.send(out.data(), count, type, to, round).is_ok());
        } else {
          mpi::Request request = comm.isend(out.data(), count, type, to,
                                            round);
          mpi::MpiStatus status = request.wait();
          EXPECT_EQ(status.error, ErrorCode::kOk);
          EXPECT_TRUE(request.test());  // still complete, still once
        }
      }
    } else if (comm.rank() == to) {
      std::vector<std::uint8_t> in(bytes);
      for (int round = 0; round < rounds; ++round) {
        const auto status = comm.recv(in.data(), count, type, from, round);
        ASSERT_EQ(status.error, ErrorCode::kOk);
        ASSERT_EQ(status.bytes, bytes);
        ASSERT_EQ(in, pattern(from, round, bytes)) << "round " << round;
      }
    }
  });
}

TEST(ZeroCopyDatapath, LentSendsCompleteBeforeFinalizeReturns) {
  // Sends nobody waits for: each lent payload's last reference must drop
  // (and its hook complete the send) while the device is still up — the
  // receiver's poller consumes every data frame ahead of the termination
  // packets that let it exit.
  core::Session session(two_nodes(sim::Protocol::kSisci));
  constexpr std::size_t kBytes = 256u << 10;
  constexpr int kSends = 4;
  std::vector<std::shared_ptr<mpi::RequestState>> sends;
  session.run([&](mpi::Comm comm) {
    const auto type = mpi::Datatype::uint8();
    const int count = static_cast<int>(kBytes);
    if (comm.rank() == 0) {
      for (int i = 0; i < kSends; ++i) {
        const auto out = pattern(0, i, kBytes);
        sends.push_back(comm.isend(out.data(), count, type, 1, i).state());
      }
    } else {
      std::vector<std::uint8_t> in(kBytes);
      for (int i = 0; i < kSends; ++i) {
        ASSERT_EQ(comm.recv(in.data(), count, type, 0, i).error,
                  ErrorCode::kOk);
        EXPECT_EQ(in, pattern(0, i, kBytes));
      }
    }
  });
  session.finalize();
  ASSERT_EQ(sends.size(), static_cast<std::size_t>(kSends));
  for (const auto& send : sends) EXPECT_TRUE(send->completed());
}

TEST(ZeroCopyDatapath, LentSendsCompleteOnceUnderRetransmits) {
  // Dropped frames are re-sent from copies of the frame: each copy holds
  // the lent payload, and the send completes only after the last dies.
  core::Session session(two_nodes(sim::Protocol::kTcp));
  auto plan0 = std::make_shared<sim::FaultPlan>(11);
  auto plan1 = std::make_shared<sim::FaultPlan>(12);
  plan0->drop(0.25);
  plan1->drop(0.25);
  session.fabric().find_nic(0, sim::Protocol::kTcp)->mutable_model()
      .fault_plan = plan0;
  session.fabric().find_nic(1, sim::Protocol::kTcp)->mutable_model()
      .fault_plan = plan1;
  lent_sends_complete(session, 0, 1, 128u << 10, 12);
  std::uint64_t retransmits = 0;
  for (mad::Channel* channel : session.madeleine().channels()) {
    retransmits += channel->traffic().retransmits;
  }
  EXPECT_GT(retransmits, 0u);
}

TEST(ZeroCopyDatapath, LentSendsCompleteOnceAcrossTheGateway) {
  // a0, a1 on SCI; b0, b1 on Myrinet; gw on both. The gateway relays the
  // lent payload by reference; the send completes at the far end.
  sim::ClusterSpec spec;
  for (const char* name : {"a0", "a1", "gw", "b0", "b1"}) {
    sim::NodeSpec node;
    node.name = name;
    spec.nodes.push_back(node);
  }
  spec.networks.push_back({sim::Protocol::kSisci, 0, {"a0", "a1", "gw"}});
  spec.networks.push_back({sim::Protocol::kBip, 0, {"gw", "b0", "b1"}});
  core::Session::Options options;
  options.cluster = spec;
  options.enable_forwarding = true;
  core::Session session(std::move(options));
  lent_sends_complete(session, 1, 3, 256u << 10, 4);
  EXPECT_GE(session.ch_mad()->forwarded(), 4u * 3u);
}

TEST(ZeroCopyDatapath, LentSendsCompleteOnceFromABigEndianSender) {
  // The receiver swaps in its own buffer; the lent wire bytes stay as
  // the sender packed them.
  core::Session::Options options = two_nodes(sim::Protocol::kSisci);
  options.cluster.nodes[1].big_endian = true;
  core::Session session(std::move(options));
  constexpr std::size_t kCount = 32u << 10;  // 256 KiB of doubles
  session.run([&](mpi::Comm comm) {
    const auto type = mpi::Datatype::float64();
    const int count = static_cast<int>(kCount);
    if (comm.rank() == 1) {
      std::vector<double> out(kCount);
      for (std::size_t i = 0; i < kCount; ++i) out[i] = 0.5 * i;
      EXPECT_TRUE(comm.send(out.data(), count, type, 0, 0).is_ok());
      mpi::Request request = comm.isend(out.data(), count, type, 0, 1);
      EXPECT_EQ(request.wait().error, ErrorCode::kOk);
    } else {
      for (int round = 0; round < 2; ++round) {
        std::vector<double> in(kCount, -1.0);
        ASSERT_EQ(comm.recv(in.data(), count, type, 1, round).error,
                  ErrorCode::kOk);
        for (std::size_t i = 0; i < kCount; ++i) {
          ASSERT_EQ(in[i], 0.5 * i) << "round " << round << " element " << i;
        }
      }
    }
  });
}

TEST(ZeroCopyDatapath, LentSendsCompleteOnceIntoANonContiguousReceive) {
  // A strided receive reads the wire through a view of the lent chunk; the
  // view is the last reference, dropped once the elements are scattered.
  core::Session session(two_nodes(sim::Protocol::kSisci));
  constexpr int kCount = 16 << 10;  // 128 KiB of doubles
  session.run([&](mpi::Comm comm) {
    if (comm.rank() == 0) {
      std::vector<double> out(kCount);
      for (int i = 0; i < kCount; ++i) out[i] = 1.0 + i;
      EXPECT_TRUE(
          comm.send(out.data(), kCount, mpi::Datatype::float64(), 1, 0)
              .is_ok());
      mpi::Request request =
          comm.isend(out.data(), kCount, mpi::Datatype::float64(), 1, 1);
      EXPECT_EQ(request.wait().error, ErrorCode::kOk);
    } else {
      const auto strided =
          mpi::Datatype::vector(kCount, 1, 2, mpi::Datatype::float64());
      for (int round = 0; round < 2; ++round) {
        std::vector<double> in(2 * kCount, -1.0);
        ASSERT_EQ(comm.recv(in.data(), 1, strided, 0, round).error,
                  ErrorCode::kOk);
        for (int i = 0; i < kCount; ++i) {
          ASSERT_EQ(in[2 * i], 1.0 + i) << "round " << round;
          ASSERT_EQ(in[2 * i + 1], -1.0) << "round " << round;
        }
      }
    }
  });
}

TEST(ZeroCopyDatapath, LentSendCompletesWhenACancelledRhandleDropsTheData) {
  // The receiver's rhandle is cancelled after its OK_TO_SEND left: the
  // data still arrives, is drained and dropped, and that drop is the
  // lent payload's last reference. The receive reports kTimedOut, the
  // send (which did deliver) kOk, each exactly once.
  //
  // Ordering: rank 0's REQUEST, then an eager marker, then (after the
  // handshake) the data reach node 1's poller in that order. The marker's
  // completion hook runs on that poller, between the REQUEST (rhandle
  // created) and the data: it waits until node 0 started the push, then
  // runs the watchdog sweep with node 0 declared unreachable.
  core::Session session(two_nodes(sim::Protocol::kSisci));
  core::ChMadDevice* device = session.ch_mad();
  constexpr std::size_t kBytes = 128u << 10;
  std::atomic<bool> swept{false};
  session.run([&](mpi::Comm comm) {
    const auto type = mpi::Datatype::uint8();
    const int count = static_cast<int>(kBytes);
    if (comm.rank() == 1) {
      std::vector<std::uint8_t> in(kBytes, 0);
      mpi::Request data = comm.irecv(in.data(), count, type, 0, 0);
      int marker = 0;
      mpi::Request tick = comm.irecv(&marker, 1, mpi::Datatype::int32(), 0, 1);
      tick.state()->set_on_complete([&](const mpi::MpiStatus&) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (device->pending_send_count(0) != 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        device->watchdog_sweep(
            [](node_id_t from, node_id_t to) { return from == 0 || to == 0; },
            1000.0);
        swept.store(true);
      });
      comm.barrier();
      EXPECT_EQ(tick.wait().error, ErrorCode::kOk);
      EXPECT_EQ(data.wait().error, ErrorCode::kTimedOut);
      EXPECT_EQ(in, std::vector<std::uint8_t>(kBytes, 0));  // dropped
    } else {
      const auto out = pattern(0, 0, kBytes);
      comm.barrier();
      mpi::Request request = comm.isend(out.data(), count, type, 1, 0);
      const int marker = 1;
      EXPECT_TRUE(comm.send(&marker, 1, mpi::Datatype::int32(), 1, 1).is_ok());
      EXPECT_EQ(request.wait().error, ErrorCode::kOk);
    }
  });
  EXPECT_TRUE(swept.load());
}

}  // namespace
}  // namespace madmpi
