// Unit tests for the simulation substrate: clocks, cost models, links,
// ports, fabric.
#include <gtest/gtest.h>

#include <cstddef>
#include <new>
#include <thread>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/fabric.hpp"
#include "sim/node.hpp"
#include "sim/port.hpp"
#include "sim/virtual_clock.hpp"

namespace madmpi::sim {
namespace {

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  EXPECT_DOUBLE_EQ(clock.advance(1.5), 1.5);
  EXPECT_DOUBLE_EQ(clock.advance(2.5), 4.0);
  EXPECT_DOUBLE_EQ(clock.now(), 4.0);
}

TEST(VirtualClock, SyncNeverMovesBackwards) {
  VirtualClock clock(10.0);
  EXPECT_DOUBLE_EQ(clock.sync_to(5.0), 10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  EXPECT_DOUBLE_EQ(clock.sync_to(12.0), 12.0);
  EXPECT_DOUBLE_EQ(clock.now(), 12.0);
}

TEST(VirtualClock, LanesAreIndependentAcrossThreads) {
  // Concurrent threads are independent activities: each accumulates its
  // own lane, and the clock's high-water mark is their max — NOT their
  // sum (two CPUs doing 10 us of work in parallel take 10 us, not 20).
  VirtualClock clock;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock] {
      clock.bind_lane(0.0);
      for (int i = 0; i < kPerThread; ++i) clock.advance(1.0);
      EXPECT_DOUBLE_EQ(clock.now(), kPerThread);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(clock.high_water(), kPerThread);
}

TEST(VirtualClock, FirstTouchAdoptsHighWater) {
  VirtualClock clock;
  std::thread worker([&clock] {
    clock.bind_lane(0.0);
    clock.advance(250.0);
  });
  worker.join();
  // A fresh observer thread sees the furthest point reached.
  std::thread observer(
      [&clock] { EXPECT_DOUBLE_EQ(clock.now(), 250.0); });
  observer.join();
}

TEST(VirtualClock, BindLaneSetsCausalBirth) {
  VirtualClock clock;
  clock.advance(100.0);
  std::thread child([&clock] {
    clock.bind_lane(40.0);  // spawned causally earlier
    EXPECT_DOUBLE_EQ(clock.now(), 40.0);
    clock.advance(5.0);
    EXPECT_DOUBLE_EQ(clock.now(), 45.0);
  });
  child.join();
  EXPECT_DOUBLE_EQ(clock.now(), 100.0);       // own lane untouched
  EXPECT_DOUBLE_EQ(clock.high_water(), 100.0);
}

TEST(VirtualClock, Reset) {
  VirtualClock clock;
  clock.advance(100.0);
  clock.reset();
  EXPECT_EQ(clock.now(), 0.0);
  EXPECT_EQ(clock.high_water(), 0.0);
  // The resetting thread's own lane reinitializes too (generation bump).
  clock.advance(1.0);
  EXPECT_EQ(clock.now(), 1.0);
}

TEST(VirtualClock, LanesEnumeratesLiveLanes) {
  // lanes() is the introspection hook the progress fingerprint and the
  // schedule harness read: one entry per live lane, sorted by id, times
  // matching what each thread reached.
  VirtualClock clock;
  clock.advance(10.0);
  std::thread worker([&clock] {
    clock.bind_lane(0.0);
    clock.advance(3.0);
    const auto seen = clock.lanes();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_LT(seen[0].id, seen[1].id);
    // Sorted by id = creation order: the main thread's lane first.
    EXPECT_DOUBLE_EQ(seen[0].time, 10.0);
    EXPECT_DOUBLE_EQ(seen[1].time, 3.0);
  });
  worker.join();
}

TEST(VirtualClock, LanesDropExitedThreadsAndOldGenerations) {
  VirtualClock clock;
  clock.advance(1.0);
  std::thread worker([&clock] {
    clock.bind_lane(0.0);
    clock.advance(2.0);
  });
  worker.join();
  // The worker's lane expired with its thread.
  auto seen = clock.lanes();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_DOUBLE_EQ(seen[0].time, 1.0);
  // reset() bumps the generation: the old lane no longer counts, and the
  // next touch registers a fresh one.
  clock.reset();
  EXPECT_TRUE(clock.lanes().empty());
  clock.advance(4.0);
  seen = clock.lanes();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_DOUBLE_EQ(seen[0].time, 4.0);
}

TEST(VirtualClock, LaneIdsAreStableAcrossSnapshots) {
  VirtualClock clock;
  clock.advance(1.0);
  const auto before = clock.lanes();
  clock.advance(1.0);
  const auto after = clock.lanes();
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(before[0].id, after[0].id);  // successive snapshots correlate
  EXPECT_DOUBLE_EQ(after[0].time, 2.0);
}

// ------------------------------------------------- the lane-lookup cache

TEST(VirtualClock, CachedLookupKeepsTwoClocksApart) {
  // One context alternating between two clocks: each switch moves the
  // map's last-slot cache, and neither clock may see the other's lane.
  VirtualClock::LaneMap context;
  VirtualClock::LaneMap* previous = VirtualClock::exchange_lane_map(&context);
  VirtualClock a;
  VirtualClock b;
  for (int i = 1; i <= 4; ++i) {
    a.advance(1.0);
    b.advance(10.0);
    b.sync_to(b.now() + 100.0);
    EXPECT_DOUBLE_EQ(a.now(), 1.0 * i);
    EXPECT_DOUBLE_EQ(b.now(), 110.0 * i);
  }
  EXPECT_EQ(a.lanes().size(), 1u);
  EXPECT_EQ(b.lanes().size(), 1u);
  EXPECT_NE(a.lanes()[0].id, b.lanes()[0].id);
  VirtualClock::exchange_lane_map(previous);
}

TEST(VirtualClock, ResetReseedsTheCachedLaneFromTheHighWaterMark) {
  VirtualClock clock;
  clock.advance(50.0);
  const auto before = clock.lanes();
  clock.reset(7.0);  // the next touch hits the cached slot, stale by now
  EXPECT_DOUBLE_EQ(clock.advance(1.0), 8.0);
  const auto after = clock.lanes();
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(before[0].id, after[0].id);  // a fresh lane, not the old one
  EXPECT_DOUBLE_EQ(after[0].time, 8.0);
}

TEST(VirtualClock, ClockBuiltWhereADeadOneLivedStartsAfresh) {
  // Placement-new pins the address, so the second clock is exactly the
  // pointer the lane map's cache (and its hash map) still holds.
  alignas(VirtualClock) std::byte storage[sizeof(VirtualClock)];
  auto* dead = new (storage) VirtualClock();
  dead->advance(100.0);
  dead->~VirtualClock();
  auto* fresh = new (storage) VirtualClock();
  ASSERT_EQ(static_cast<void*>(fresh), static_cast<void*>(dead));
  EXPECT_DOUBLE_EQ(fresh->now(), 0.0);
  EXPECT_DOUBLE_EQ(fresh->advance(2.0), 2.0);
  EXPECT_EQ(fresh->lanes().size(), 1u);
  fresh->~VirtualClock();
}

TEST(CostModel, FactoriesMatchProtocol) {
  EXPECT_EQ(tcp_fast_ethernet_model().protocol, Protocol::kTcp);
  EXPECT_EQ(sisci_sci_model().protocol, Protocol::kSisci);
  EXPECT_EQ(bip_myrinet_model().protocol, Protocol::kBip);
  EXPECT_EQ(shmem_model().protocol, Protocol::kShmem);
  EXPECT_EQ(model_for(Protocol::kBip).protocol, Protocol::kBip);
}

TEST(CostModel, SegmentsRoundUp) {
  LinkCostModel m = tcp_fast_ethernet_model();  // mtu 1460
  EXPECT_EQ(m.segments(0), 1u);
  EXPECT_EQ(m.segments(1), 1u);
  EXPECT_EQ(m.segments(1460), 1u);
  EXPECT_EQ(m.segments(1461), 2u);
  EXPECT_EQ(m.segments(14600), 10u);
}

TEST(CostModel, SendRecvCosts) {
  LinkCostModel m = sisci_sci_model();
  EXPECT_DOUBLE_EQ(m.send_cost(0, false), m.send_overhead_us);
  EXPECT_GT(m.send_cost(1000, true), m.send_cost(1000, false));
  EXPECT_DOUBLE_EQ(m.recv_cost(100, true),
                   m.recv_overhead_us + 100 * m.copy_us_per_byte);
}

TEST(CostModel, WireTimeScalesWithSize) {
  LinkCostModel m = bip_myrinet_model();
  const usec_t t1 = m.wire_time(1000);
  const usec_t t2 = m.wire_time(100000);
  EXPECT_GT(t2, t1);
  // Large transfers approach the nominal bandwidth rate.
  const double effective = 99000.0 / (t2 - t1);
  EXPECT_GT(effective, 100.0);  // bytes/us
}

TEST(CostModel, BipLongPathPenalty) {
  LinkCostModel m = bip_myrinet_model();
  const usec_t at_limit = m.wire_time(m.short_message_limit);
  const usec_t above = m.wire_time(m.short_message_limit + 1);
  EXPECT_GT(above - at_limit, m.long_path_extra_us * 0.9);
}

TEST(CostModel, PaperBandwidthAnchors) {
  // The per-byte rates must land on Table 1 within a few percent.
  auto effective = [](const LinkCostModel& m) {
    return 1.0 / (1.0 / m.bandwidth_bytes_per_us +
                  m.per_segment_us / static_cast<double>(m.mtu_bytes));
  };
  EXPECT_NEAR(effective(tcp_fast_ethernet_model()) / 1.048576, 11.2, 0.5);
  EXPECT_NEAR(effective(sisci_sci_model()) / 1.048576, 82.6, 3.0);
  EXPECT_NEAR(effective(bip_myrinet_model()) / 1.048576, 122.0, 4.0);
}

TEST(LinkSerializer, BackToBackTransfersQueue) {
  LinkSerializer serializer;
  EXPECT_DOUBLE_EQ(serializer.reserve(0.0, 10.0), 0.0);
  // Second transfer posted at t=2 must wait until the first clears at 10.
  EXPECT_DOUBLE_EQ(serializer.reserve(2.0, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(serializer.busy_until(), 15.0);
  // A transfer posted after the link idles starts immediately.
  EXPECT_DOUBLE_EQ(serializer.reserve(20.0, 1.0), 20.0);
}

TEST(Port, FifoDelivery) {
  Port port;
  for (int i = 0; i < 3; ++i) {
    Frame frame;
    frame.seq = static_cast<std::uint64_t>(i);
    port.deliver(std::move(frame));
  }
  EXPECT_EQ(port.pending(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(port.try_take()->seq, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(port.try_take(), std::nullopt);
}

TEST(Port, BlockingTakeWakesOnDeliver) {
  Port port;
  std::thread producer([&port] {
    Frame frame;
    frame.seq = 7;
    port.deliver(std::move(frame));
  });
  auto frame = port.take_blocking();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 7u);
  producer.join();
}

TEST(Port, CloseDrainsThenEof) {
  Port port;
  Frame frame;
  port.deliver(std::move(frame));
  port.close();
  EXPECT_TRUE(port.take_blocking().has_value());
  EXPECT_FALSE(port.take_blocking().has_value());
  EXPECT_TRUE(port.closed());
}

TEST(Port, TakenFrameReleasesItsPayloadAtPop) {
  // The ring keeps its slots, but a taken frame's chunk references leave
  // with the frame: the lender's hook runs when the taken frame drops, not
  // when a later delivery reuses the slot.
  Port port;
  const std::byte bytes[4] = {};
  bool released = false;
  Frame frame;
  frame.payload.push_back(
      ChunkRef::lend(byte_span(bytes, sizeof bytes), [&] { released = true; }));
  port.deliver(std::move(frame));
  {
    std::optional<Frame> taken = port.try_take();
    ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(taken->payload.size(), sizeof bytes);
    EXPECT_FALSE(released);
  }
  EXPECT_TRUE(released);
}

TEST(Port, PerSourceFifoAcrossGrowthAndWrap) {
  // Two senders interleave into one port while the reader drains it, so
  // the ring both wraps (reads free the head) and grows (bursts outrun the
  // reader). Each source's frames must come out in its send order.
  Port port;
  constexpr std::uint64_t kPerSource = 5000;
  auto sender = [&port](node_id_t src) {
    for (std::uint64_t i = 0; i < kPerSource; ++i) {
      Frame frame;
      frame.src_node = src;
      frame.seq = i;
      port.deliver(std::move(frame));
    }
  };
  std::thread first(sender, 0);
  std::thread second(sender, 1);
  std::uint64_t next[2] = {0, 0};
  for (std::uint64_t taken = 0; taken < 2 * kPerSource;) {
    std::optional<Frame> frame = port.take_blocking();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->seq, next[frame->src_node]++);
    ++taken;
  }
  first.join();
  second.join();
  EXPECT_EQ(next[0], kPerSource);
  EXPECT_EQ(next[1], kPerSource);
  EXPECT_EQ(port.pending(), 0u);
}

TEST(FrameRing, FifoAcrossWrapAndGrowthWithTwoSources) {
  // Deterministic twin of the port test: wrap the head past the end of
  // the initial storage, then grow while wrapped, with two sources
  // interleaved.
  FrameRing ring;
  std::uint64_t sent[2] = {0, 0};
  std::uint64_t next[2] = {0, 0};
  auto push = [&](node_id_t src) {
    Frame frame;
    frame.src_node = src;
    frame.seq = sent[src]++;
    ring.push_back(std::move(frame));
  };
  auto pop = [&] {
    const Frame frame = ring.pop_front();
    EXPECT_EQ(frame.seq, next[frame.src_node]++);
  };
  for (int round = 0; round < 5; ++round) {  // head walks around the ring
    for (int i = 0; i < 6; ++i) push(i % 2);
    for (int i = 0; i < 6; ++i) pop();
  }
  for (int i = 0; i < 5; ++i) push(i % 2);
  for (int i = 0; i < 3; ++i) pop();
  for (int i = 0; i < 40; ++i) push(i % 3 == 0 ? 1 : 0);  // grows, wrapped
  EXPECT_EQ(ring.size(), 42u);
  while (!ring.empty()) pop();
  EXPECT_EQ(next[0], sent[0]);
  EXPECT_EQ(next[1], sent[1]);
}

TEST(Node, PollInterferenceSumsOtherChannels) {
  Node node(0, "n0", 2);
  EXPECT_EQ(node.poll_interference(0), 0.0);
  node.register_poller(0, 0.4);   // SCI-ish
  node.register_poller(1, 15.0);  // TCP-ish
  node.register_poller(2, 0.3);   // BIP-ish
  // Handling on channel 0 suffers half of the other pollers' costs.
  EXPECT_DOUBLE_EQ(node.poll_interference(0), 0.5 * (15.0 + 0.3));
  EXPECT_DOUBLE_EQ(node.poll_interference(1), 0.5 * (0.4 + 0.3));
  node.unregister_poller(1);
  EXPECT_DOUBLE_EQ(node.poll_interference(0), 0.5 * 0.3);
  EXPECT_EQ(node.active_pollers(), 2u);
}

TEST(Fabric, NodesAndNics) {
  Fabric fabric;
  Node& n0 = fabric.add_node("alpha", 2);
  Node& n1 = fabric.add_node("beta", 4);
  EXPECT_EQ(n0.id(), 0);
  EXPECT_EQ(n1.id(), 1);
  EXPECT_EQ(fabric.node(1).name(), "beta");
  EXPECT_EQ(fabric.node(1).cpus(), 4);

  fabric.add_nic(0, Protocol::kTcp);
  fabric.add_nic(0, Protocol::kSisci);
  fabric.add_nic(1, Protocol::kTcp);
  EXPECT_NE(fabric.find_nic(0, Protocol::kTcp), nullptr);
  EXPECT_EQ(fabric.find_nic(1, Protocol::kSisci), nullptr);
  EXPECT_EQ(fabric.nics_of(0).size(), 2u);
}

TEST(Fabric, WirePathComputesArrival) {
  Fabric fabric;
  fabric.add_node("a");
  fabric.add_node("b");
  Nic& src = fabric.add_nic(0, Protocol::kSisci);
  Nic& dst = fabric.add_nic(1, Protocol::kSisci);
  Port& port = fabric.make_port(1);
  WirePath path = fabric.make_path(src, dst, port);

  Frame frame;
  frame.src_node = 0;
  frame.dst_node = 1;
  frame.depart_time = 100.0;
  frame.payload.resize(8192);
  const usec_t arrival = path.transmit(std::move(frame));

  const LinkCostModel& m = src.model();
  const double per_byte = 1.0 / m.bandwidth_bytes_per_us +
                          m.per_segment_us / static_cast<double>(m.mtu_bytes);
  EXPECT_NEAR(arrival,
              100.0 + 8192 * per_byte + m.wire_latency_us + m.per_segment_us,
              1e-9);
  auto received = port.try_take();
  ASSERT_TRUE(received.has_value());
  EXPECT_DOUBLE_EQ(received->arrival_time, arrival);
}

TEST(Fabric, SerializationSharedBetweenPaths) {
  Fabric fabric;
  fabric.add_node("a");
  fabric.add_node("b");
  Nic& src = fabric.add_nic(0, Protocol::kTcp);
  Nic& dst = fabric.add_nic(1, Protocol::kTcp);
  Port& port1 = fabric.make_port(1);
  Port& port2 = fabric.make_port(1);
  WirePath path1 = fabric.make_path(src, dst, port1);
  WirePath path2 = fabric.make_path(src, dst, port2);

  Frame f1;
  f1.depart_time = 0.0;
  f1.payload.resize(14600);  // ~1.2 ms of wire occupation
  const usec_t a1 = path1.transmit(std::move(f1));

  Frame f2;
  f2.depart_time = 0.0;
  f2.payload.resize(10);
  const usec_t a2 = path2.transmit(std::move(f2));
  // The second frame had to wait for the first to serialize.
  EXPECT_GT(a2, a1 - src.model().wire_latency_us);
}

TEST(Fabric, MismatchedProtocolsAbort) {
  Fabric fabric;
  fabric.add_node("a");
  fabric.add_node("b");
  Nic& src = fabric.add_nic(0, Protocol::kTcp);
  Nic& dst = fabric.add_nic(1, Protocol::kBip);
  Port& port = fabric.make_port(1);
  EXPECT_DEATH(fabric.make_path(src, dst, port), "matching protocols");
}

TEST(Fabric, ZeroCopyHintSkipsBounceRate) {
  // Craft a model where the copy rate dominates the wire rate so the hint
  // visibly changes the arrival time. Use a fresh fabric per transfer so
  // link serialization cannot couple the two measurements.
  auto measure = [](bool copied_recv) {
    Fabric fabric;
    fabric.add_node("a");
    fabric.add_node("b");
    LinkCostModel model = sisci_sci_model();
    model.copy_us_per_byte = 1.0;  // absurdly slow copies
    Nic& src = fabric.add_nic(0, model);
    Nic& dst = fabric.add_nic(1, model);
    Port& port = fabric.make_port(1);
    WirePath path = fabric.make_path(src, dst, port);
    Frame frame;
    frame.payload.resize(1000);
    TransmitHints hints;
    hints.copied_recv = copied_recv;
    return path.transmit(std::move(frame), hints);
  };
  const usec_t slow = measure(true);
  const usec_t fast = measure(false);
  EXPECT_GT(slow, 1000.0);  // copy-dominated
  EXPECT_LT(fast, 100.0);   // wire-rate only
}

}  // namespace
}  // namespace madmpi::sim
