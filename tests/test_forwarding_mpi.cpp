// MPI-level gateway forwarding: full sessions on topologies where some
// node pairs share no network (lifting the paper's "all nodes have to be
// connected two-by-two" restriction, §6).
#include <gtest/gtest.h>

#include <numeric>

#include "core/session.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

/// a0, a1 on SCI; b0, b1 on Myrinet; gw on both. a* and b* can only reach
/// each other through gw.
sim::ClusterSpec bridged_spec() {
  sim::ClusterSpec spec;
  for (const char* name : {"a0", "a1", "gw", "b0", "b1"}) {
    sim::NodeSpec node;
    node.name = name;
    spec.nodes.push_back(node);
  }
  spec.networks.push_back({sim::Protocol::kSisci, 0, {"a0", "a1", "gw"}});
  spec.networks.push_back({sim::Protocol::kBip, 0, {"gw", "b0", "b1"}});
  return spec;
}

std::unique_ptr<Session> bridged_session() {
  Session::Options options;
  options.cluster = bridged_spec();
  options.enable_forwarding = true;
  return std::make_unique<Session>(std::move(options));
}

TEST(ForwardingMpi, RouterFindsGatewayPaths) {
  auto session = bridged_session();
  auto* device = session->ch_mad();
  ASSERT_NE(device, nullptr);
  ASSERT_TRUE(device->forwarding_enabled());
  const auto* router = device->forward_router();
  // a0(0) -> b0(3): via gw(2).
  EXPECT_EQ(router->next_hop(0, 3), 2);
  EXPECT_EQ(router->hops(0, 3), 2);
  EXPECT_EQ(router->hops(0, 1), 1);  // direct SCI
  EXPECT_TRUE(device->reaches(0, 3));
  EXPECT_TRUE(device->reaches(3, 0));
  EXPECT_STREQ(session->device_for(0, 4).name(), "ch_mad");
}

TEST(ForwardingMpi, EagerAcrossTheGateway) {
  auto session = bridged_session();
  session->run([](Comm comm) {
    // Rank layout: a0=0, a1=1, gw=2, b0=3, b1=4.
    if (comm.rank() == 0) {
      std::vector<int> data(100);
      std::iota(data.begin(), data.end(), 500);
      comm.send(data.data(), 100, Datatype::int32(), 4, 9);
    } else if (comm.rank() == 4) {
      std::vector<int> data(100, -1);
      auto status = comm.recv(data.data(), 100, Datatype::int32(), 0, 9);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(data[0], 500);
      EXPECT_EQ(data[99], 599);
    }
  });
  EXPECT_GE(session->ch_mad()->forwarded(), 1u);
}

TEST(ForwardingMpi, RendezvousAcrossTheGateway) {
  auto session = bridged_session();
  constexpr std::size_t kCount = 64 * 1024;  // well past the 8 KB switch
  session->run([](Comm comm) {
    if (comm.rank() == 1) {
      std::vector<double> data(kCount);
      std::iota(data.begin(), data.end(), 0.0);
      comm.send(data.data(), static_cast<int>(kCount), Datatype::float64(),
                3, 0);
    } else if (comm.rank() == 3) {
      std::vector<double> data(kCount, -1.0);
      comm.recv(data.data(), static_cast<int>(kCount), Datatype::float64(),
                1, 0);
      EXPECT_EQ(data[0], 0.0);
      EXPECT_EQ(data[kCount - 1], static_cast<double>(kCount - 1));
    }
  });
  // Request + ack + data all crossed the gateway.
  EXPECT_GE(session->ch_mad()->forwarded(), 3u);
  EXPECT_GE(session->ch_mad()->rendezvous_sent(), 1u);
}

TEST(ForwardingMpi, ManyMessagesStayOrdered) {
  // A burst of same-tag eager messages relayed by the gateway must reach
  // the receiver's matching queues in send order: a relay that reordered
  // them would hand the in-order receives the wrong sequence numbers.
  auto session = bridged_session();
  constexpr int kMessages = 30;
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        comm.send(&i, 1, Datatype::int32(), 4, 5);
      }
    } else if (comm.rank() == 4) {
      for (int i = 0; i < kMessages; ++i) {
        int seq = -1;
        comm.recv(&seq, 1, Datatype::int32(), 0, 5);
        ASSERT_EQ(seq, i);
      }
    }
  });
  EXPECT_GE(session->ch_mad()->forwarded(),
            static_cast<std::uint64_t>(kMessages));
}

TEST(ForwardingMpi, BidirectionalSendrecvThroughGateway) {
  auto session = bridged_session();
  session->run([](Comm comm) {
    if (comm.rank() != 0 && comm.rank() != 3) return;
    const int peer = comm.rank() == 0 ? 3 : 0;
    std::vector<int> out(2000, comm.rank());
    std::vector<int> in(2000, -1);
    comm.sendrecv(out.data(), 2000, Datatype::int32(), peer, 1, in.data(),
                  2000, Datatype::int32(), peer, 1);
    for (int v : in) ASSERT_EQ(v, peer);
  });
}

TEST(ForwardingMpi, CollectivesSpanTheWholeBridgedCluster) {
  auto session = bridged_session();
  session->run([](Comm comm) {
    int mine = comm.rank() + 1;
    int sum = 0;
    comm.allreduce(&mine, &sum, 1, Datatype::int32(), mpi::Op::sum());
    EXPECT_EQ(sum, 15);  // 1+2+3+4+5

    std::vector<int> all(static_cast<std::size_t>(comm.size()), -1);
    comm.allgather(&mine, 1, Datatype::int32(), all.data(), 1,
                   Datatype::int32());
    for (int r = 0; r < comm.size(); ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)], r + 1);
    }
  });
}

TEST(ForwardingMpi, VirtualTimeIncludesBothHops) {
  auto session = bridged_session();
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      char byte = 'x';
      const usec_t t0 = comm.wtime_us();
      comm.send(&byte, 1, Datatype::byte(), 3, 0);
      comm.recv(&byte, 1, Datatype::byte(), 3, 0);
      const usec_t round_trip = comm.wtime_us() - t0;
      // SCI hop (~20 us) + BIP hop (~20 us) + relay, both ways: the round
      // trip must clearly exceed a single-network round trip.
      EXPECT_GT(round_trip, 80.0);
      EXPECT_LT(round_trip, 400.0);
    } else if (comm.rank() == 3) {
      char byte = 0;
      comm.recv(&byte, 1, Datatype::byte(), 0, 0);
      comm.send(&byte, 1, Datatype::byte(), 0, 0);
    }
  });
}

TEST(ForwardingMpi, DisabledForwardingStillRejectsUnreachable) {
  Session::Options options;
  options.cluster = bridged_spec();
  options.enable_forwarding = false;
  Session session(std::move(options));
  EXPECT_FALSE(session.ch_mad()->forwarding_enabled());
  EXPECT_FALSE(session.ch_mad()->reaches(0, 3));
  EXPECT_DEATH(session.device_for(0, 3), "unreachable");
}

TEST(ForwardingMpi, IslandsWithoutAGatewayStayUnreachable) {
  // Forwarding joins only what some chain of networks joins: two SCI
  // pairs with no common member are two islands, gateway or not.
  sim::ClusterSpec spec;
  for (const char* name : {"a0", "a1", "b0", "b1"}) {
    sim::NodeSpec node;
    node.name = name;
    spec.nodes.push_back(node);
  }
  spec.networks.push_back({sim::Protocol::kSisci, 0, {"a0", "a1"}});
  spec.networks.push_back({sim::Protocol::kSisci, 1, {"b0", "b1"}});
  Session::Options options;
  options.cluster = spec;
  options.enable_forwarding = true;
  Session session(std::move(options));
  const auto* router = session.ch_mad()->forward_router();
  ASSERT_NE(router, nullptr);
  EXPECT_TRUE(router->connected_as_built(0, 1));
  EXPECT_TRUE(router->connected_as_built(3, 2));
  EXPECT_FALSE(router->connected_as_built(1, 2));
  EXPECT_TRUE(session.ch_mad()->reaches(0, 1));
  EXPECT_FALSE(session.ch_mad()->reaches(0, 2));
  EXPECT_FALSE(session.ch_mad()->reaches(3, 1));
}

TEST(ForwardingMpi, ThreeHopChain) {
  // n0 -SCI- n1 -TCP- n2 -BIP- n3: n0 to n3 crosses two gateways.
  sim::ClusterSpec spec;
  for (const char* name : {"n0", "n1", "n2", "n3"}) {
    sim::NodeSpec node;
    node.name = name;
    spec.nodes.push_back(node);
  }
  spec.networks.push_back({sim::Protocol::kSisci, 0, {"n0", "n1"}});
  spec.networks.push_back({sim::Protocol::kTcp, 0, {"n1", "n2"}});
  spec.networks.push_back({sim::Protocol::kBip, 0, {"n2", "n3"}});
  Session::Options options;
  options.cluster = spec;
  options.enable_forwarding = true;
  Session session(std::move(options));
  EXPECT_EQ(session.ch_mad()->forward_router()->hops(0, 3), 3);

  session.run([](Comm comm) {
    if (comm.rank() == 0) {
      std::uint64_t value = 0xfeedface;
      comm.send(&value, 1, Datatype::uint64(), 3, 0);
    } else if (comm.rank() == 3) {
      std::uint64_t value = 0;
      comm.recv(&value, 1, Datatype::uint64(), 0, 0);
      EXPECT_EQ(value, 0xfeedfaceu);
    }
  });
  EXPECT_GE(session.ch_mad()->forwarded(), 2u);  // two relays for one hop
}

}  // namespace
}  // namespace madmpi
