// Fault injection and multi-protocol failover: deterministic drops and
// retransmission, permanent link kill with route re-election (SCI down ->
// TCP), and clean MPI error statuses when no route remains.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/session.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

sim::Frame make_frame(std::uint64_t seq, std::uint32_t attempt,
                      usec_t depart = 0.0) {
  sim::Frame frame;
  frame.src_node = 0;
  frame.dst_node = 1;
  frame.seq = seq;
  frame.kind = 1;
  frame.attempt = attempt;
  frame.depart_time = depart;
  return frame;
}

// ------------------------------------------------------------- plan units

TEST(FaultPlan, DropDecisionsArePureFunctionsOfIdentity) {
  sim::FaultPlan a(42);
  a.drop(0.5);
  sim::FaultPlan b(42);
  b.drop(0.5);
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    EXPECT_EQ(a.lost(make_frame(seq, 0)), b.lost(make_frame(seq, 0)));
  }
  // A different seed must produce a different decision sequence.
  sim::FaultPlan c(43);
  c.drop(0.5);
  int disagreements = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    if (a.lost(make_frame(seq, 0)) != c.lost(make_frame(seq, 0))) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultPlan, RetransmissionsAreIndependentTrials) {
  sim::FaultPlan plan(7);
  plan.drop(0.5);
  // Find a seq whose first transmission is lost but some retry survives:
  // the attempt counter must change the hash.
  bool found = false;
  for (std::uint64_t seq = 0; seq < 100 && !found; ++seq) {
    if (!plan.lost(make_frame(seq, 0))) continue;
    for (std::uint32_t attempt = 1; attempt < 8; ++attempt) {
      if (!plan.lost(make_frame(seq, attempt))) {
        found = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(FaultPlan, ExtremeProbabilities) {
  sim::FaultPlan never(1);
  never.drop(0.0);
  sim::FaultPlan always(1);
  always.drop(1.0);
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    EXPECT_FALSE(never.lost(make_frame(seq, 0)));
    EXPECT_TRUE(always.lost(make_frame(seq, 0)));
  }
}

TEST(FaultPlan, OutageWindowAndPermanentKill) {
  sim::FaultPlan plan(0);
  plan.outage(100.0, 200.0).kill_at(1000.0);
  EXPECT_FALSE(plan.lost(make_frame(0, 0, 50.0)));
  EXPECT_TRUE(plan.lost(make_frame(0, 0, 100.0)));
  EXPECT_TRUE(plan.lost(make_frame(0, 0, 199.9)));
  EXPECT_FALSE(plan.lost(make_frame(0, 0, 200.0)));  // window is half-open
  EXPECT_TRUE(plan.lost(make_frame(0, 0, 1000.0)));
  EXPECT_TRUE(plan.lost(make_frame(0, 0, 5000.0)));
  EXPECT_FALSE(plan.dead(0, 1, 999.0));
  EXPECT_TRUE(plan.dead(0, 1, 1000.0));
}

TEST(FaultPlan, RulesFilterByDirectedPair) {
  sim::FaultPlan plan(0);
  plan.kill_at(0.0, /*src=*/0, /*dst=*/1);
  EXPECT_TRUE(plan.dead(0, 1, 0.0));
  EXPECT_FALSE(plan.dead(1, 0, 0.0));  // reverse direction untouched
  EXPECT_FALSE(plan.dead(0, 2, 0.0));
}

TEST(RetryPolicy, ExponentialBackoff) {
  sim::RetryPolicy policy;  // 100 us, x2
  EXPECT_DOUBLE_EQ(policy.delay_for(0), 100.0);
  EXPECT_DOUBLE_EQ(policy.delay_for(1), 200.0);
  EXPECT_DOUBLE_EQ(policy.delay_for(3), 800.0);
}

// ----------------------------------------------------------- full sessions

std::shared_ptr<sim::FaultPlan> install_plan(Session& session,
                                             node_id_t node,
                                             sim::Protocol protocol,
                                             std::uint64_t seed) {
  auto plan = std::make_shared<sim::FaultPlan>(seed);
  sim::Nic* nic = session.fabric().find_nic(node, protocol);
  EXPECT_NE(nic, nullptr);
  // WirePaths reference NIC models live, so existing paths see the plan.
  nic->mutable_model().fault_plan = plan;
  return plan;
}

/// Fixed-pattern ping-pong; returns rank 0's final virtual time.
usec_t pingpong_us(Session& session, int rounds, std::size_t bytes) {
  usec_t final_us = 0.0;
  session.run([&](Comm comm) {
    std::vector<std::uint8_t> out(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      out[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    std::vector<std::uint8_t> in(bytes);
    const int peer = 1 - comm.rank();
    const int count = static_cast<int>(bytes);
    for (int round = 0; round < rounds; ++round) {
      if (comm.rank() == 0) {
        comm.send(out.data(), count, Datatype::uint8(), peer, round);
        comm.recv(in.data(), count, Datatype::uint8(), peer, round);
      } else {
        comm.recv(in.data(), count, Datatype::uint8(), peer, round);
        comm.send(out.data(), count, Datatype::uint8(), peer, round);
      }
      ASSERT_EQ(std::memcmp(in.data(), out.data(), bytes), 0)
          << "payload corrupted in round " << round;
    }
    if (comm.rank() == 0) final_us = comm.wtime_us();
  });
  return final_us;
}

std::unique_ptr<Session> tcp_pair() {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  return std::make_unique<Session>(std::move(options));
}

/// Two nodes sharing both an SCI and a TCP network (failover testbed).
std::unique_ptr<Session> sci_tcp_pair() {
  sim::ClusterSpec spec;
  spec.nodes.push_back({"a"});
  spec.nodes.push_back({"b"});
  sim::NetworkSpec sci;
  sci.protocol = sim::Protocol::kSisci;
  sci.members = {"a", "b"};
  sim::NetworkSpec tcp;
  tcp.protocol = sim::Protocol::kTcp;
  tcp.members = {"a", "b"};
  spec.networks = {sci, tcp};
  Session::Options options;
  options.cluster = std::move(spec);
  return std::make_unique<Session>(std::move(options));
}

std::uint64_t total_drops(Session& session) {
  std::uint64_t drops = 0;
  for (mad::Channel* channel : session.madeleine().channels()) {
    drops += channel->traffic().frames_dropped;
  }
  return drops;
}

std::uint64_t total_retransmits(Session& session) {
  std::uint64_t retries = 0;
  for (mad::Channel* channel : session.madeleine().channels()) {
    retries += channel->traffic().retransmits;
  }
  return retries;
}

TEST(Faults, DropsAreRetriedTransparently) {
  auto session = tcp_pair();
  install_plan(*session, 0, sim::Protocol::kTcp, 7)->drop(0.3);
  pingpong_us(*session, 20, 256);
  EXPECT_GT(total_drops(*session), 0u);
  EXPECT_GT(total_retransmits(*session), 0u);
}

TEST(Faults, SameSeedGivesIdenticalVirtualTimings) {
  auto run_once = [] {
    auto session = tcp_pair();
    install_plan(*session, 0, sim::Protocol::kTcp, 1234)->drop(0.25);
    const usec_t time = pingpong_us(*session, 25, 512);
    return std::make_pair(time, total_drops(*session));
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_GT(first.second, 0u);      // the plan actually dropped frames
  EXPECT_EQ(first.second, second.second);
  EXPECT_EQ(first.first, second.first);  // bit-identical virtual time
}

TEST(Faults, ZeroDropRateLeavesTimingsUntouched) {
  auto baseline = tcp_pair();
  const usec_t clean = pingpong_us(*baseline, 10, 1024);

  auto session = tcp_pair();
  install_plan(*session, 0, sim::Protocol::kTcp, 99)->drop(0.0);
  const usec_t with_plan = pingpong_us(*session, 10, 1024);

  EXPECT_EQ(clean, with_plan);
  EXPECT_EQ(total_drops(*session), 0u);
}

TEST(Faults, RetransmissionDelaysShowUpInVirtualTime) {
  auto clean = tcp_pair();
  const usec_t clean_us = pingpong_us(*clean, 20, 256);

  auto lossy = tcp_pair();
  install_plan(*lossy, 0, sim::Protocol::kTcp, 7)->drop(0.3);
  const usec_t lossy_us = pingpong_us(*lossy, 20, 256);

  // Every retransmission waits at least one RTO of virtual time.
  EXPECT_GT(lossy_us, clean_us + 100.0);
}

TEST(Faults, SciKillMidRunFailsOverToTcp) {
  auto session = sci_tcp_pair();
  // Kill the SCI link (both directions: each node's NIC gets the plan)
  // mid-run; the first send departing after the kill re-elects TCP.
  install_plan(*session, 0, sim::Protocol::kSisci, 5)->kill_at(500.0);
  install_plan(*session, 1, sim::Protocol::kSisci, 5)->kill_at(500.0);

  sim::Tracer::global().clear();
  sim::Tracer::global().enable();
  pingpong_us(*session, 40, 256);
  sim::Tracer::global().disable();

  ASSERT_NE(session->ch_mad(), nullptr);
  EXPECT_GE(session->ch_mad()->failovers(), 1u);

  bool saw_failover = false;
  for (const auto& event : sim::Tracer::global().snapshot()) {
    if (event.category == sim::TraceCategory::kFailover) {
      saw_failover = true;
      EXPECT_STREQ(event.label, "SISCI");
    }
  }
  EXPECT_TRUE(saw_failover);

  // TCP carried traffic after the kill.
  std::uint64_t tcp_messages = 0;
  for (mad::Channel* channel : session->madeleine().channels()) {
    if (channel->protocol() == sim::Protocol::kTcp) {
      tcp_messages += channel->traffic().messages_sent;
    }
  }
  EXPECT_GT(tcp_messages, 0u);
}

TEST(Faults, FailoverIsDeterministicAcrossRepeats) {
  auto run_once = [] {
    auto session = sci_tcp_pair();
    install_plan(*session, 0, sim::Protocol::kSisci, 5)->kill_at(500.0);
    install_plan(*session, 1, sim::Protocol::kSisci, 5)->kill_at(500.0);
    return pingpong_us(*session, 40, 256);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Faults, RendezvousSurvivesSciKill) {
  auto session = sci_tcp_pair();
  install_plan(*session, 0, sim::Protocol::kSisci, 5)->kill_at(0.0);
  install_plan(*session, 1, sim::Protocol::kSisci, 5)->kill_at(0.0);
  // 64 KB is over every switch point: the whole rendezvous handshake must
  // run over the surviving TCP channel.
  pingpong_us(*session, 2, 64 * 1024);
  EXPECT_GE(session->ch_mad()->rendezvous_sent(), 1u);
}

TEST(Faults, NoRouteSurfacesAsErrorStatusNotAbort) {
  auto session = tcp_pair();
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  session->run([](Comm comm) {
    if (comm.rank() != 0) return;  // rank 1 posts nothing
    int value = 5;
    const Status status = comm.send(&value, 1, Datatype::int32(), 1, 0);
    EXPECT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), ErrorCode::kUnreachable);
  });
}

TEST(Faults, NoRouteRendezvousAlsoFailsCleanly) {
  auto session = tcp_pair();
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  session->run([](Comm comm) {
    if (comm.rank() != 0) return;
    std::vector<std::uint8_t> big(128 * 1024, 0xab);
    const Status status = comm.send(big.data(),
                                    static_cast<int>(big.size()),
                                    Datatype::uint8(), 1, 0);
    EXPECT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), ErrorCode::kUnreachable);
  });
}

TEST(Faults, SecondSendAfterNoRouteAlsoFailsCleanly) {
  // The first failed send marks the only route dead. Every later send to
  // the same peer must still reach ch_mad's route election and come back
  // kUnreachable: the device choice goes by the topology as built, not by
  // link health, so it never aborts the process.
  auto session = tcp_pair();
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  session->run([](Comm comm) {
    if (comm.rank() != 0) return;
    int value = 5;
    for (int i = 0; i < 2; ++i) {
      const Status status = comm.send(&value, 1, Datatype::int32(), 1, 0);
      EXPECT_EQ(status.code(), ErrorCode::kUnreachable) << "eager send " << i;
    }
    std::vector<std::uint8_t> big(128 * 1024, 0xab);
    for (int i = 0; i < 2; ++i) {
      const Status status = comm.send(big.data(),
                                      static_cast<int>(big.size()),
                                      Datatype::uint8(), 1, 0);
      EXPECT_EQ(status.code(), ErrorCode::kUnreachable)
          << "rendezvous send " << i;
    }
  });
}

}  // namespace
}  // namespace madmpi
