// Robustness layer: credit-based eager flow control, the bounded
// unexpected store, and the progress watchdog + MPI error handlers.
//
// The scenarios the layer exists for: an eager storm against a slow
// receiver must never grow the unexpected store past its budget (overflow
// demotes to rendezvous, which buffers nothing); credits are conserved
// under fault-plan traffic; and a receive from a permanently-killed peer
// returns an MPI error within the watchdog horizon instead of hanging.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "mpi/compat.hpp"
#include "sim/fault.hpp"

namespace madmpi {
namespace {

using core::ChMadDevice;
using core::Session;
using mpi::Comm;
using mpi::Datatype;

std::shared_ptr<sim::FaultPlan> install_plan(Session& session,
                                             node_id_t node,
                                             sim::Protocol protocol,
                                             std::uint64_t seed) {
  auto plan = std::make_shared<sim::FaultPlan>(seed);
  sim::Nic* nic = session.fabric().find_nic(node, protocol);
  EXPECT_NE(nic, nullptr);
  nic->mutable_model().fault_plan = plan;
  return plan;
}

std::unique_ptr<Session> tcp_pair(
    const std::function<void(Session::Options&)>& tweak = {}) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  if (tweak) tweak(options);
  return std::make_unique<Session>(std::move(options));
}

// ------------------------------------------------------- bounded store

TEST(FlowControl, EagerStormStaysUnderBudgetByDemoting) {
  constexpr int kMessages = 50;
  constexpr int kPayload = 256;  // under every switch point: eager
  constexpr std::size_t kBudget = 1024;  // fits ~3 charged messages
  auto session = tcp_pair(
      [](Session::Options& o) { o.unexpected_budget_bytes = kBudget; });

  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<std::vector<std::uint8_t>> payloads(kMessages);
      std::vector<mpi::Request> requests;
      for (int i = 0; i < kMessages; ++i) {
        payloads[i].assign(kPayload, static_cast<std::uint8_t>(i * 7 + 1));
        requests.push_back(comm.isend(payloads[i].data(), kPayload,
                                      Datatype::uint8(), 1, i));
      }
      // The marker goes out before waitall: demoted isends only complete
      // once the receiver posts, and the receiver starts on the marker.
      int done = 1;
      comm.send(&done, 1, Datatype::int32(), 1, 999);
      for (auto& request : requests) request.wait();
    } else {
      int done = 0;
      comm.recv(&done, 1, Datatype::int32(), 0, 999);
      ASSERT_EQ(done, 1);
      // Drain the storm only after the whole burst arrived (stored up to
      // the budget; the rest parked as rendezvous requests).
      std::vector<std::uint8_t> in(kPayload);
      for (int i = 0; i < kMessages; ++i) {
        const auto status =
            comm.recv(in.data(), kPayload, Datatype::uint8(), 0, i);
        ASSERT_EQ(status.error, ErrorCode::kOk);
        ASSERT_EQ(status.bytes, static_cast<std::size_t>(kPayload));
        for (int b = 0; b < kPayload; ++b) {
          ASSERT_EQ(in[static_cast<std::size_t>(b)],
                    static_cast<std::uint8_t>(i * 7 + 1))
              << "message " << i << " corrupted at byte " << b;
        }
      }
    }
  });

  mpi::RankContext& receiver = session->context_of(1);
  EXPECT_LE(receiver.unexpected_bytes_high_water(), kBudget);
  EXPECT_GT(receiver.eager_refused(), 0u);
  // Refused messages were demoted, not dropped and not buffered.
  EXPECT_GE(session->ch_mad()->rendezvous_sent(),
            receiver.eager_refused());
  EXPECT_EQ(receiver.unexpected_bytes(), 0u);  // fully drained
}

TEST(FlowControl, StormUnderDropsStillRespectsBudget) {
  constexpr int kMessages = 24;
  constexpr int kPayload = 200;
  constexpr std::size_t kBudget = 900;
  for (const std::uint64_t seed : {5ull, 17ull}) {
    auto session = tcp_pair(
        [](Session::Options& o) { o.unexpected_budget_bytes = kBudget; });
    install_plan(*session, 0, sim::Protocol::kTcp, seed)->drop(0.2);
    install_plan(*session, 1, sim::Protocol::kTcp, seed + 1)->drop(0.2);
    session->run([](Comm comm) {
      std::vector<std::uint8_t> out(kPayload);
      std::vector<std::uint8_t> in(kPayload);
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<std::uint8_t>(i);
      }
      const int peer = 1 - comm.rank();
      for (int i = 0; i < kMessages; ++i) {
        if (comm.rank() == 0) {
          comm.send(out.data(), kPayload, Datatype::uint8(), peer, i);
          comm.recv(in.data(), kPayload, Datatype::uint8(), peer, i);
        } else {
          comm.recv(in.data(), kPayload, Datatype::uint8(), peer, i);
          comm.send(out.data(), kPayload, Datatype::uint8(), peer, i);
        }
        ASSERT_EQ(std::memcmp(in.data(), out.data(), kPayload), 0);
      }
    });
    EXPECT_LE(session->context_of(0).unexpected_bytes_high_water(), kBudget);
    EXPECT_LE(session->context_of(1).unexpected_bytes_high_water(), kBudget);
  }
}

// --------------------------------------------------- credit conservation

TEST(FlowControl, CreditsConservedAtQuiesceAcrossSeeds) {
  for (const std::uint64_t seed : {3ull, 7ull, 11ull}) {
    auto session = tcp_pair();
    install_plan(*session, 0, sim::Protocol::kTcp, seed)->drop(0.15);
    install_plan(*session, 1, sim::Protocol::kTcp, seed + 100)->drop(0.15);
    session->run([](Comm comm) {
      std::vector<std::uint8_t> out(512, 0x5a);
      std::vector<std::uint8_t> in(512);
      const int peer = 1 - comm.rank();
      for (int round = 0; round < 12; ++round) {
        if (comm.rank() == 0) {
          comm.send(out.data(), static_cast<int>(out.size()),
                    Datatype::uint8(), peer, round);
          comm.recv(in.data(), static_cast<int>(in.size()),
                    Datatype::uint8(), peer, round);
        } else {
          comm.recv(in.data(), static_cast<int>(in.size()),
                    Datatype::uint8(), peer, round);
          comm.send(out.data(), static_cast<int>(out.size()),
                    Datatype::uint8(), peer, round);
        }
      }
    });
    ChMadDevice* device = session->ch_mad();
    ASSERT_NE(device, nullptr);
    const std::size_t window = device->credit_window();
    ASSERT_GT(window, 0u);
    // Drain in-flight credit-return threads before auditing the books.
    session->finalize();
    for (node_id_t a = 0; a <= 1; ++a) {
      const node_id_t b = 1 - a;
      const std::size_t available = device->credits_available(a, b);
      const std::size_t owed = device->credits_pending_return(b, a);
      EXPECT_LE(available, window) << "seed " << seed;
      // Conservation: every charged byte is either back in the sender's
      // window or still owed by the receiver — none leak, none duplicate.
      EXPECT_EQ(available + owed, window)
          << "direction " << static_cast<int>(a) << "->"
          << static_cast<int>(b) << ", seed " << seed;
    }
  }
}

TEST(FlowControl, TinyWindowForcesDemotionOrBlocking) {
  // A window this small admits exactly one in-flight eager message, so a
  // burst must demote the rest (policy kDemote is the default).
  auto session = tcp_pair(
      [](Session::Options& o) { o.credit_window_bytes = 400; });
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> out(256, 0xab);
      std::vector<mpi::Request> requests;
      for (int i = 0; i < 8; ++i) {
        requests.push_back(comm.isend(out.data(),
                                      static_cast<int>(out.size()),
                                      Datatype::uint8(), 1, i));
      }
      int done = 1;
      comm.send(&done, 1, Datatype::int32(), 1, 999);
      for (auto& request : requests) request.wait();
    } else {
      int done = 0;
      comm.recv(&done, 1, Datatype::int32(), 0, 999);
      std::vector<std::uint8_t> in(256);
      for (int i = 0; i < 8; ++i) {
        const auto status = comm.recv(in.data(), static_cast<int>(in.size()),
                                      Datatype::uint8(), 0, i);
        ASSERT_EQ(status.error, ErrorCode::kOk);
      }
    }
  });
  EXPECT_EQ(session->ch_mad()->credit_window(), 400u);
  EXPECT_GT(session->ch_mad()->eager_demoted(), 0u);
}

TEST(FlowControl, BlockedSenderWakesOnRefund) {
  // A sender blocked on an empty window (policy kBlock) is woken when a
  // failed eager send hands its admission back: refund_credit updates the
  // account under the node lock and notifies the waiter after releasing
  // it. The waiter also re-checks every 2 ms, and one whose re-check sees
  // the dead route before the refund lands demotes instead; either way no
  // credit is lost or counted twice.
  constexpr std::uint64_t kBytes = 64;
  const std::size_t charge =
      kBytes + mpi::RankContext::kUnexpectedEntryOverhead;
  int admitted = 0;
  for (int i = 0; i < 50; ++i) {
    auto session = tcp_pair([charge](Session::Options& o) {
      o.credit_window_bytes = charge;
      o.credit_policy = ChMadDevice::CreditPolicy::kBlock;
    });
    ChMadDevice* device = session->ch_mad();
    ASSERT_TRUE(device->admit_eager(0, 1, kBytes, true));  // window empty
    std::atomic<int> outcome{-1};
    std::thread waiter([device, &outcome] {
      outcome = device->admit_eager(0, 1, kBytes, true) ? 1 : 0;
    });
    while (device->credit_stalls() == 0) std::this_thread::yield();
    // The admitted message never leaves: node 0's NIC is dead.
    install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
    std::vector<std::byte> payload(kBytes);
    mpi::Envelope env;
    env.src = 0;
    env.dst = 1;
    env.bytes = kBytes;
    EXPECT_FALSE(
        device->send(0, 1, env, payload, mpi::TransferMode::kEager).is_ok());
    waiter.join();
    if (outcome == 1) {
      ++admitted;
      EXPECT_EQ(device->credits_available(0, 1), 0u);
    } else {
      EXPECT_EQ(device->credits_available(0, 1), charge);
    }
  }
  EXPECT_GT(admitted, 0);
}

// ------------------------------------------------------------- watchdog

TEST(Watchdog, RecvFromKilledPeerReturnsTimeoutInsteadOfHanging) {
  auto session = tcp_pair(
      [](Session::Options& o) { o.watchdog_horizon_us = 2000.0; });
  // Node 0's NIC killed from t=0: nothing node 0 sends ever arrives, so
  // rank 1's receive can never be satisfied.
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  session->run([](Comm comm) {
    if (comm.rank() != 0) {
      int value = -1;
      const auto status = comm.recv(&value, 1, Datatype::int32(), 0, 0);
      EXPECT_EQ(status.error, ErrorCode::kTimedOut);
      EXPECT_EQ(value, -1);  // nothing was delivered
    }
  });
  // The cancel counter is bumped by the watchdog sweep *after* it
  // completes the victim request, so it is only authoritative once
  // finalize() has joined that thread.
  session->finalize();
  EXPECT_GE(session->watchdog_cancels(), 1u);
}

TEST(Watchdog, MultiHopRoutesAreNotDeclaredDead) {
  // n0 -SCI- n1 -TCP- n2 -BIP- n3: n0 and n3 only reach each other over
  // two gateways. The failure detector must walk the whole relay graph —
  // a two-hop-only check once flagged this healthy route dead and the
  // watchdog cancelled a live receive.
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
  EXPECT_FALSE(session.route_dead(0, 3));
  EXPECT_FALSE(session.route_dead(3, 0));

  // Killing the middle link's sender-side NIC severs the only path.
  install_plan(session, 1, sim::Protocol::kTcp, 0)->kill_at(0.0);
  EXPECT_TRUE(session.route_dead(0, 3));
  EXPECT_FALSE(session.route_dead(0, 1));  // first hop still fine
}

TEST(Watchdog, ProbeFromKilledPeerAlsoTimesOut) {
  auto session = tcp_pair(
      [](Session::Options& o) { o.watchdog_horizon_us = 2000.0; });
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  session->run([](Comm comm) {
    if (comm.rank() != 0) {
      const auto status = comm.probe(0, 0);
      EXPECT_EQ(status.error, ErrorCode::kTimedOut);
    }
  });
}

TEST(Watchdog, MprobeFromKilledPeerAlsoTimesOut) {
  auto session = tcp_pair(
      [](Session::Options& o) { o.watchdog_horizon_us = 2000.0; });
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  session->run([](Comm comm) {
    if (comm.rank() != 0) {
      mpi::MatchedMessage message;
      const auto status = comm.mprobe(0, 0, &message);
      EXPECT_EQ(status.error, ErrorCode::kTimedOut);
      EXPECT_FALSE(message.valid());
    }
  });
}

TEST(Watchdog, CustomErrhandlerRunsOnCancel) {
  auto session = tcp_pair(
      [](Session::Options& o) { o.watchdog_horizon_us = 2000.0; });
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  std::atomic<int> handled{0};
  std::atomic<bool> code_was_timeout{false};
  session->run([&](Comm comm) {
    if (comm.rank() != 0) {
      comm.set_errhandler(mpi::Errhandler::custom(
          [&](ErrorCode code, const std::string&) {
            handled.fetch_add(1);
            if (code == ErrorCode::kTimedOut) code_was_timeout.store(true);
          }));
      int value = 0;
      const auto status = comm.recv(&value, 1, Datatype::int32(), 0, 0);
      EXPECT_EQ(status.error, ErrorCode::kTimedOut);
    }
  });
  EXPECT_EQ(handled.load(), 1);
  EXPECT_TRUE(code_was_timeout.load());
}

TEST(Watchdog, HealthyTrafficIsNeverCancelled) {
  auto session = tcp_pair(
      [](Session::Options& o) { o.watchdog_horizon_us = 500.0; });
  session->run([](Comm comm) {
    std::vector<std::uint8_t> out(128, 0x11);
    std::vector<std::uint8_t> in(128);
    const int peer = 1 - comm.rank();
    for (int round = 0; round < 10; ++round) {
      if (comm.rank() == 0) {
        comm.send(out.data(), 128, Datatype::uint8(), peer, round);
        comm.recv(in.data(), 128, Datatype::uint8(), peer, round);
      } else {
        comm.recv(in.data(), 128, Datatype::uint8(), peer, round);
        comm.send(out.data(), 128, Datatype::uint8(), peer, round);
      }
      ASSERT_EQ(std::memcmp(in.data(), out.data(), 128), 0);
    }
  });
  EXPECT_EQ(session->watchdog_cancels(), 0u);
}

// ------------------------------------------------- compat error handlers

int g_compat_handler_calls = 0;
int g_compat_handler_code = MPI_SUCCESS;

void count_errors(MPI_Comm*, int* code) {
  ++g_compat_handler_calls;
  g_compat_handler_code = *code;
}

TEST(Watchdog, CompatErrorsReturnSurfacesTimeout) {
  auto session = tcp_pair(
      [](Session::Options& o) { o.watchdog_horizon_us = 2000.0; });
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  session->run([](Comm world) {
    compat::bind_world(std::move(world));
    MPI_Init(nullptr, nullptr);
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    if (rank != 0) {
      MPI_Comm_set_errhandler(MPI_COMM_WORLD, MPI_ERRORS_RETURN);
      MPI_Errhandler current = MPI_ERRHANDLER_NULL;
      MPI_Comm_get_errhandler(MPI_COMM_WORLD, &current);
      EXPECT_EQ(current, MPI_ERRORS_RETURN);
      int value = 0;
      MPI_Status status;
      const int rc =
          MPI_Recv(&value, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, &status);
      EXPECT_EQ(rc, MPI_ERR_OTHER);
      EXPECT_EQ(status.MPI_ERROR, MPI_ERR_OTHER);
    }
    MPI_Finalize();
    compat::unbind_world();
  });
}

TEST(Watchdog, CompatCustomErrhandlerIsInvoked) {
  g_compat_handler_calls = 0;
  g_compat_handler_code = MPI_SUCCESS;
  auto session = tcp_pair(
      [](Session::Options& o) { o.watchdog_horizon_us = 2000.0; });
  install_plan(*session, 0, sim::Protocol::kTcp, 0)->kill_at(0.0);
  session->run([](Comm world) {
    compat::bind_world(std::move(world));
    MPI_Init(nullptr, nullptr);
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    if (rank != 0) {
      MPI_Errhandler handler = MPI_ERRHANDLER_NULL;
      MPI_Comm_create_errhandler(&count_errors, &handler);
      MPI_Comm_set_errhandler(MPI_COMM_WORLD, handler);
      int value = 0;
      const int rc = MPI_Recv(&value, 1, MPI_INT, 0, 0, MPI_COMM_WORLD,
                              MPI_STATUS_IGNORE);
      EXPECT_EQ(rc, MPI_ERR_OTHER);
      MPI_Errhandler_free(&handler);
      EXPECT_EQ(handler, MPI_ERRHANDLER_NULL);
    }
    MPI_Finalize();
    compat::unbind_world();
  });
  EXPECT_EQ(g_compat_handler_calls, 1);
  EXPECT_EQ(g_compat_handler_code, MPI_ERR_OTHER);
}

}  // namespace
}  // namespace madmpi
