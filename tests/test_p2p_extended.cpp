// Extended point-to-point machinery: persistent requests, buffered sends,
// multi-request waits, explicit pack buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>

#include "core/session.hpp"
#include "mpi/packbuf.hpp"
#include "mpi/persistent.hpp"
#include "mpi/win.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;
using mpi::PersistentRequest;
using mpi::Request;

std::unique_ptr<Session> two_nodes(sim::Protocol protocol) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  return std::make_unique<Session>(std::move(options));
}

TEST(Persistent, RepeatedStartWaitCycles) {
  auto session = two_nodes(sim::Protocol::kSisci);
  constexpr int kIterations = 20;
  session->run([](Comm comm) {
    const int peer = 1 - comm.rank();
    std::vector<int> out(64);
    std::vector<int> in(64, -1);
    auto send = PersistentRequest::send_init(comm, out.data(), 64,
                                             Datatype::int32(), peer, 0);
    auto recv = PersistentRequest::recv_init(comm, in.data(), 64,
                                             Datatype::int32(), peer, 0);
    for (int iter = 0; iter < kIterations; ++iter) {
      std::fill(out.begin(), out.end(), comm.rank() * 1000 + iter);
      recv.start();
      send.start();
      send.wait();
      const auto status = recv.wait();
      EXPECT_EQ(status.source, peer);
      for (int v : in) ASSERT_EQ(v, peer * 1000 + iter);
    }
    EXPECT_FALSE(send.active());
    EXPECT_FALSE(recv.active());
  });
}

TEST(Persistent, MisuseAborts) {
  auto session = two_nodes(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() != 0) return;
    PersistentRequest uninitialized;
    EXPECT_DEATH(uninitialized.start(), "uninitialized");
    int buf = 0;
    auto recv = PersistentRequest::recv_init(comm, &buf, 1,
                                             Datatype::int32(), 0, 0);
    EXPECT_DEATH(recv.wait(), "inactive");
    recv.start();
    EXPECT_DEATH(recv.start(), "already active");
    // Self-send completes the pending receive so the session can drain.
    int value = 9;
    comm.send(&value, 1, Datatype::int32(), 0, 0);
    recv.wait();
    EXPECT_EQ(buf, 9);
  });
}

TEST(Bsend, ReturnsBeforeReceiverPosts) {
  auto session = two_nodes(sim::Protocol::kSisci);
  constexpr std::size_t kCount = 8 * 1024;  // 32 KB: rendezvous territory
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      Comm::buffer_attach(kCount * sizeof(int) + Comm::bsend_overhead());
      std::vector<int> data(kCount);
      std::iota(data.begin(), data.end(), 0);
      const usec_t t0 = comm.wtime_us();
      comm.bsend(data.data(), static_cast<int>(kCount), Datatype::int32(), 1,
                 0);
      // A blocking rendezvous send would wait a full request/ack round
      // trip; bsend returns after staging the copy (~110 us of virtual
      // time for 32 KB at host-memcpy speed).
      EXPECT_LT(comm.wtime_us() - t0, 300.0);
      // Buffer reusable right away.
      std::fill(data.begin(), data.end(), -1);
      Comm::buffer_detach();  // blocks until the message left the buffer
    } else {
      std::vector<int> in(kCount, -1);
      comm.recv(in.data(), static_cast<int>(kCount), Datatype::int32(), 0,
                0);
      EXPECT_EQ(in.front(), 0);
      EXPECT_EQ(in.back(), static_cast<int>(kCount) - 1);
    }
  });
}

TEST(Bsend, OverflowAborts) {
  auto session = two_nodes(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() != 0) return;
    Comm::buffer_attach(256);  // one small message + overhead fits
    std::vector<std::byte> big(1024);
    EXPECT_DEATH(
        comm.bsend(big.data(), 1024, Datatype::byte(), 0, 0),
        "too small");
    // Small message fits (self-delivery keeps the session clean).
    int value = 5;
    auto req = comm.irecv(&value, 1, Datatype::int32(), 0, 1);
    int out = 6;
    comm.bsend(&out, 1, Datatype::int32(), 0, 1);
    req.wait();
    EXPECT_EQ(value, 6);
    Comm::buffer_detach();
  });
}

TEST(Bsend, WithoutAttachAborts) {
  auto session = two_nodes(sim::Protocol::kTcp);
  session->run([](Comm comm) {
    if (comm.rank() != 0) return;
    int value = 1;
    EXPECT_DEATH(comm.bsend(&value, 1, Datatype::int32(), 0, 0),
                 "without an attached buffer");
  });
}

/// Rank 0 sends `pairs` pairs of a `bsend_bytes` bsend and a one-int send
/// to rank 1, all with tag 0; rank 1 receives them in turn. Returns how
/// many pairs arrived out of order: MPI's non-overtaking rule allows none.
int misordered_bsend_pairs(std::size_t bsend_bytes, int pairs) {
  auto session = two_nodes(sim::Protocol::kSisci);
  int misordered = 0;
  session->run([&](Comm comm) {
    std::vector<std::byte> buffer(bsend_bytes);
    const int count = static_cast<int>(bsend_bytes);
    if (comm.rank() == 0) {
      Comm::buffer_attach(static_cast<std::size_t>(pairs) *
                          (bsend_bytes + Comm::bsend_overhead()));
      for (int i = 0; i < pairs; ++i) {
        comm.bsend(buffer.data(), count, Datatype::byte(), 1, 0);
        ASSERT_TRUE(comm.send(&i, 1, Datatype::int32(), 1, 0).is_ok());
      }
      Comm::buffer_detach();
    } else {
      for (int i = 0; i < pairs; ++i) {
        const auto first = comm.recv(buffer.data(), count, Datatype::byte(),
                                     0, 0);
        const auto second = comm.recv(buffer.data(), count, Datatype::byte(),
                                      0, 0);
        if (first.bytes != bsend_bytes || second.bytes != sizeof(int)) {
          ++misordered;
        }
      }
    }
  });
  return misordered;
}

TEST(Bsend, KeepsNonOvertakingOrder) {
  EXPECT_EQ(misordered_bsend_pairs(2 * sizeof(int), 2000), 0);
}

TEST(Bsend, RendezvousKeepsNonOvertakingOrder) {
  EXPECT_EQ(misordered_bsend_pairs(32u << 10, 200), 0);
}

TEST(MultiWait, WaitAnyReturnsFirstCompleted) {
  auto session = two_nodes(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      int a = -1, b = -1;
      std::vector<Request> requests;
      requests.push_back(comm.irecv(&a, 1, Datatype::int32(), 1, 10));
      requests.push_back(comm.irecv(&b, 1, Datatype::int32(), 1, 20));
      mpi::MpiStatus status;
      const std::size_t first = Request::wait_any(requests, &status);
      // wait_any scans by index, so with both possibly complete it
      // returns some completed request; verify the status/value pairing
      // and that the handle was nulled.
      ASSERT_NE(first, Request::npos);
      EXPECT_EQ(status.tag, first == 0 ? 10 : 20);
      EXPECT_FALSE(requests[first].valid());  // consumed -> null
      const std::size_t second = Request::wait_any(requests);
      ASSERT_NE(second, Request::npos);
      EXPECT_NE(second, first);
      EXPECT_EQ(a, 111);
      EXPECT_EQ(b, 222);
    } else {
      int v20 = 222;
      comm.send(&v20, 1, Datatype::int32(), 0, 20);
      int v10 = 111;
      comm.send(&v10, 1, Datatype::int32(), 0, 10);
    }
  });
}

TEST(MultiWait, TestAnyAndTestAll) {
  auto session = two_nodes(sim::Protocol::kBip);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      int a = -1;
      std::vector<Request> requests;
      requests.push_back(comm.irecv(&a, 1, Datatype::int32(), 1, 0));
      EXPECT_EQ(Request::test_any(requests), Request::npos);
      EXPECT_FALSE(Request::test_all(requests));
      int go = 1;
      comm.send(&go, 1, Datatype::int32(), 1, 1);
      while (Request::test_any(requests) == Request::npos) {
      }
      EXPECT_EQ(a, 77);
      EXPECT_TRUE(Request::test_all(requests));  // all null now
    } else {
      int go = 0;
      comm.recv(&go, 1, Datatype::int32(), 0, 1);
      int value = 77;
      comm.send(&value, 1, Datatype::int32(), 0, 0);
    }
  });
}

TEST(MultiWait, WaitSomeCollectsBatch) {
  auto session = two_nodes(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    if (comm.rank() == 0) {
      std::array<int, 3> values{-1, -1, -1};
      std::vector<Request> requests;
      for (int i = 0; i < 3; ++i) {
        requests.push_back(comm.irecv(&values[static_cast<std::size_t>(i)],
                                      1, Datatype::int32(), 1, i));
      }
      std::size_t total = 0;
      while (total < 3) {
        total += Request::wait_some(requests).size();
      }
      EXPECT_EQ(values, (std::array<int, 3>{0, 10, 20}));
    } else {
      for (int i = 0; i < 3; ++i) {
        int value = i * 10;
        comm.send(&value, 1, Datatype::int32(), 0, i);
      }
    }
  });
}

TEST(MultiWait, TestSpinSeesHelperCompletion) {
  // Regression: a test() landing between complete()'s status store and its
  // release used to abort the process. Another thread completes each
  // request while its owner spins test().
  auto session = two_nodes(sim::Protocol::kSisci);
  Session* host = session.get();
  session->run([host](Comm comm) {
    if (comm.rank() != 0) return;
    sim::Node& node = host->node_of(0);
    for (int i = 0; i < 10000; ++i) {
      auto state = std::make_shared<mpi::RequestState>(node);
      mpi::MpiStatus done;
      done.tag = i;
      std::thread completer(
          [state, done] { mpi::RequestState::complete(state, done); });
      Request request(state);
      mpi::MpiStatus status;
      while (!request.test(&status)) {
      }
      completer.join();
      ASSERT_EQ(status.tag, i);
    }
  });
}

TEST(MultiWait, WaiterDropsItsHandleAsSoonAsWaitReturns) {
  // complete() wakes the waiter after releasing the request mutex, so the
  // waiter can return from wait() and drop its handle while the completer
  // is still inside complete(). The completer's by-value reference must
  // keep the state alive through that notify: each completer thread hands
  // its only reference over, and the waiter's is gone the moment wait()
  // returns.
  auto session = two_nodes(sim::Protocol::kSisci);
  Session* host = session.get();
  session->run([host](Comm comm) {
    if (comm.rank() != 0) return;
    sim::Node& node = host->node_of(0);
    for (int i = 0; i < 10000; ++i) {
      auto state = std::make_shared<mpi::RequestState>(node);
      mpi::MpiStatus done;
      done.tag = i;
      std::thread completer([state, done]() mutable {
        mpi::RequestState::complete(std::move(state), done);
      });
      const mpi::MpiStatus status = Request(std::move(state)).wait();
      completer.join();
      ASSERT_EQ(status.tag, i);
    }
  });
}

std::size_t live_threads() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(MarcelExecutorSession, FinalizeLeavesNoHelperThreadBehind) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task";
  }
  // A sanitizer runtime may start a thread of its own the first time the
  // process creates one (TSan's background thread) and keep it for good.
  // Create and join one plain thread first, so `before` counts that one
  // but still none the library starts. The joined thread itself may stay
  // listed for a moment: take the lowest count over a short settle.
  std::thread([] {}).join();
  std::size_t before = live_threads();
  const auto settled =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (std::chrono::steady_clock::now() < settled) {
    before = std::min(before, live_threads());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  // A small window so the eager stream below triggers credit returns.
  options.credit_window_bytes = 16 * 1024;
  Session session(std::move(options));
  session.run([](Comm comm) {
    const int peer = 1 - comm.rank();
    // Rendezvous both ways: reply and data helpers on each node.
    std::vector<int> out(64 * 1024, comm.rank());
    std::vector<int> in(64 * 1024, -1);
    Request recv = comm.irecv(in.data(), static_cast<int>(in.size()),
                              Datatype::int32(), peer, 1);
    comm.isend(out.data(), static_cast<int>(out.size()), Datatype::int32(),
               peer, 1)
        .wait();
    recv.wait();
    EXPECT_EQ(in.back(), peer);
    // Buffered send: delivered in place.
    if (comm.rank() == 0) {
      Comm::buffer_attach(out.size() * sizeof(int) + Comm::bsend_overhead());
      comm.bsend(out.data(), static_cast<int>(out.size()), Datatype::int32(),
                 1, 2);
      Comm::buffer_detach();
    } else {
      comm.recv(in.data(), static_cast<int>(in.size()), Datatype::int32(), 0,
                2);
    }
    // Eager stream: consumed credits flow back on credit-return helpers.
    std::vector<int> small(256, comm.rank());
    for (int i = 0; i < 64; ++i) {
      if (comm.rank() == 0) {
        comm.send(small.data(), 256, Datatype::int32(), 1, 3);
      } else {
        comm.recv(small.data(), 256, Datatype::int32(), 0, 3);
      }
    }
    // One-sided get: a reply helper on the target.
    mpi::Win win = mpi::Win::allocate(comm, 64);
    ASSERT_TRUE(win.fence().is_ok());
    std::int32_t fetched[4] = {};
    if (comm.rank() == 0) {
      ASSERT_TRUE(win.get(fetched, 4, mpi::RmaType::kInt32, 1, 0).is_ok());
    }
    ASSERT_TRUE(win.fence().is_ok());
    EXPECT_TRUE(win.free().is_ok());
  });
  session.finalize();
  EXPECT_GT(session.ch_mad()->credit_packets(), 0u);
  // finalize() has joined every thread, but the kernel may list a joined
  // thread for a moment longer (`before` may count one of an earlier
  // test's); a leaked one stays listed for good.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live_threads() > before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(live_threads(), before);
}

/// Threads a session starts, counted from inside its run: the executor's
/// worker threads, and the process's live threads less `before`. The
/// cluster is two nodes on SCI and TCP: two pollers each, plus the
/// watchdog sweep.
struct ThreadCensus {
  std::size_t started = 0;
  std::size_t live = 0;
  std::size_t after_finalize = 0;
};

ThreadCensus census_of_session(std::size_t before) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  sim::NetworkSpec tcp;
  tcp.protocol = sim::Protocol::kTcp;
  for (const auto& node : options.cluster.nodes) {
    tcp.members.push_back(node.name);
  }
  options.cluster.networks.push_back(std::move(tcp));
  Session session(std::move(options));
  EXPECT_NE(session.watchdog(), nullptr);
  ThreadCensus census;
  session.run([&](Comm comm) {
    std::vector<int> buffer(64 * 1024, comm.rank());  // rendezvous
    if (comm.rank() == 0) {
      comm.send(buffer.data(), 64 * 1024, Datatype::int32(), 1, 0);
    } else {
      comm.recv(buffer.data(), 64 * 1024, Datatype::int32(), 0, 0);
    }
    comm.barrier();
    if (comm.rank() == 0) {
      census.started = session.executor().workers_started();
      census.live = live_threads();
    }
    comm.barrier();
  });
  session.finalize();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live_threads() != before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  census.after_finalize = live_threads();
  return census;
}

TEST(MarcelExecutorSession, EveryLibraryThreadIsARankOrAWorker) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task";
  }
  const char* engine = std::getenv("MADMPI_ENGINE");
  const std::string saved_engine = engine != nullptr ? engine : "";
  const char* shards = std::getenv("MADMPI_SHARDS");
  const std::string saved_shards = shards != nullptr ? shards : "";
  // As above: let a sanitizer start its own thread first, then take the
  // lowest count over a short settle.
  std::thread([] {}).join();
  std::size_t before = live_threads();
  const auto settled =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (std::chrono::steady_clock::now() < settled) {
    before = std::min(before, live_threads());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    // The threaded engine: one OS thread per rank, and one worker per
    // poller plus the sweep; nothing for the rendezvous.
    SCOPED_TRACE("threaded");
    ::setenv("MADMPI_ENGINE", "threaded", 1);
    const ThreadCensus census = census_of_session(before);
    EXPECT_EQ(census.started, 5u);
    EXPECT_EQ(census.live, before + 2 + census.started);
    EXPECT_EQ(census.after_finalize, before);
  }
  {
    // One shard: the ranks and the four pollers are fibers of the one
    // shard worker, and the watchdog sweep is the only worker thread.
    SCOPED_TRACE("sharded, one shard");
    ::setenv("MADMPI_ENGINE", "sharded", 1);
    ::setenv("MADMPI_SHARDS", "1", 1);
    const ThreadCensus census = census_of_session(before);
    EXPECT_EQ(census.started, 1u);
    EXPECT_EQ(census.live, before + 1 + census.started);
    EXPECT_EQ(census.after_finalize, before);
  }
  if (engine != nullptr) {
    ::setenv("MADMPI_ENGINE", saved_engine.c_str(), 1);
  } else {
    ::unsetenv("MADMPI_ENGINE");
  }
  if (shards != nullptr) {
    ::setenv("MADMPI_SHARDS", saved_shards.c_str(), 1);
  } else {
    ::unsetenv("MADMPI_SHARDS");
  }
}

TEST(MarcelExecutorSession, RendezvousRunsItsHelpersInPlace) {
  // A rendezvous ack and data push run on the thread that handles the
  // packet, not on an executor worker: steady rendezvous traffic starts
  // none, on either engine.
  constexpr int kCount = 16 * 1024;  // 64 KiB: rendezvous
  constexpr int kRoundTrips = 50;
  const char* engine = std::getenv("MADMPI_ENGINE");
  const std::string saved_engine = engine != nullptr ? engine : "";
  for (const char* name : {"threaded", "sharded"}) {
    SCOPED_TRACE(name);
    ::setenv("MADMPI_ENGINE", name, 1);
    auto session = two_nodes(sim::Protocol::kSisci);
    const std::size_t started = session->executor().workers_started();
    session->run([](Comm comm) {
      const int peer = 1 - comm.rank();
      std::vector<int> out(kCount, comm.rank());
      std::vector<int> in(kCount, -1);
      for (int i = 0; i < kRoundTrips; ++i) {
        if (comm.rank() == 0) {
          comm.send(out.data(), kCount, Datatype::int32(), peer, i);
          comm.recv(in.data(), kCount, Datatype::int32(), peer, i);
        } else {
          comm.recv(in.data(), kCount, Datatype::int32(), peer, i);
          comm.send(out.data(), kCount, Datatype::int32(), peer, i);
        }
        ASSERT_EQ(in.front(), peer);
        ASSERT_EQ(in.back(), peer);
      }
    });
    EXPECT_EQ(session->ch_mad()->rendezvous_sent(), 2u * kRoundTrips);
    EXPECT_EQ(session->executor().workers_started(), started);
    session->finalize();
  }
  if (engine != nullptr) {
    ::setenv("MADMPI_ENGINE", saved_engine.c_str(), 1);
  } else {
    ::unsetenv("MADMPI_ENGINE");
  }
}

TEST(PackBuf, PackUnpackRoundTrip) {
  const auto i32 = Datatype::int32();
  const auto f64 = Datatype::float64();
  EXPECT_EQ(mpi::pack_size(3, i32), 12u);

  std::array<std::byte, 64> buffer;
  std::size_t position = 0;
  const int header[2] = {42, 7};
  const double payload[3] = {1.5, 2.5, 3.5};
  mpi::pack(header, 2, i32, buffer.data(), buffer.size(), &position);
  mpi::pack(payload, 3, f64, buffer.data(), buffer.size(), &position);
  EXPECT_EQ(position, 8u + 24u);

  std::size_t read = 0;
  int header_out[2] = {};
  double payload_out[3] = {};
  mpi::unpack(buffer.data(), position, &read, header_out, 2, i32);
  mpi::unpack(buffer.data(), position, &read, payload_out, 3, f64);
  EXPECT_EQ(read, position);
  EXPECT_EQ(header_out[0], 42);
  EXPECT_EQ(payload_out[2], 3.5);
}

TEST(PackBuf, OverflowAborts) {
  std::array<std::byte, 4> tiny;
  std::size_t position = 0;
  const double value = 1.0;
  EXPECT_DEATH(mpi::pack(&value, 1, Datatype::float64(), tiny.data(),
                         tiny.size(), &position),
               "overflow");
}

TEST(PackBuf, PackedBufferTravelsAsBytes) {
  auto session = two_nodes(sim::Protocol::kSisci);
  session->run([](Comm comm) {
    const auto i32 = Datatype::int32();
    const auto f32 = Datatype::float32();
    if (comm.rank() == 0) {
      std::array<std::byte, 32> wire;
      std::size_t position = 0;
      const int count = 3;
      const float values[3] = {1.0f, 2.0f, 4.0f};
      mpi::pack(&count, 1, i32, wire.data(), wire.size(), &position);
      mpi::pack(values, 3, f32, wire.data(), wire.size(), &position);
      comm.send(wire.data(), static_cast<int>(position), Datatype::byte(),
                1, 0);
    } else {
      std::array<std::byte, 32> wire;
      const auto status =
          comm.recv(wire.data(), 32, Datatype::byte(), 0, 0);
      std::size_t position = 0;
      int count = 0;
      mpi::unpack(wire.data(), status.bytes, &position, &count, 1, i32);
      ASSERT_EQ(count, 3);
      std::vector<float> values(3);
      mpi::unpack(wire.data(), status.bytes, &position, values.data(), 3,
                  f32);
      EXPECT_EQ(values[2], 4.0f);
    }
  });
}

}  // namespace
}  // namespace madmpi
