// Tests for the Marcel-like thread layer: request hand-offs, poll server,
// and the executor's in-place tasks and loops.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "marcel/executor.hpp"
#include "marcel/poll_server.hpp"
#include "mpi/request.hpp"

namespace madmpi::marcel {
namespace {

// The completion hand-off the devices park on (a rendezvous sender waiting
// for its match): the waiter's lane wakes at the completer's stamp.
TEST(RequestState, WaiterClockSyncsToCompleter) {
  sim::Node node(0, "n", 2);
  auto request = std::make_shared<mpi::RequestState>(node);
  EXPECT_EQ(node.clock().now(), 0.0);  // the waiter's lane
  std::thread completer([&] {
    node.clock().advance(100.0);  // the completer's lane runs ahead
    mpi::RequestState::complete(request, {});
  });
  request->wait();
  completer.join();
  EXPECT_DOUBLE_EQ(node.clock().now(),
                   100.0 + ThreadCosts::kSemSignal + ThreadCosts::kWake);
}

TEST(RequestState, CrossThreadHandoff) {
  sim::Node node(0, "n", 2);
  auto request = std::make_shared<mpi::RequestState>(node);
  std::atomic<bool> released{false};
  std::thread completer([&] {
    released = true;
    mpi::RequestState::complete(request, {});
  });
  request->wait();
  EXPECT_TRUE(released.load());
  completer.join();
}

TEST(PollServer, CreationChargesMarcelCost) {
  sim::Node node(0, "n", 2);
  Executor executor;
  node.clock().advance(40.0);
  const usec_t before = node.clock().now();
  usec_t born = -1.0;
  {
    PollServer server(node, executor);
    server.add_poller(1, 1.0, [&](PollServer::Poller&) {
      born = node.clock().now();
      return false;
    });
    server.join();
  }
  // The creator paid the Marcel thread-create cost, and the poller's lane
  // started at that stamp.
  EXPECT_DOUBLE_EQ(node.clock().now(), before + ThreadCosts::kCreate);
  EXPECT_DOUBLE_EQ(born, before + ThreadCosts::kCreate);
}

TEST(PollServer, JoinsOnDestruction) {
  sim::Node node(0, "n", 2);
  Executor executor;
  std::atomic<bool> ran{false};
  {
    PollServer server(node, executor);
    server.add_poller(1, 1.0, [&](PollServer::Poller&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ran = true;
      return false;
    });
  }
  EXPECT_TRUE(ran.load());
}

TEST(PollServer, PollersRegisterAndUnregisterOnNode) {
  sim::Node node(0, "n", 2);
  Executor executor;
  {
    PollServer server(node, executor);
    std::atomic<int> remaining{3};
    server.add_poller(7, 15.0,
                      [&](PollServer::Poller&) { return --remaining > 0; });
    EXPECT_EQ(server.poller_count(), 1u);
    server.join();
  }
  // After the poller exits it must have unregistered itself.
  EXPECT_EQ(node.active_pollers(), 0u);
}

TEST(PollServer, WakeupChargesWakePlusInterference) {
  sim::Node node(0, "n", 2);
  Executor executor;
  PollServer server(node, executor);
  node.register_poller(1, 15.0);  // a concurrent TCP-ish poller
  node.register_poller(2, 0.4);   // the channel being handled
  PollServer::Poller poller;
  poller.channel = 2;
  const usec_t before = node.clock().now();
  const usec_t charged = server.charge_wakeup(poller);
  EXPECT_DOUBLE_EQ(charged, ThreadCosts::kWake + 0.5 * 15.0);
  EXPECT_DOUBLE_EQ(node.clock().now(), before + charged);
}

TEST(PollServer, MultiplePollersRunConcurrently) {
  sim::Node node(0, "n", 2);
  Executor executor;
  PollServer server(node, executor);
  std::atomic<int> alive{0};
  std::atomic<int> peak{0};
  std::atomic<bool> release{false};
  for (channel_id_t c = 0; c < 3; ++c) {
    server.add_poller(c, 1.0, [&](PollServer::Poller&) {
      const int now = ++alive;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      while (!release.load()) std::this_thread::yield();
      return false;  // one iteration then exit
    });
  }
  while (alive.load() < 3) std::this_thread::yield();
  release = true;
  server.join();
  EXPECT_EQ(peak.load(), 3);
}

TEST(MarcelExecutor, RunHereBirthsATaskLaneOnTheCallingThread) {
  sim::Node node(0, "n", 2);
  // The caller runs under a lane map of its own, as a fiber slice does.
  sim::VirtualClock::LaneMap caller_lanes;
  sim::VirtualClock::LaneMap* outer =
      sim::VirtualClock::exchange_lane_map(&caller_lanes);
  node.clock().advance(40.0);
  const usec_t caller = node.clock().now();
  // Another lane far ahead: the task is born from its caller's lane, not
  // from the clock's high-water mark.
  std::thread([&node] { node.clock().advance(1000.0); }).join();
  ASSERT_GT(node.clock().high_water(), caller + 100.0);
  const std::size_t lanes_before = node.clock().lanes().size();
  std::thread::id ran_on;
  usec_t born = -1.0;
  std::size_t lanes_during = 0;
  sim::VirtualClock::LaneMap* map_during = nullptr;
  Executor::run_here(node, 3.0, [&] {
    ran_on = std::this_thread::get_id();
    born = node.clock().now();
    lanes_during = node.clock().lanes().size();
    map_during = sim::VirtualClock::exchange_lane_map(nullptr);
    sim::VirtualClock::exchange_lane_map(map_during);
    node.clock().advance(50.0);  // the task's own lane, not the caller's
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_DOUBLE_EQ(born, caller + 3.0);
  EXPECT_DOUBLE_EQ(node.clock().now(), caller + 3.0);  // caller paid cost
  EXPECT_EQ(lanes_during, lanes_before + 1);
  EXPECT_NE(map_during, &caller_lanes);
  EXPECT_EQ(node.clock().lanes().size(), lanes_before);  // task lane gone
  // The caller's lane map is back in place.
  EXPECT_EQ(sim::VirtualClock::exchange_lane_map(outer), &caller_lanes);
}

TEST(MarcelExecutor, JoinReturnsOnlyAfterTheLoopReturned) {
  std::atomic<bool> release{false};
  std::atomic<bool> loop_returned{false};
  std::atomic<bool> joined{false};
  Executor executor;
  executor.loop([&] {
    while (!release.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    loop_returned = true;
  });
  std::thread joiner([&] {
    executor.join();
    joined = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(joined.load());
  release = true;
  joiner.join();
  EXPECT_TRUE(loop_returned.load());
}

}  // namespace
}  // namespace madmpi::marcel
