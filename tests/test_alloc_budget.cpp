// Heap budget of the inter-node eager path. This binary replaces the global
// operator new with a counting one, so it measures every heap block the
// library takes — the lane maps, frame queues, closures and packing lists
// that DatapathStats (which counts datapath buffers only) cannot see.
//
// A steady-state eager message costs one heap block: the RequestState its
// blocking receive allocates. Everything else — the lane lookup, the frame
// queues of the port and of the endpoint, the credit release, the packing
// list — runs on storage kept from earlier messages. The only other block
// is the lane of each credit return's temporary thread, one per half
// window of consumed bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/datapath_stats.hpp"
#include "core/pingpong.hpp"
#include "core/session.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_blocks{0};  // taken, ever
std::atomic<std::int64_t> g_live_blocks{0};   // taken and not yet freed

void free_block(void* block) {
  if (block != nullptr) g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

// Kept out of line: inlined into a caller, the free() of a block that
// caller got from operator new trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_heap_blocks.fetch_add(1, std::memory_order_relaxed);
  g_live_blocks.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(bytes == 0 ? 1 : bytes)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  free_block(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  free_block(block);
}

namespace madmpi {
namespace {

std::uint64_t heap_blocks() {
  return g_heap_blocks.load(std::memory_order_relaxed);
}

/// Heap blocks per message of a two-node SCI ping-pong in steady state.
/// Two measured runs of different lengths share every per-run cost (rank
/// threads or fibers, buffers, communicator handles), so the difference
/// between them is the per-message cost alone. The progress watchdog is
/// off: its sweep snapshots lanes at a host-time period, so its blocks
/// per message would follow the machine's load, not the message path.
double eager_heap_blocks_per_message(std::size_t bytes) {
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  options.watchdog_horizon_us = 0.0;
  core::Session session(std::move(options));
  constexpr int kShort = 500;
  constexpr int kLong = 1500;
  core::mpi_pingpong(session, bytes, kShort);  // settle pools and queues
  const std::uint64_t start = heap_blocks();
  core::mpi_pingpong(session, bytes, kShort);
  const std::uint64_t middle = heap_blocks();
  core::mpi_pingpong(session, bytes, kLong);
  const std::uint64_t end = heap_blocks();
  const auto short_run = static_cast<double>(middle - start);
  const auto long_run = static_cast<double>(end - middle);
  return (long_run - short_run) / (2.0 * (kLong - kShort));
}

TEST(AllocBudget, SteadyStateEagerMessageTakesOneHeapBlock) {
  // 256 B: aggregated into the control frame on SCI, the header+body pair
  // of one slab.
  const double per_message = eager_heap_blocks_per_message(256);
  EXPECT_GE(per_message, 1.0);
  EXPECT_LE(per_message, 1.01);
}

TEST(AllocBudget, SeparateBlockEagerMessageTakesOneHeapBlock) {
  // 4 KiB: the body leaves as its own data frame, the packing list's
  // separate block. A credit return every 16 messages adds its lane.
  const double per_message = eager_heap_blocks_per_message(4096);
  EXPECT_GE(per_message, 1.0);
  EXPECT_LE(per_message, 1.07);
}

TEST(AllocBudget, SessionWithoutWatchdogHoldsNoMoreHeapAsTrafficGrows) {
  // Every credit return runs as a temporary Marcel thread with a lane of
  // its own. The clock's lane registry must let go of those lanes even
  // when no watchdog sweep ever lists them.
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  options.watchdog_horizon_us = 0.0;
  core::Session session(std::move(options));
  core::mpi_pingpong(session, 4096, 1000);
  const std::int64_t settled = g_live_blocks.load();
  for (int round = 0; round < 4; ++round) {
    core::mpi_pingpong(session, 4096, 1000);
  }
  // 8,000 more messages and 500 more credit returns: the registry may
  // have regrown once, nothing more.
  EXPECT_LE(g_live_blocks.load() - settled, 64);
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(AllocBudget, AlltoallSlabAllocationsLevelOffAfterWarmUp) {
  // 32 ranks on the meta-cluster, 256 B per peer, on one shard of the
  // fiber engine (one replayable schedule on either ctest pass). The pool
  // keeps every slab it gets back, so an iteration takes fresh slabs only
  // when it holds more of a class at once than any earlier one did; this
  // schedule's peak shows within the first few iterations. A pool that
  // frees recycled slabs instead carves hundreds afresh every iteration.
  ScopedEnv engine("MADMPI_ENGINE", "sharded");
  ScopedEnv shards("MADMPI_SHARDS", "1");
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2, 8);
  core::Session session(std::move(options));
  constexpr int kIterations = 16;
  constexpr int kBytes = 256;
  const std::uint64_t before = DatapathStats::global().snapshot().slab_allocs;
  std::vector<std::uint64_t> slab_allocs;
  session.run([&](mpi::Comm comm) {
    const int n = comm.size();
    std::vector<std::uint8_t> out(static_cast<std::size_t>(n) * kBytes);
    std::vector<std::uint8_t> in(out.size());
    for (int i = 0; i < kIterations; ++i) {
      for (std::size_t b = 0; b < out.size(); ++b) {
        out[b] = static_cast<std::uint8_t>(comm.rank() + i + b);
      }
      EXPECT_TRUE(comm.alltoall(out.data(), kBytes, mpi::Datatype::uint8(),
                                in.data(), kBytes, mpi::Datatype::uint8())
                      .is_ok());
      for (int peer = 0; peer < n; ++peer) {
        const std::size_t at = static_cast<std::size_t>(peer) * kBytes;
        EXPECT_EQ(in[at], static_cast<std::uint8_t>(
                              peer + i + static_cast<int>(comm.rank()) *
                                             kBytes));
      }
      EXPECT_TRUE(comm.barrier().is_ok());
      if (comm.rank() == 0) {
        slab_allocs.push_back(DatapathStats::global().snapshot().slab_allocs);
      }
      EXPECT_TRUE(comm.barrier().is_ok());
    }
  });
  ASSERT_EQ(slab_allocs.size(), static_cast<std::size_t>(kIterations));
  const std::uint64_t first = slab_allocs.front() - before;
  const std::uint64_t after_first = slab_allocs.back() - slab_allocs.front();
  // Every later iteration together takes fewer than the first one did...
  EXPECT_LT(after_first, first);
  // ...and the second half of the loop takes none at all.
  for (int i = kIterations / 2; i < kIterations; ++i) {
    EXPECT_EQ(slab_allocs[static_cast<std::size_t>(i)],
              slab_allocs[kIterations / 2 - 1])
        << "fresh slabs in iteration " << i;
  }
}

}  // namespace
}  // namespace madmpi
