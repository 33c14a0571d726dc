// Tests for the per-rank matching engine (posted/unexpected queues).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/datapath_stats.hpp"
#include "marcel/executor.hpp"
#include "mpi/matching.hpp"
#include "sim/cost_model.hpp"

namespace madmpi::mpi {
namespace {

struct MatchFixture : ::testing::Test {
  sim::Node node{0, "n0", 2};
  RankContext context{0, node};

  static Envelope envelope(int ctx, rank_t src, int tag, std::uint64_t bytes) {
    Envelope env;
    env.context = ctx;
    env.src = src;
    env.tag = tag;
    env.bytes = bytes;
    return env;
  }

  std::shared_ptr<RequestState> post(int ctx, rank_t src, int tag,
                                     void* buffer, std::size_t capacity) {
    auto state = std::make_shared<RequestState>(node);
    PostedRecv posted;
    posted.context = ctx;
    posted.source = src;
    posted.tag = tag;
    posted.buffer = buffer;
    posted.type = Datatype::byte();
    posted.count = static_cast<int>(capacity);
    posted.capacity_bytes = capacity;
    posted.request = state;
    posted.posted_at = node.clock().now();  // as Comm::irecv stamps it
    context.post_recv(std::move(posted));
    return state;
  }

  static byte_span bytes_of(const char* text) {
    return byte_span{reinterpret_cast<const std::byte*>(text),
                     std::strlen(text)};
  }

  /// A completion as the request's hook saw it. Receives in the cancel
  /// tests carry distinct tags, so the tag names the receive.
  struct Completion {
    int tag = 0;
    ErrorCode error = ErrorCode::kOk;
    usec_t at = 0.0;  // node clock inside the hook
  };
  std::vector<Completion> completions;
  char sink[8] = {};

  /// Queue a receive carrying the watchdog fields, with a completion hook
  /// that records (tag, error, node clock) into `completions`.
  std::shared_ptr<RequestState> post_recorded(int ctx, rank_t src, int tag,
                                              rank_t source_global,
                                              usec_t posted_at,
                                              usec_t ft_deadline_us = 0.0) {
    auto state = std::make_shared<RequestState>(node);
    state->set_on_complete([this](const MpiStatus& status) {
      completions.push_back({status.tag, status.error, node.clock().now()});
    });
    PostedRecv posted;
    posted.context = ctx;
    posted.source = src;
    posted.tag = tag;
    posted.buffer = sink;
    posted.type = Datatype::byte();
    posted.count = sizeof sink;
    posted.capacity_bytes = sizeof sink;
    posted.request = state;
    posted.source_global = source_global;
    posted.posted_at = posted_at;
    posted.ft_deadline_us = ft_deadline_us;
    context.post_recv(std::move(posted));
    return state;
  }

  /// The completion expected for a cancellation stamped at `stamp`: the
  /// completer pays the Marcel signal cost before the hook runs.
  static Completion cancelled(int tag, ErrorCode error, usec_t stamp) {
    return {tag, error, stamp + marcel::ThreadCosts::kSemSignal};
  }

  void expect_completions(const std::vector<Completion>& expected) {
    ASSERT_EQ(completions.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(completions[i].tag, expected[i].tag) << "completion " << i;
      EXPECT_EQ(completions[i].error, expected[i].error) << "completion " << i;
      EXPECT_DOUBLE_EQ(completions[i].at, expected[i].at) << "completion " << i;
    }
  }

  /// The survivor of a cancellation still matches a later delivery, and —
  /// with the wildcard victim gone — the delivery stays on its bucket lock.
  void expect_survivor_matches(int ctx, rank_t src, int tag,
                               const std::shared_ptr<RequestState>& survivor) {
    const DatapathSnapshot before = DatapathStats::global().snapshot();
    context.deliver_eager(envelope(ctx, src, tag, 1), bytes_of("s"));
    const DatapathSnapshot delta = DatapathStats::global().snapshot() - before;
    MpiStatus status;
    ASSERT_TRUE(survivor->test(&status));
    EXPECT_EQ(status.error, ErrorCode::kOk);
    EXPECT_EQ(status.tag, tag);
    EXPECT_EQ(delta.match_rank_locks, 0u);
    EXPECT_EQ(context.posted_count(), 0u);
  }
};

TEST_F(MatchFixture, PostedThenDelivered) {
  char buffer[16] = {};
  auto request = post(0, 1, 5, buffer, sizeof buffer);
  EXPECT_EQ(context.posted_count(), 1u);
  context.deliver_eager(envelope(0, 1, 5, 5), bytes_of("hello"));
  ASSERT_TRUE(request->completed());
  MpiStatus status;
  EXPECT_TRUE(request->test(&status));
  EXPECT_EQ(status.source, 1);
  EXPECT_EQ(status.tag, 5);
  EXPECT_EQ(status.bytes, 5u);
  EXPECT_STREQ(buffer, "hello");
  EXPECT_EQ(context.posted_count(), 0u);
}

TEST_F(MatchFixture, DeliveredThenPosted) {
  context.deliver_eager(envelope(0, 2, 9, 3), bytes_of("abc"));
  EXPECT_EQ(context.unexpected_count(), 1u);
  char buffer[8] = {};
  auto request = post(0, 2, 9, buffer, sizeof buffer);
  EXPECT_TRUE(request->completed());
  EXPECT_STREQ(buffer, "abc");
  EXPECT_EQ(context.unexpected_count(), 0u);
}

TEST_F(MatchFixture, WildcardSourceAndTag) {
  char buffer[8] = {};
  auto request = post(0, kAnySource, kAnyTag, buffer, sizeof buffer);
  context.deliver_eager(envelope(0, 3, 77, 2), bytes_of("zz"));
  MpiStatus status;
  ASSERT_TRUE(request->test(&status));
  EXPECT_EQ(status.source, 3);
  EXPECT_EQ(status.tag, 77);
}

TEST_F(MatchFixture, ContextSegregation) {
  char buffer[8] = {};
  auto request = post(7, kAnySource, kAnyTag, buffer, sizeof buffer);
  context.deliver_eager(envelope(8, 0, 0, 1), bytes_of("x"));
  EXPECT_FALSE(request->completed());
  EXPECT_EQ(context.unexpected_count(), 1u);
  context.deliver_eager(envelope(7, 0, 0, 1), bytes_of("y"));
  EXPECT_TRUE(request->completed());
}

TEST_F(MatchFixture, FifoWithinSourceAndTag) {
  context.deliver_eager(envelope(0, 1, 5, 1), bytes_of("a"));
  context.deliver_eager(envelope(0, 1, 5, 1), bytes_of("b"));
  char first = 0, second = 0;
  post(0, 1, 5, &first, 1);
  post(0, 1, 5, &second, 1);
  EXPECT_EQ(first, 'a');  // non-overtaking
  EXPECT_EQ(second, 'b');
}

TEST_F(MatchFixture, PostedQueueScansInPostOrder) {
  char first = 0, second = 0;
  auto r1 = post(0, kAnySource, kAnyTag, &first, 1);
  auto r2 = post(0, kAnySource, kAnyTag, &second, 1);
  context.deliver_eager(envelope(0, 0, 0, 1), bytes_of("x"));
  EXPECT_TRUE(r1->completed());
  EXPECT_FALSE(r2->completed());
}

TEST_F(MatchFixture, TruncationDeliversPrefixAndErrorStatus) {
  char tiny[2] = {};
  auto request = post(0, kAnySource, kAnyTag, tiny, sizeof tiny);
  context.deliver_eager(envelope(0, 0, 0, 10), bytes_of("0123456789"));
  MpiStatus status;
  ASSERT_TRUE(request->test(&status));
  EXPECT_EQ(status.error, ErrorCode::kTruncated);
  EXPECT_EQ(status.bytes, 2u);  // the prefix that fit
  EXPECT_EQ(tiny[0], '0');
  EXPECT_EQ(tiny[1], '1');
}

TEST_F(MatchFixture, ZeroByteMessages) {
  char buffer[1] = {42};
  auto request = post(0, 0, 0, buffer, 0);
  context.deliver_eager(envelope(0, 0, 0, 0), {});
  MpiStatus status;
  ASSERT_TRUE(request->test(&status));
  EXPECT_EQ(status.bytes, 0u);
  EXPECT_EQ(status.count(4), 0);
  EXPECT_EQ(buffer[0], 42);
}

TEST_F(MatchFixture, StatusCountArithmetic) {
  MpiStatus status;
  status.bytes = 12;
  EXPECT_EQ(status.count(4), 3);
  EXPECT_EQ(status.count(8), -1);  // MPI_UNDEFINED
  EXPECT_EQ(status.count(1), 12);
}

TEST_F(MatchFixture, RendezvousMatchRunsOnPost) {
  bool matched = false;
  context.deliver_rendezvous(envelope(0, 1, 3, 100),
                             [&](const Envelope& env, PostedRecv posted) {
                               matched = true;
                               EXPECT_EQ(env.src, 1);
                               EXPECT_EQ(posted.capacity_bytes, 128u);
                             });
  EXPECT_FALSE(matched);
  EXPECT_EQ(context.unexpected_count(), 1u);
  char buffer[128];
  post(0, 1, 3, buffer, sizeof buffer);
  EXPECT_TRUE(matched);
  EXPECT_EQ(context.unexpected_count(), 0u);
}

TEST_F(MatchFixture, RendezvousMatchRunsImmediatelyWhenPosted) {
  char buffer[64];
  auto request = post(0, kAnySource, kAnyTag, buffer, sizeof buffer);
  bool matched = false;
  context.deliver_rendezvous(envelope(0, 2, 2, 10),
                             [&](const Envelope&, PostedRecv) {
                               matched = true;
                             });
  EXPECT_TRUE(matched);
  EXPECT_FALSE(request->completed());  // completion comes with the data
}

TEST_F(MatchFixture, IprobeSeesOnlyUnexpected) {
  EXPECT_FALSE(context.iprobe(0, kAnySource, kAnyTag, nullptr));
  context.deliver_eager(envelope(0, 4, 11, 3), bytes_of("xyz"));
  MpiStatus status;
  ASSERT_TRUE(context.iprobe(0, 4, 11, &status));
  EXPECT_EQ(status.source, 4);
  EXPECT_EQ(status.bytes, 3u);
  // Probe does not consume.
  EXPECT_TRUE(context.iprobe(0, kAnySource, kAnyTag, nullptr));
  EXPECT_FALSE(context.iprobe(0, 5, kAnyTag, nullptr));
  EXPECT_FALSE(context.iprobe(1, kAnySource, kAnyTag, nullptr));
}

TEST_F(MatchFixture, BlockingProbeWakesOnArrival) {
  std::thread deliverer([&] {
    context.deliver_eager(envelope(0, 1, 8, 1), bytes_of("k"));
  });
  MpiStatus status;
  context.probe(0, kAnySource, 8, kInvalidRank, &status);
  EXPECT_EQ(status.tag, 8);
  deliverer.join();
}

TEST_F(MatchFixture, EagerCopiesChargeTheClock) {
  const usec_t before = node.clock().now();
  std::vector<std::byte> big(10000, std::byte{1});
  context.deliver_eager(envelope(0, 0, 0, big.size()),
                        byte_span{big.data(), big.size()});
  const usec_t after_store = node.clock().now();
  EXPECT_GT(after_store, before);  // copy into the unexpected store
  std::vector<char> buffer(big.size());
  post(0, 0, 0, buffer.data(), buffer.size());
  EXPECT_GT(node.clock().now(), after_store);  // copy out to the user
}

// A receive the poller missed on the host but that was posted no later
// than the delivery in virtual time completes as if matched there: no copy
// out of the store. Only a message that arrived first pays it.
TEST_F(MatchFixture, StoreCopyOutFollowsVirtualOrder) {
  const usec_t copy = 8 * sim::kHostCopyUsPerByte;
  const usec_t delivered = node.clock().now();
  context.deliver_eager(envelope(0, 1, 1, 8), bytes_of("abcdefgh"));
  const usec_t stored = node.clock().now();
  EXPECT_DOUBLE_EQ(stored, delivered + copy);
  post_recorded(0, 1, 1, 1, /*posted_at=*/delivered);

  context.deliver_eager(envelope(0, 1, 2, 8), bytes_of("abcdefgh"));
  const usec_t late_post = node.clock().now();
  post_recorded(0, 1, 2, 1, late_post);
  expect_completions(
      {{1, ErrorCode::kOk, stored + marcel::ThreadCosts::kSemSignal},
       {2, ErrorCode::kOk,
        late_post + copy + marcel::ThreadCosts::kSemSignal}});
}

TEST_F(MatchFixture, RequestWaitAfterTestReturnsSameStatus) {
  char buffer[4];
  auto request = post(0, 0, 1, buffer, sizeof buffer);
  context.deliver_eager(envelope(0, 0, 1, 2), bytes_of("hi"));
  MpiStatus via_test;
  ASSERT_TRUE(request->test(&via_test));
  const MpiStatus via_wait = request->wait();
  EXPECT_EQ(via_wait.bytes, via_test.bytes);
  EXPECT_EQ(via_wait.tag, via_test.tag);
}

TEST_F(MatchFixture, TestBeforeCompletionReturnsFalse) {
  char buffer[4];
  auto request = post(0, 0, 1, buffer, sizeof buffer);
  EXPECT_FALSE(request->test(nullptr));
  EXPECT_FALSE(request->completed());
}

TEST_F(MatchFixture, ImprobeRemovesFromQueue) {
  context.deliver_eager(envelope(0, 1, 5, 3), bytes_of("one"));
  context.deliver_eager(envelope(0, 1, 5, 3), bytes_of("two"));
  EXPECT_EQ(context.unexpected_count(), 2u);

  MatchedMessage message;
  MpiStatus status;
  ASSERT_TRUE(context.improbe(0, 1, 5, &message, &status));
  EXPECT_TRUE(message.valid());
  EXPECT_EQ(status.source, 1);
  EXPECT_EQ(status.tag, 5);
  EXPECT_EQ(status.bytes, 3u);
  // The matched entry is gone: a plain recv now gets the SECOND message.
  EXPECT_EQ(context.unexpected_count(), 1u);
  char second[4] = {};
  post(0, 1, 5, second, sizeof second);
  EXPECT_STREQ(second, "two");

  // mrecv completes the first message into its own buffer.
  char first[4] = {};
  auto state = std::make_shared<RequestState>(node);
  PostedRecv posted;
  posted.context = 0;
  posted.source = 1;
  posted.tag = 5;
  posted.buffer = first;
  posted.type = Datatype::byte();
  posted.count = sizeof first;
  posted.capacity_bytes = sizeof first;
  posted.request = state;
  context.mrecv(std::move(message), std::move(posted));
  ASSERT_TRUE(state->completed());
  EXPECT_STREQ(first, "one");
  EXPECT_EQ(context.unexpected_count(), 0u);
}

TEST_F(MatchFixture, ImprobeMissLeavesHandleInvalid) {
  MatchedMessage message;
  MpiStatus status;
  EXPECT_FALSE(context.improbe(0, 1, 5, &message, &status));
  EXPECT_FALSE(message.valid());
  context.deliver_eager(envelope(0, 2, 6, 1), bytes_of("x"));
  // A specific pattern for a different (source, tag) still misses.
  EXPECT_FALSE(context.improbe(0, 1, 5, &message, &status));
  EXPECT_FALSE(context.improbe(0, 2, 7, &message, &status));
  EXPECT_EQ(context.unexpected_count(), 1u);
}

TEST_F(MatchFixture, ImprobeWildcardTakesLowestSeq) {
  context.deliver_eager(envelope(0, 4, 9, 1), bytes_of("a"));
  context.deliver_eager(envelope(0, 2, 3, 1), bytes_of("b"));
  MatchedMessage message;
  MpiStatus status;
  ASSERT_TRUE(context.improbe(0, kAnySource, kAnyTag, &message, &status));
  // Arrival order wins across buckets, exactly like a wildcard recv.
  EXPECT_EQ(status.source, 4);
  EXPECT_EQ(status.tag, 9);
}

TEST_F(MatchFixture, MprobeBlocksUntilArrival) {
  MatchedMessage message;
  MpiStatus status;
  std::thread sender([&] {
    context.deliver_eager(envelope(0, 1, 2, 2), bytes_of("hi"));
  });
  context.mprobe(0, 1, 2, /*source_global=*/1, &message, &status);
  sender.join();
  ASSERT_TRUE(message.valid());
  EXPECT_EQ(status.bytes, 2u);
  EXPECT_EQ(context.unexpected_count(), 0u);

  char buffer[4] = {};
  auto state = std::make_shared<RequestState>(node);
  PostedRecv posted;
  posted.context = 0;
  posted.source = 1;
  posted.tag = 2;
  posted.buffer = buffer;
  posted.type = Datatype::byte();
  posted.count = sizeof buffer;
  posted.capacity_bytes = sizeof buffer;
  posted.request = state;
  context.mrecv(std::move(message), std::move(posted));
  EXPECT_STREQ(buffer, "hi");
}

TEST_F(MatchFixture, MovedFromHandleReadsInvalid) {
  context.deliver_eager(envelope(0, 1, 5, 1), bytes_of("x"));
  MatchedMessage message;
  MpiStatus status;
  ASSERT_TRUE(context.improbe(0, 1, 5, &message, &status));
  MatchedMessage stolen = std::move(message);
  EXPECT_FALSE(message.valid());
  EXPECT_TRUE(stolen.valid());
  char buffer[2] = {};
  auto state = std::make_shared<RequestState>(node);
  PostedRecv posted;
  posted.context = 0;
  posted.source = 1;
  posted.tag = 5;
  posted.buffer = buffer;
  posted.type = Datatype::byte();
  posted.count = sizeof buffer;
  posted.capacity_bytes = sizeof buffer;
  posted.request = state;
  context.mrecv(std::move(stolen), std::move(posted));
  EXPECT_STREQ(buffer, "x");
}

TEST_F(MatchFixture, CountersTrackQueueDepths) {
  EXPECT_EQ(context.posted_count(), 0u);
  EXPECT_EQ(context.unexpected_count(), 0u);
  EXPECT_EQ(context.unexpected_bytes(), 0u);
  char a = 0, b = 0;
  post(0, 1, 1, &a, 1);
  post(0, kAnySource, kAnyTag, &b, 1);
  EXPECT_EQ(context.posted_count(), 2u);
  context.deliver_eager(envelope(0, 5, 99, 4), bytes_of("four"));
  EXPECT_EQ(context.posted_count(), 1u);  // wildcard consumed
  context.deliver_eager(envelope(0, 1, 1, 4), bytes_of("tail"));
  EXPECT_EQ(context.posted_count(), 0u);  // specific consumed
  context.deliver_eager(envelope(0, 7, 1, 4), bytes_of("rest"));
  EXPECT_EQ(context.unexpected_count(), 1u);
  // Charged bytes include the per-entry bookkeeping overhead.
  EXPECT_GE(context.unexpected_bytes(), 4u);
  char buffer[8] = {};
  post(0, 7, 1, buffer, sizeof buffer);
  EXPECT_EQ(context.unexpected_count(), 0u);
  EXPECT_EQ(context.unexpected_bytes(), 0u);
}

// ------------------------------------------------------------ cancellation
//
// Each cancel queues victims in a bucket and in the wildcard list around a
// non-victim, and checks: completions in post order, each with its error
// code and deterministic stamp; posted_count() down by exactly the victims;
// the non-victim still matching, without the rank lock.

TEST_F(MatchFixture, CancelUnreachableCompletesDeadPeersInPostOrder) {
  constexpr usec_t kHorizon = 1000.0;
  context.set_watchdog(kHorizon, [](rank_t peer) { return peer == 3; });
  post_recorded(0, 3, 1, /*source_global=*/3, /*posted_at=*/10.0);
  post_recorded(0, kAnySource, 2, /*source_global=*/3, 20.0);
  auto survivor = post_recorded(0, 2, 3, /*source_global=*/2, 30.0);
  post_recorded(0, 3, 4, /*source_global=*/3, 40.0);
  post_recorded(0, 4, 5, /*source_global=*/kInvalidRank, 50.0);
  ASSERT_EQ(context.posted_count(), 5u);

  EXPECT_EQ(context.cancel_unreachable(ErrorCode::kTimedOut), 3u);
  expect_completions({cancelled(1, ErrorCode::kTimedOut, 10.0 + kHorizon),
                      cancelled(2, ErrorCode::kTimedOut, 20.0 + kHorizon),
                      cancelled(4, ErrorCode::kTimedOut, 40.0 + kHorizon)});
  EXPECT_EQ(context.posted_count(), 2u);
  EXPECT_EQ(context.cancel_unreachable(ErrorCode::kTimedOut), 0u);

  // Drop the receive no detector can judge, then match the survivor.
  context.deliver_eager(envelope(0, 4, 5, 1), bytes_of("x"));
  expect_survivor_matches(0, 2, 3, survivor);
}

TEST_F(MatchFixture, CancelUnreachableWithoutDetectorCancelsNothing) {
  post_recorded(0, 3, 1, /*source_global=*/3, 10.0);
  EXPECT_EQ(context.cancel_unreachable(ErrorCode::kTimedOut), 0u);
  EXPECT_TRUE(completions.empty());
  EXPECT_EQ(context.posted_count(), 1u);
}

TEST_F(MatchFixture, CancelExpiredTakesTheCohortAtOrBelowTheWindow) {
  post_recorded(0, 1, 1, 1, /*posted_at=*/5.0, /*ft_deadline_us=*/100.0);
  post_recorded(0, kAnySource, 2, kInvalidRank, 6.0, 50.0);
  auto newer = post_recorded(0, 1, 3, 1, 7.0, 500.0);
  post_recorded(0, 1, 4, 1, 8.0, 200.0);
  auto plain = post_recorded(0, 2, 5, 2, 9.0);  // carries no deadline
  ASSERT_EQ(context.posted_count(), 5u);

  EXPECT_EQ(context.cancel_expired(ErrorCode::kProcFailed, 200.0), 3u);
  // Post order, not deadline order; each stamped at its own deadline.
  expect_completions({cancelled(1, ErrorCode::kProcFailed, 100.0),
                      cancelled(2, ErrorCode::kProcFailed, 50.0),
                      cancelled(4, ErrorCode::kProcFailed, 200.0)});
  EXPECT_EQ(context.posted_count(), 2u);

  context.deliver_eager(envelope(0, 2, 5, 1), bytes_of("x"));
  EXPECT_TRUE(plain->completed());
  expect_survivor_matches(0, 1, 3, newer);
}

TEST_F(MatchFixture, MinFtDeadlineIsTheSmallestOrZero) {
  EXPECT_EQ(context.min_ft_deadline(), 0.0);
  post_recorded(0, 1, 1, 1, 0.0);
  post_recorded(0, kAnySource, 2, kInvalidRank, 0.0);
  EXPECT_EQ(context.min_ft_deadline(), 0.0);  // none carries a deadline
  post_recorded(0, 1, 3, 1, 0.0, 300.0);
  EXPECT_EQ(context.min_ft_deadline(), 300.0);
  post_recorded(0, kAnySource, 4, kInvalidRank, 0.0, 70.0);
  post_recorded(0, 2, 5, 2, 0.0, 90.0);
  EXPECT_EQ(context.min_ft_deadline(), 70.0);
  EXPECT_EQ(context.posted_count(), 5u);  // reading it removes nothing
}

TEST_F(MatchFixture, CancelContextStampsAtPostTime) {
  post_recorded(5, 1, 1, 1, /*posted_at=*/11.0);
  post_recorded(5, kAnySource, 2, kInvalidRank, 12.0);
  auto survivor = post_recorded(6, 1, 3, 1, 13.0);
  post_recorded(5, 2, 4, 2, 14.0);
  ASSERT_EQ(context.posted_count(), 4u);

  EXPECT_EQ(context.cancel_context(5, ErrorCode::kRevoked), 3u);
  expect_completions({cancelled(1, ErrorCode::kRevoked, 11.0),
                      cancelled(2, ErrorCode::kRevoked, 12.0),
                      cancelled(4, ErrorCode::kRevoked, 14.0)});
  EXPECT_EQ(context.posted_count(), 1u);
  EXPECT_EQ(context.cancel_context(5, ErrorCode::kRevoked), 0u);
  expect_survivor_matches(6, 1, 3, survivor);
}

TEST_F(MatchFixture, CancelPostedStampsAtTheCallersLane) {
  auto in_bucket = post_recorded(0, 1, 1, 1, 0.0);
  auto wildcard = post_recorded(0, kAnySource, 2, kInvalidRank, 0.0);
  auto survivor = post_recorded(0, 1, 3, 1, 0.0);
  ASSERT_EQ(context.posted_count(), 3u);

  node.clock().advance(25.0);
  const usec_t first_at = node.clock().now();
  EXPECT_TRUE(context.cancel_posted(in_bucket.get()));
  EXPECT_EQ(context.posted_count(), 2u);
  node.clock().advance(25.0);
  const usec_t second_at = node.clock().now();
  EXPECT_TRUE(context.cancel_posted(wildcard.get()));
  EXPECT_EQ(context.posted_count(), 1u);
  expect_completions({cancelled(1, ErrorCode::kCancelled, first_at),
                      cancelled(2, ErrorCode::kCancelled, second_at)});

  // Already gone: cancellation loses, nothing completes twice.
  EXPECT_FALSE(context.cancel_posted(in_bucket.get()));
  EXPECT_FALSE(context.cancel_posted(wildcard.get()));
  EXPECT_EQ(completions.size(), 2u);
  expect_survivor_matches(0, 1, 3, survivor);
}

}  // namespace
}  // namespace madmpi::mpi
