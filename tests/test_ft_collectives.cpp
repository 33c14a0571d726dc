// Fault-tolerant collectives: survivable multicast under link/rank
// failures, uniform error agreement, and the ULFM-style
// revoke/shrink/agree recovery path (plus the MPIX compat facade).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <vector>

#include "core/session.hpp"
#include "mpi/compat.hpp"
#include "sim/fault.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

std::shared_ptr<sim::FaultPlan> install_plan(Session& session,
                                             node_id_t node,
                                             std::uint64_t seed) {
  auto plan = std::make_shared<sim::FaultPlan>(seed);
  sim::Nic* nic = session.fabric().find_nic(node, sim::Protocol::kTcp);
  EXPECT_NE(nic, nullptr);
  nic->mutable_model().fault_plan = plan;
  return plan;
}

/// Kill `victim` both ways: outbound rules live on the victim's NIC,
/// inbound ones on every other node's NIC (fault rules apply to frames
/// *departing* the NIC that carries the plan).
void kill_node(Session& session, int nodes, node_id_t victim, usec_t at) {
  for (node_id_t node = 0; node < nodes; ++node) {
    auto plan = install_plan(session, node, 0);
    if (node == victim) {
      plan->kill_at(at);
    } else {
      plan->kill_at(at, node, victim);
    }
  }
}

void enable_ft(Comm& comm) {
  mpi::CollectiveConfig config;
  config.fault_tolerant = true;
  comm.set_collective_config(config);
}

std::unique_ptr<Session> tcp_quad() {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kTcp);
  return std::make_unique<Session>(std::move(options));
}

TEST(FtConfig, KnobDefaultsKeepFtOff) {
  // Without MADMPI_FT_COLLECTIVES in the environment the fault-free fast
  // path stays byte-identical to the pre-FT stack.
  const mpi::CollectiveConfig config;
  EXPECT_FALSE(config.fault_tolerant);
  EXPECT_DOUBLE_EQ(config.agree_timeout_us, 1.0e6);
}

TEST(FtBcast, FaultFreeDeliversEverywhere) {
  auto session = tcp_quad();
  session->run([](Comm comm) {
    enable_ft(comm);
    std::vector<int> data(1024);
    if (comm.rank() == 0) std::iota(data.begin(), data.end(), 7);
    const Status status =
        comm.bcast(data.data(), 1024, Datatype::int32(), 0);
    EXPECT_TRUE(status.is_ok());
    for (int i = 0; i < 1024; ++i) EXPECT_EQ(data[i], i + 7);
  });
}

// The headline survivable-multicast scenario: only the root->2 direction
// dies. The binomial tree (root 0) would hand rank 2 its whole subtree
// over that edge; instead the root adopts the subtree, serves rank 3
// directly and rank 3 relays the payload to rank 2 over its own live
// route. Everybody completes successfully with the right data.
TEST(FtBcast, SingleLinkOutageReroutesThroughLivePeers) {
  auto session = tcp_quad();
  install_plan(*session, 0, 0)->kill_at(0.0, /*src=*/0, /*dst=*/2);
  std::mutex mutex;
  std::map<int, Status> statuses;
  session->run([&](Comm comm) {
    enable_ft(comm);
    std::vector<int> data(1024);
    if (comm.rank() == 0) std::iota(data.begin(), data.end(), 3);
    const Status status =
        comm.bcast(data.data(), 1024, Datatype::int32(), 0);
    for (int i = 0; i < 1024; ++i) EXPECT_EQ(data[i], i + 3);
    std::lock_guard<std::mutex> lock(mutex);
    statuses[comm.rank()] = status;
  });
  for (const auto& [rank, status] : statuses) {
    EXPECT_TRUE(status.is_ok()) << "rank " << rank << ": "
                                << status.to_string();
  }
}

// The same outage with a strided type: the payload travels packed and
// each rank unpacks it into the element slots only, so the gaps between
// the vector's blocks keep whatever the rank had there.
TEST(FtBcast, SingleLinkOutageUnpacksStridedType) {
  auto session = tcp_quad();
  install_plan(*session, 0, 0)->kill_at(0.0, /*src=*/0, /*dst=*/2);
  // 16 blocks of 2 ints, 3 apart: slot j is an element iff j % 3 < 2.
  const Datatype strided = Datatype::vector(16, 2, 3, Datatype::int32());
  constexpr int kSlots = 48;  // the 47-int extent plus one trailing int
  std::mutex mutex;
  std::map<int, Status> statuses;
  session->run([&](Comm comm) {
    enable_ft(comm);
    std::vector<int> data(kSlots, -1 - comm.rank());
    if (comm.rank() == 0) std::iota(data.begin(), data.end(), 100);
    const Status status = comm.bcast(data.data(), 1, strided, 0);
    for (int j = 0; j < kSlots; ++j) {
      const bool element = j < 47 && j % 3 < 2;
      const int expected =
          element || comm.rank() == 0 ? 100 + j : -1 - comm.rank();
      EXPECT_EQ(data[j], expected) << "rank " << comm.rank() << " slot " << j;
    }
    std::lock_guard<std::mutex> lock(mutex);
    statuses[comm.rank()] = status;
  });
  ASSERT_EQ(statuses.size(), 4u);
  for (const auto& [rank, status] : statuses) {
    EXPECT_TRUE(status.is_ok()) << "rank " << rank << ": "
                                << status.to_string();
  }
}

TEST(FtBcast, DeadInteriorRankSubtreeIsAdopted) {
  auto session = tcp_quad();
  // Rank 2 is the interior child serving rank 3; killing its node must
  // not take rank 3 down with it.
  kill_node(*session, 4, 2, 0.0);
  std::mutex mutex;
  std::map<int, Status> statuses;
  session->run([&](Comm comm) {
    enable_ft(comm);
    std::vector<int> data(256);
    if (comm.rank() == 0) std::iota(data.begin(), data.end(), 11);
    const Status status =
        comm.bcast(data.data(), 256, Datatype::int32(), 0);
    if (comm.rank() != 2) {
      for (int i = 0; i < 256; ++i) EXPECT_EQ(data[i], i + 11);
    }
    std::lock_guard<std::mutex> lock(mutex);
    statuses[comm.rank()] = status;
  });
  EXPECT_TRUE(statuses[0].is_ok());
  EXPECT_TRUE(statuses[1].is_ok());
  EXPECT_TRUE(statuses[3].is_ok());
  // The fully-partitioned rank is, to the rest of the group, the failed
  // process: it alone reports the failure.
  EXPECT_EQ(statuses[2].code(), ErrorCode::kProcFailed);
}

TEST(FtBcast, LossyLinkIsRecoveredTransparently) {
  auto session = tcp_quad();
  install_plan(*session, 0, 17)->drop(0.25);
  session->run([](Comm comm) {
    enable_ft(comm);
    std::vector<int> data(512);
    if (comm.rank() == 0) std::iota(data.begin(), data.end(), 1);
    const Status status =
        comm.bcast(data.data(), 512, Datatype::int32(), 0);
    EXPECT_TRUE(status.is_ok());
    for (int i = 0; i < 512; ++i) EXPECT_EQ(data[i], i + 1);
  });
}

TEST(FtAllreduce, SingleLinkOutageStillSumsCorrectly) {
  auto session = tcp_quad();
  install_plan(*session, 0, 0)->kill_at(0.0, /*src=*/0, /*dst=*/2);
  session->run([](Comm comm) {
    enable_ft(comm);
    std::vector<int> send(64, comm.rank() + 1);
    std::vector<int> recv(64, 0);
    const Status status = comm.allreduce(send.data(), recv.data(), 64,
                                         Datatype::int32(), mpi::Op::sum());
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    for (int i = 0; i < 64; ++i) EXPECT_EQ(recv[i], 1 + 2 + 3 + 4);
  });
}

// allgatherv is gatherv to rank 0, then bcast. Under FT capture that
// bcast is the survivable tree, so with only the root->2 direction dead
// the concatenation still reaches rank 2 (through rank 3's relay) and the
// whole operation succeeds everywhere. The blocks are eager-sized: a
// rendezvous gather hop from rank 2 would need the dead direction for
// its handshake.
TEST(FtAllgatherv, SingleLinkOutageReroutesItsBcast) {
  auto session = tcp_quad();
  install_plan(*session, 0, 0)->kill_at(0.0, /*src=*/0, /*dst=*/2);
  std::mutex mutex;
  std::map<int, Status> statuses;
  session->run([&](Comm comm) {
    enable_ft(comm);
    const std::vector<int> counts = {1, 2, 3, 4};
    const std::vector<int> displs = {0, 1, 3, 6};
    std::vector<int> send(4, 10 * comm.rank());
    std::vector<int> recv(10, -1);
    const Status status =
        comm.allgatherv(send.data(), counts[comm.rank()], Datatype::int32(),
                        recv.data(), counts, displs, Datatype::int32());
    EXPECT_EQ(recv, (std::vector<int>{0, 10, 10, 20, 20, 20, 30, 30, 30, 30}))
        << "rank " << comm.rank();
    std::lock_guard<std::mutex> lock(mutex);
    statuses[comm.rank()] = status;
  });
  ASSERT_EQ(statuses.size(), 4u);
  for (const auto& [rank, status] : statuses) {
    EXPECT_TRUE(status.is_ok()) << "rank " << rank << ": "
                                << status.to_string();
  }
}

// Every collective, same dead rank: each one must return the SAME error
// class on every live rank — no hang, no divergent success/failure mix.
// The one exception proves the tentpole: bcast re-routes around the dead
// subtree and *succeeds* uniformly on the live ranks. The nonblocking
// forms fall back to the blocking ones in FT mode, so they must return
// what those return.
TEST(FtCollectives, UniformOutcomeAcrossOperationsUnderKilledRank) {
  auto session = tcp_quad();
  kill_node(*session, 4, 1, 0.0);
  constexpr int kOps = 14;
  constexpr int kBcast = 0, kBarrier = 1, kAllreduce = 3;
  constexpr int kIbcast = 11, kIallreduce = 12, kIbarrier = 13;
  std::mutex mutex;
  std::map<int, std::vector<ErrorCode>> outcomes;
  session->run([&](Comm comm) {
    enable_ft(comm);
    std::vector<ErrorCode> codes;
    std::vector<int> buf(16, comm.rank());
    std::vector<int> out(64, 0);
    // Four ints per rank for the v-variants and reduce_scatter_block.
    const std::vector<int> counts(4, 4);
    const std::vector<int> displs = {0, 4, 8, 12};
    codes.push_back(
        comm.bcast(buf.data(), 16, Datatype::int32(), 0).code());
    codes.push_back(comm.barrier().code());
    codes.push_back(comm.reduce(buf.data(), out.data(), 16,
                                Datatype::int32(), mpi::Op::sum(), 0)
                        .code());
    codes.push_back(comm.allreduce(buf.data(), out.data(), 16,
                                   Datatype::int32(), mpi::Op::sum())
                        .code());
    codes.push_back(comm.gather(buf.data(), 16, Datatype::int32(),
                                out.data(), 16, Datatype::int32(), 0)
                        .code());
    codes.push_back(comm.allgather(buf.data(), 16, Datatype::int32(),
                                   out.data(), 16, Datatype::int32())
                        .code());
    codes.push_back(
        comm.scan(buf.data(), out.data(), 16, Datatype::int32(),
                  mpi::Op::sum())
            .code());
    codes.push_back(comm.allgatherv(buf.data(), 4, Datatype::int32(),
                                    out.data(), counts, displs,
                                    Datatype::int32())
                        .code());
    codes.push_back(comm.scatterv(buf.data(), counts, displs,
                                  Datatype::int32(), out.data(), 4,
                                  Datatype::int32(), 0)
                        .code());
    codes.push_back(comm.alltoallv(buf.data(), counts, displs,
                                   Datatype::int32(), out.data(), counts,
                                   displs, Datatype::int32())
                        .code());
    codes.push_back(comm.reduce_scatter_block(buf.data(), out.data(), 4,
                                              Datatype::int32(),
                                              mpi::Op::sum())
                        .code());
    codes.push_back(
        comm.ibcast(buf.data(), 16, Datatype::int32(), 0).wait().error);
    codes.push_back(comm.iallreduce(buf.data(), out.data(), 16,
                                    Datatype::int32(), mpi::Op::sum())
                        .wait()
                        .error);
    codes.push_back(comm.ibarrier().wait().error);
    std::lock_guard<std::mutex> lock(mutex);
    outcomes[comm.rank()] = std::move(codes);
  });
  ASSERT_EQ(outcomes.size(), 4u);
  for (int op = 0; op < kOps; ++op) {
    // Uniformity among the live ranks (0, 2, 3).
    EXPECT_EQ(outcomes[0][op], outcomes[2][op]) << "op " << op;
    EXPECT_EQ(outcomes[0][op], outcomes[3][op]) << "op " << op;
  }
  // bcast from root 0 survives the dead leaf; the data-dependent
  // collectives cannot (rank 1's contribution is gone) and agree on
  // kProcFailed.
  for (int op = 0; op < kOps; ++op) {
    const bool survives = op == kBcast || op == kIbcast;
    EXPECT_EQ(outcomes[0][op],
              survives ? ErrorCode::kOk : ErrorCode::kProcFailed)
        << "op " << op;
  }
  for (const auto& [rank, codes] : outcomes) {
    EXPECT_EQ(codes[kIbcast], codes[kBcast]) << "rank " << rank;
    EXPECT_EQ(codes[kIallreduce], codes[kAllreduce]) << "rank " << rank;
    EXPECT_EQ(codes[kIbarrier], codes[kBarrier]) << "rank " << rank;
  }
}

// FT off is the pre-existing contract: no hang (the watchdog still
// cancels dead hops) but divergent outcomes — the root sees the failed
// edge, ranks past the break succeed. This is the baseline the uniform
// agreement exists to fix.
TEST(FtCollectives, FtOffDivergesButDoesNotHang) {
  auto session = tcp_quad();
  kill_node(*session, 4, 1, 0.0);
  std::mutex mutex;
  std::map<int, Status> statuses;
  session->run([&](Comm comm) {
    std::vector<int> data(16, comm.rank());
    const Status status = comm.bcast(data.data(), 16, Datatype::int32(), 0);
    std::lock_guard<std::mutex> lock(mutex);
    statuses[comm.rank()] = status;
  });
  EXPECT_FALSE(statuses[0].is_ok());  // the send to rank 1 failed
  EXPECT_TRUE(statuses[2].is_ok());   // served before the dead edge
  EXPECT_TRUE(statuses[3].is_ok());
}

TEST(FtAgree, UniformAndOverLiveRanks) {
  auto session = tcp_quad();
  session->run([](Comm comm) {
    enable_ft(comm);
    // Bits 0x3 survive everywhere; bit 0x4 is cleared by rank 2 alone —
    // agreement must AND it away on every rank.
    int flag = comm.rank() == 2 ? 0x3 : 0x7;
    const Status status = comm.agree(&flag);
    EXPECT_TRUE(status.is_ok());
    EXPECT_EQ(flag, 0x3);
  });
}

TEST(FtAgree, KnownFailureTurnsIntoUniformProcFailed) {
  auto session = tcp_quad();
  kill_node(*session, 4, 3, 0.0);
  std::mutex mutex;
  std::map<int, std::pair<ErrorCode, int>> outcomes;
  session->run([&](Comm comm) {
    enable_ft(comm);
    int flag = 0x7;
    const Status status = comm.agree(&flag);
    std::lock_guard<std::mutex> lock(mutex);
    outcomes[comm.rank()] = {status.code(), flag};
  });
  for (int rank : {0, 1, 2}) {
    EXPECT_EQ(outcomes[rank].first, ErrorCode::kProcFailed) << rank;
    EXPECT_EQ(outcomes[rank].second, 0x7) << rank;  // AND over live inputs
  }
}

TEST(FtShrink, SurvivorsContinueAfterRankDeath) {
  auto session = tcp_quad();
  kill_node(*session, 4, 3, 0.0);
  std::mutex mutex;
  std::map<int, int> shrunk_sizes;
  session->run([&](Comm comm) {
    enable_ft(comm);
    // A collective first, so the shrink happens mid-application like in
    // the ULFM recovery loop (notice failure -> shrink -> continue).
    std::vector<int> data(16, comm.rank());
    comm.bcast(data.data(), 16, Datatype::int32(), 0);

    Comm survivors = comm.shrink();
    ASSERT_TRUE(survivors.valid());
    {
      std::lock_guard<std::mutex> lock(mutex);
      shrunk_sizes[comm.rank()] = survivors.size();
    }
    if (comm.rank() == 3) return;  // its partition is just itself

    // The shrunken communicator is fully usable.
    int send = survivors.rank() + 1;
    int sum = 0;
    const Status status = survivors.allreduce(&send, &sum, 1,
                                              Datatype::int32(),
                                              mpi::Op::sum());
    EXPECT_TRUE(status.is_ok());
    EXPECT_EQ(sum, 1 + 2 + 3);
  });
  EXPECT_EQ(shrunk_sizes[0], 3);
  EXPECT_EQ(shrunk_sizes[1], 3);
  EXPECT_EQ(shrunk_sizes[2], 3);
  // The partitioned rank shrinks to its own side of the partition.
  EXPECT_EQ(shrunk_sizes[3], 1);
}

TEST(FtRevoke, RevocationInterruptsAndPropagates) {
  auto session = tcp_quad();
  session->run([](Comm comm) {
    enable_ft(comm);
    Comm work = comm.dup();
    if (comm.rank() == 0) {
      // Rank 1 posts its receive on `work` *before* sending the ready
      // token, so once the token arrives the receive is provably posted
      // and the revocation must interrupt it (not merely pre-empt it).
      int token = 0;
      comm.recv(&token, 1, Datatype::int32(), 1, 99);
      work.revoke();
    } else if (comm.rank() == 1) {
      int payload = 0;
      mpi::Request pending =
          work.irecv(&payload, 1, Datatype::int32(), 0, 5);
      int token = 1;
      comm.send(&token, 1, Datatype::int32(), 0, 99);
      // The revocation must cancel the already-posted receive...
      const auto status = pending.wait();
      EXPECT_EQ(status.error, ErrorCode::kRevoked);
    }
    comm.barrier();
    // ...and poison every later operation on the revoked communicator,
    // on every rank.
    EXPECT_TRUE(work.revoked());
    int value = 0;
    const Status send_status =
        work.send(&value, 1, Datatype::int32(),
                  (comm.rank() + 1) % comm.size(), 0);
    EXPECT_EQ(send_status.code(), ErrorCode::kRevoked);
    // So does every other send. A nonblocking send's request completes
    // with the error at once; a send that went out instead would wait for
    // a receive nobody posts, so the issend is bounded (then cancelled)
    // and the blocking ssend only runs once the issend refused.
    const rank_t peer = (comm.rank() + 1) % comm.size();
    EXPECT_EQ(work.isend(&value, 1, Datatype::int32(), peer, 0).wait().error,
              ErrorCode::kRevoked);
    mpi::Request issend = work.issend(&value, 1, Datatype::int32(), peer, 0);
    mpi::MpiStatus issend_status;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    bool done = issend.test(&issend_status);
    while (!done && std::chrono::steady_clock::now() < deadline) {
      done = issend.test(&issend_status);
    }
    if (!done && issend.cancel()) issend_status = issend.wait();
    EXPECT_EQ(issend_status.error, ErrorCode::kRevoked);
    if (issend_status.error == ErrorCode::kRevoked) {
      EXPECT_EQ(work.ssend(&value, 1, Datatype::int32(), peer, 0).code(),
                ErrorCode::kRevoked);
    }
    // A bsend has no request: the error goes through the error handler,
    // and nothing is parked in the attached buffer.
    ErrorCode raised = ErrorCode::kOk;
    work.set_errhandler(mpi::Errhandler::custom(
        [&raised](ErrorCode code, const std::string&) { raised = code; }));
    Comm::buffer_attach(sizeof value + Comm::bsend_overhead());
    work.bsend(&value, 1, Datatype::int32(), peer, 0);
    Comm::buffer_detach();
    work.set_errhandler(mpi::Errhandler::errors_return());
    EXPECT_EQ(raised, ErrorCode::kRevoked);
    const Status coll_status =
        work.bcast(&value, 1, Datatype::int32(), 0);
    EXPECT_EQ(coll_status.code(), ErrorCode::kRevoked);

    // shrink() stays usable on a revoked communicator: it is the
    // recovery path. Nobody is dead, so everyone survives.
    Comm next = work.shrink();
    ASSERT_TRUE(next.valid());
    EXPECT_EQ(next.size(), comm.size());
    EXPECT_TRUE(next.barrier().is_ok());
  });
}

TEST(FtCompat, MpixFacadeRoundTrip) {
  compat::run(sim::ClusterSpec::homogeneous(4, sim::Protocol::kTcp), [] {
    MPI_Init(nullptr, nullptr);
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_set_errhandler(MPI_COMM_WORLD, MPI_ERRORS_RETURN);

    int flag = rank == 0 ? 0x5 : 0x7;
    ASSERT_EQ(MPIX_Comm_agree(MPI_COMM_WORLD, &flag), MPI_SUCCESS);
    EXPECT_EQ(flag, 0x5);

    MPI_Comm work = MPI_COMM_NULL;
    MPI_Comm_dup(MPI_COMM_WORLD, &work);
    ASSERT_EQ(MPIX_Comm_revoke(work), MPI_SUCCESS);
    int value = 0;
    EXPECT_EQ(MPI_Bcast(&value, 1, MPI_INT, 0, work), MPIX_ERR_REVOKED);

    MPI_Comm recovered = MPI_COMM_NULL;
    ASSERT_EQ(MPIX_Comm_shrink(work, &recovered), MPI_SUCCESS);
    int size = 0;
    MPI_Comm_size(recovered, &size);
    EXPECT_EQ(size, 4);
    EXPECT_EQ(MPI_Barrier(recovered), MPI_SUCCESS);
    MPI_Finalize();
  });
}

TEST(FtCompat, ProcFailedErrorClassIsDistinct) {
  EXPECT_NE(MPIX_ERR_PROC_FAILED, MPI_ERR_OTHER);
  EXPECT_NE(MPIX_ERR_REVOKED, MPI_ERR_OTHER);
  EXPECT_NE(MPIX_ERR_PROC_FAILED, MPIX_ERR_REVOKED);
}

}  // namespace
}  // namespace madmpi
