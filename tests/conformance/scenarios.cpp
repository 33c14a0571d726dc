// Conformance scenarios: workloads instrumented with MPI-semantics oracles,
// designed to stay *correct under every legal schedule* — the sweep's job
// is to find an interleaving where they are not.
#include <array>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "core/session.hpp"
#include "harness.hpp"
#include "mpi/win.hpp"
#include "sim/fault.hpp"
#include "sim/sched.hpp"

namespace madmpi::conformance {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

std::shared_ptr<sim::FaultPlan> install_plan(Session& session,
                                             node_id_t node,
                                             sim::Protocol protocol,
                                             std::uint64_t seed) {
  auto plan = std::make_shared<sim::FaultPlan>(seed);
  sim::Nic* nic = session.fabric().find_nic(node, protocol);
  if (nic == nullptr) return plan;
  nic->mutable_model().fault_plan = plan;
  return plan;
}

std::uint8_t pattern_byte(int src, std::uint64_t seq, std::size_t i) {
  return static_cast<std::uint8_t>(
      (static_cast<std::size_t>(src) * 131 + seq * 31 + i * 7 + 5) & 0xff);
}

// ---------------------------------------------------------- nonovertaking

/// Every pair exchanges a numbered message train on ONE tag with sizes
/// alternating across the eager/rendezvous switch point. MPI: two messages
/// from the same source on the same (comm, tag) must match posted receives
/// in send order — even though here they travel as different packet kinds
/// over different code paths.
void run_nonovertaking(Oracle& oracle) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2);
  options.switch_point_override = 1024;  // 64 B eager, 4 KB rendezvous
  Session session(std::move(options));

  constexpr int kTrain = 8;
  constexpr int kTag = 7;
  const auto size_of = [](int seq) {
    return static_cast<std::size_t>(seq % 2 == 0 ? 64 : 4096);
  };

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    const int n = comm.size();
    // Post every receive up front, in send order per source.
    std::vector<mpi::Request> recvs;
    std::vector<std::vector<std::uint8_t>> inbox;
    std::vector<std::pair<int, int>> origin;  // (src, seq) per request
    for (int src = 0; src < n; ++src) {
      if (src == comm.rank()) continue;
      for (int seq = 0; seq < kTrain; ++seq) {
        inbox.emplace_back(size_of(seq));
        auto& buffer = inbox.back();
        recvs.push_back(comm.irecv(buffer.data(),
                                   static_cast<int>(buffer.size()),
                                   Datatype::uint8(), src, kTag));
        origin.emplace_back(src, seq);
      }
    }
    for (int dst = 0; dst < n; ++dst) {
      if (dst == comm.rank()) continue;
      for (int seq = 0; seq < kTrain; ++seq) {
        std::vector<std::uint8_t> payload(size_of(seq));
        for (std::size_t i = 0; i < payload.size(); ++i) {
          payload[i] = pattern_byte(comm.rank(),
                                    static_cast<std::uint64_t>(seq), i);
        }
        comm.send(payload.data(), static_cast<int>(payload.size()),
                  Datatype::uint8(), dst, kTag);
      }
    }
    for (std::size_t r = 0; r < recvs.size(); ++r) {
      const auto status = recvs[r].wait();
      const auto [src, seq] = origin[r];
      const auto& buffer = inbox[r];
      bool intact = status.error == ErrorCode::kOk &&
                    status.bytes == buffer.size();
      for (std::size_t i = 0; intact && i < buffer.size(); ++i) {
        intact = buffer[i] ==
                 pattern_byte(src, static_cast<std::uint64_t>(seq), i);
      }
      if (!intact) {
        std::ostringstream what;
        what << "rank " << comm.rank() << " recv #" << seq << " from "
             << src << ": expected the seq-" << seq
             << " payload in posting order, got a mismatch (bytes="
             << status.bytes << ", error=" << static_cast<int>(status.error)
             << ")";
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle.fail("non-overtaking", what.str());
      }
    }
  });
}

// ------------------------------------------------------------------ probe

/// Matched-probe consistency: what MPI_Probe reports (source, tag, size)
/// must be exactly what the subsequent receive for that (source, tag)
/// delivers — the probe pinned a specific message, not a description of
/// "something pending".
void run_probe(Oracle& oracle) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  Session session(std::move(options));

  constexpr int kMessages = 12;
  const auto size_of = [](int seq) {
    return static_cast<std::size_t>((seq * 37) % 977 + 1);
  };

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    if (comm.rank() == 0) {
      for (int seq = 0; seq < kMessages; ++seq) {
        std::vector<std::uint8_t> payload(size_of(seq));
        for (std::size_t i = 0; i < payload.size(); ++i) {
          payload[i] = pattern_byte(0, static_cast<std::uint64_t>(seq), i);
        }
        comm.send(payload.data(), static_cast<int>(payload.size()),
                  Datatype::uint8(), 1, seq % 3);
      }
    } else {
      for (int got = 0; got < kMessages; ++got) {
        const auto probed = comm.probe(mpi::kAnySource, mpi::kAnyTag);
        std::vector<std::uint8_t> buffer(probed.bytes);
        const auto status =
            comm.recv(buffer.data(), static_cast<int>(buffer.size()),
                      Datatype::uint8(), probed.source, probed.tag);
        std::ostringstream what;
        what << "probe said (src=" << probed.source << ", tag=" << probed.tag
             << ", bytes=" << probed.bytes << "), recv delivered (src="
             << status.source << ", tag=" << status.tag << ", bytes="
             << status.bytes << ", error=" << static_cast<int>(status.error)
             << ")";
        const bool consistent = status.error == ErrorCode::kOk &&
                                status.source == probed.source &&
                                status.tag == probed.tag &&
                                status.bytes == probed.bytes;
        if (!consistent) {
          std::lock_guard<std::mutex> lock(oracle_mutex);
          oracle.fail("probe-consistency", what.str());
        }
      }
    }
  });
}

// ------------------------------------------------------------ flowcontrol

/// Credit conservation: after traffic quiesces, every byte of every
/// per-peer credit window is either back in the sender's account or still
/// owed by the receiver — under frame drops, retransmissions, and a
/// perturbed credit-batching threshold.
void run_flowcontrol(Oracle& oracle) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  options.credit_window_bytes = 1024;
  Session session(std::move(options));
  install_plan(session, 0, sim::Protocol::kTcp, 21)->drop(0.15);
  install_plan(session, 1, sim::Protocol::kTcp, 22)->drop(0.15);

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    std::vector<std::uint8_t> out(200, 0x5a);
    std::vector<std::uint8_t> in(200);
    const int peer = 1 - comm.rank();
    for (int round = 0; round < 15; ++round) {
      if (comm.rank() == 0) {
        comm.send(out.data(), static_cast<int>(out.size()),
                  Datatype::uint8(), peer, round);
        comm.recv(in.data(), static_cast<int>(in.size()), Datatype::uint8(),
                  peer, round);
      } else {
        comm.recv(in.data(), static_cast<int>(in.size()), Datatype::uint8(),
                  peer, round);
        comm.send(out.data(), static_cast<int>(out.size()),
                  Datatype::uint8(), peer, round);
      }
      if (std::memcmp(in.data(), out.data(), in.size()) != 0) {
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle.fail("no-message-loss",
                    "payload corrupted in round " + std::to_string(round));
      }
    }
  });

  core::ChMadDevice* device = session.ch_mad();
  if (device == nullptr) {
    oracle.fail("credit-conservation", "no ch_mad device in the session");
    return;
  }
  const std::size_t window = device->credit_window();
  session.finalize();  // join in-flight credit threads before the audit
  for (node_id_t a = 0; a <= 1; ++a) {
    const node_id_t b = 1 - a;
    const std::size_t available = device->credits_available(a, b);
    const std::size_t owed = device->credits_pending_return(b, a);
    if (available + owed != window) {
      std::ostringstream what;
      what << "direction " << static_cast<int>(a) << "->"
           << static_cast<int>(b) << ": available " << available
           << " + owed " << owed << " != window " << window;
      oracle.fail("credit-conservation", what.str());
    }
  }
}

// ----------------------------------------------------------------- faults

/// Survivable fault plan: the SCI link dies mid-run (the kill instant
/// itself is a perturbed choice point), but a TCP network always remains.
/// Oracle: no message loss — every send reports success and every payload
/// arrives intact, whichever protocol phase the kill interrupts.
void run_faults(Oracle& oracle) {
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
  Session session(std::move(options));
  install_plan(session, 0, sim::Protocol::kSisci, 5)->kill_at(500.0);
  install_plan(session, 1, sim::Protocol::kSisci, 5)->kill_at(500.0);

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    const int peer = 1 - comm.rank();
    for (int round = 0; round < 30; ++round) {
      // Mix of eager rounds and one rendezvous round so the slide of the
      // kill instant can land inside either protocol's exchange.
      const std::size_t bytes =
          round == 10 ? std::size_t{64} * 1024 : std::size_t{256};
      std::vector<std::uint8_t> out(bytes);
      for (std::size_t i = 0; i < bytes; ++i) {
        out[i] = pattern_byte(peer, static_cast<std::uint64_t>(round), i);
      }
      std::vector<std::uint8_t> in(bytes);
      Status send_status = Status::ok();
      mpi::MpiStatus recv_status;
      if (comm.rank() == 0) {
        send_status = comm.send(out.data(), static_cast<int>(bytes),
                                Datatype::uint8(), peer, round);
        recv_status = comm.recv(in.data(), static_cast<int>(bytes),
                                Datatype::uint8(), peer, round);
      } else {
        recv_status = comm.recv(in.data(), static_cast<int>(bytes),
                                Datatype::uint8(), peer, round);
        send_status = comm.send(out.data(), static_cast<int>(bytes),
                                Datatype::uint8(), peer, round);
      }
      std::vector<std::uint8_t> expected(bytes);
      for (std::size_t i = 0; i < bytes; ++i) {
        expected[i] =
            pattern_byte(comm.rank(), static_cast<std::uint64_t>(round), i);
      }
      const bool ok = send_status.is_ok() &&
                      recv_status.error == ErrorCode::kOk &&
                      std::memcmp(in.data(), expected.data(), bytes) == 0;
      if (!ok) {
        std::ostringstream what;
        what << "rank " << comm.rank() << " round " << round << " ("
             << bytes << " B): send=" << static_cast<int>(send_status.code())
             << " recv=" << static_cast<int>(recv_status.error)
             << " — the surviving TCP route must deliver everything";
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle.fail("no-message-loss", what.str());
      }
    }
  });
}

// ------------------------------------------------------------- forwarding

/// Gateway forwarding: the endpoints share no network, every message is
/// relayed. Ordering and integrity must survive the extra hop (and the
/// relay node's own perturbed pollers).
void run_forwarding(Oracle& oracle) {
  sim::ClusterSpec spec;
  for (const char* name : {"n0", "n1", "n2"}) {
    sim::NodeSpec node;
    node.name = name;
    spec.nodes.push_back(node);
  }
  spec.networks.push_back({sim::Protocol::kSisci, 0, {"n0", "n1"}});
  spec.networks.push_back({sim::Protocol::kTcp, 0, {"n1", "n2"}});
  Session::Options options;
  options.cluster = std::move(spec);
  options.enable_forwarding = true;
  Session session(std::move(options));

  constexpr int kTrain = 10;
  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    if (comm.rank() == 1) return;  // the gateway only relays
    const int peer = comm.rank() == 0 ? 2 : 0;
    std::vector<mpi::Request> recvs;
    std::vector<std::vector<std::uint8_t>> inbox;
    for (int seq = 0; seq < kTrain; ++seq) {
      inbox.emplace_back(static_cast<std::size_t>(128 + seq));
      auto& buffer = inbox.back();
      recvs.push_back(comm.irecv(buffer.data(),
                                 static_cast<int>(buffer.size()),
                                 Datatype::uint8(), peer, 3));
    }
    for (int seq = 0; seq < kTrain; ++seq) {
      std::vector<std::uint8_t> payload(static_cast<std::size_t>(128 + seq));
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = pattern_byte(comm.rank(),
                                  static_cast<std::uint64_t>(seq), i);
      }
      comm.send(payload.data(), static_cast<int>(payload.size()),
                Datatype::uint8(), peer, 3);
    }
    for (int seq = 0; seq < kTrain; ++seq) {
      const auto status = recvs[static_cast<std::size_t>(seq)].wait();
      const auto& buffer = inbox[static_cast<std::size_t>(seq)];
      bool intact = status.error == ErrorCode::kOk &&
                    status.bytes == buffer.size();
      for (std::size_t i = 0; intact && i < buffer.size(); ++i) {
        intact = buffer[i] ==
                 pattern_byte(peer, static_cast<std::uint64_t>(seq), i);
      }
      if (!intact) {
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle.fail("non-overtaking",
                    "relayed message " + std::to_string(seq) +
                        " arrived out of order or corrupted");
      }
    }
  });
}

// --------------------------------------------------------------- watchdog

/// Watchdog-fires-iff-unreachable: the route from rank 1 to rank 0 is
/// killed, so rank 0's receive from rank 1 MUST time out; the rank 0 <->
/// rank 2 traffic is healthy and MUST NOT be cancelled. Both directions of
/// the iff, in one run.
void run_watchdog(Oracle& oracle) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(3, sim::Protocol::kTcp);
  options.watchdog_horizon_us = 2000.0;
  Session session(std::move(options));
  // Directed kill on node 1's NIC: 1 -> 0 dies at t=0 (the schedule's
  // fault offset may slide it, which is why rank 1 pushes its clock well
  // past any possible slide below).
  install_plan(session, 1, sim::Protocol::kTcp, 0)
      ->kill_at(0.0, /*src=*/1, /*dst=*/0);

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    if (comm.rank() == 1) {
      // Nothing to send: just advance this node's clock beyond the largest
      // possible fault-offset slide so the failure detector's oracle (which
      // reads this node's virtual time) sees the kill as fired.
      comm.compute_us(5000.0);
      return;
    }
    if (comm.rank() == 0) {
      int value = -1;
      const auto status = comm.recv(&value, 1, Datatype::int32(), 1, 0);
      if (status.error != ErrorCode::kTimedOut) {
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle.fail("watchdog-iff-unreachable",
                    "recv from the severed peer returned error " +
                        std::to_string(static_cast<int>(status.error)) +
                        " instead of timing out");
      }
    }
    // Healthy ranks 0 and 2 exchange traffic that must never be cancelled.
    if (comm.rank() == 0 || comm.rank() == 2) {
      const int peer = comm.rank() == 0 ? 2 : 0;
      std::vector<std::uint8_t> out(128, 0x11);
      std::vector<std::uint8_t> in(128);
      for (int round = 0; round < 6; ++round) {
        Status send_status = Status::ok();
        mpi::MpiStatus recv_status;
        if (comm.rank() == 0) {
          send_status = comm.send(out.data(), 128, Datatype::uint8(), peer,
                                  100 + round);
          recv_status = comm.recv(in.data(), 128, Datatype::uint8(), peer,
                                  100 + round);
        } else {
          recv_status = comm.recv(in.data(), 128, Datatype::uint8(), peer,
                                  100 + round);
          send_status = comm.send(out.data(), 128, Datatype::uint8(), peer,
                                  100 + round);
        }
        if (!send_status.is_ok() || recv_status.error != ErrorCode::kOk) {
          std::lock_guard<std::mutex> lock(oracle_mutex);
          oracle.fail("watchdog-iff-unreachable",
                      "healthy 0<->2 traffic failed in round " +
                          std::to_string(round) +
                          " — the watchdog cancelled a reachable operation");
        }
      }
    }
  });
  session.finalize();
  if (session.watchdog_cancels() < 1) {
    oracle.fail("watchdog-iff-unreachable",
                "the watchdog never fired although rank 1 was unreachable");
  }
}

// ---------------------------------------------------------------- zerocopy

/// Zero-copy datapath integrity: eager payloads travel as refcounted chunk
/// views of pooled slabs, so the dangerous schedules are the ones where a
/// chunk outlives its producer — a dropped frame retransmitted after the
/// sender's Packing died, or a message parked in the unexpected store long
/// after the wire buffer's other references were released. Mixed sizes
/// straddle the 64 B TCP aggregation threshold so both wire shapes (body
/// inline in the control frame, body as its own data frame) are exercised.
/// Oracle: every payload arrives intact and in order regardless.
void run_zerocopy(Oracle& oracle) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  Session session(std::move(options));
  install_plan(session, 0, sim::Protocol::kTcp, 31)->drop(0.2);
  install_plan(session, 1, sim::Protocol::kTcp, 32)->drop(0.2);

  constexpr int kTrain = 10;
  constexpr int kTag = 4;
  const auto size_of = [](int seq) {
    // 16, 48 ride inline with the header; 256, 768 go as separate frames.
    static constexpr std::size_t kSizes[] = {16, 256, 48, 768};
    return kSizes[seq % 4];
  };

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    const int peer = 1 - comm.rank();
    if (comm.rank() == 0) {
      // Fire the whole train before the peer posts anything: every message
      // must survive in the unexpected store as a parked chunk reference.
      for (int seq = 0; seq < kTrain; ++seq) {
        std::vector<std::uint8_t> payload(size_of(seq));
        for (std::size_t i = 0; i < payload.size(); ++i) {
          payload[i] = pattern_byte(0, static_cast<std::uint64_t>(seq), i);
        }
        comm.send(payload.data(), static_cast<int>(payload.size()),
                  Datatype::uint8(), peer, kTag);
      }
    } else {
      comm.compute_us(3000.0);  // let the train land unexpected
    }
    // Then both directions drain: rank 1 receives the parked train and
    // echoes each payload back on a fresh tag.
    for (int seq = 0; seq < kTrain; ++seq) {
      std::vector<std::uint8_t> buffer(size_of(seq));
      if (comm.rank() == 1) {
        const auto status =
            comm.recv(buffer.data(), static_cast<int>(buffer.size()),
                      Datatype::uint8(), peer, kTag);
        bool intact = status.error == ErrorCode::kOk &&
                      status.bytes == buffer.size();
        for (std::size_t i = 0; intact && i < buffer.size(); ++i) {
          intact = buffer[i] ==
                   pattern_byte(0, static_cast<std::uint64_t>(seq), i);
        }
        if (!intact) {
          std::lock_guard<std::mutex> lock(oracle_mutex);
          oracle.fail("chunk-integrity",
                      "parked message " + std::to_string(seq) +
                          " corrupted in the unexpected store");
        }
        comm.send(buffer.data(), static_cast<int>(buffer.size()),
                  Datatype::uint8(), peer, kTag + 1);
      } else {
        const auto status =
            comm.recv(buffer.data(), static_cast<int>(buffer.size()),
                      Datatype::uint8(), peer, kTag + 1);
        bool intact = status.error == ErrorCode::kOk &&
                      status.bytes == buffer.size();
        for (std::size_t i = 0; intact && i < buffer.size(); ++i) {
          intact = buffer[i] ==
                   pattern_byte(0, static_cast<std::uint64_t>(seq), i);
        }
        if (!intact) {
          std::lock_guard<std::mutex> lock(oracle_mutex);
          oracle.fail("chunk-integrity",
                      "echo of message " + std::to_string(seq) +
                          " corrupted across retransmissions");
        }
      }
    }
  });
}

// --------------------------------------------------------------------- rma

/// One-sided epoch semantics under frame drops: an access issued outside
/// any epoch must be refused (never transmitted); every put/accumulate
/// issued inside a fence epoch must be visible at the target once the
/// fence returns; data moved under an exclusive lock must be visible after
/// unlock. The per-origin completion ledger has to uphold these through
/// retransmissions and delivery-order perturbation.
void run_rma(Oracle& oracle) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  Session session(std::move(options));
  install_plan(session, 0, sim::Protocol::kTcp, 41)->drop(0.2);
  install_plan(session, 1, sim::Protocol::kTcp, 42)->drop(0.2);

  constexpr std::size_t kPattern = 64;  // bytes per put payload

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    mpi::Win win = mpi::Win::allocate(comm, 256);

    if (comm.rank() == 0) {
      // No epoch is open yet: the access must be refused locally.
      std::uint8_t probe = 1;
      const Status outside = win.put(&probe, 1, mpi::RmaType::kByte, 1, 0);
      if (outside.is_ok()) {
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle.fail("rma-epoch", "put outside any epoch was accepted");
      }
    }

    win.fence();  // opens the access epoch
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> payload(kPattern);
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = pattern_byte(0, 1, i);
      }
      win.put(payload.data(), static_cast<int>(payload.size()),
              mpi::RmaType::kUint8, 1, 0);
      std::int32_t addend = 41;
      win.accumulate(&addend, 1, mpi::RmaType::kInt32, mpi::RmaOp::kSum, 1,
                     128);
      addend = 1;
      win.accumulate(&addend, 1, mpi::RmaType::kInt32, mpi::RmaOp::kSum, 1,
                     128);
    }
    win.fence();  // closes it: everything above is now visible at rank 1
    if (comm.rank() == 1) {
      const std::uint8_t* exposed =
          reinterpret_cast<const std::uint8_t*>(win.base());
      bool intact = true;
      for (std::size_t i = 0; intact && i < kPattern; ++i) {
        intact = exposed[i] == pattern_byte(0, 1, i);
      }
      std::int32_t sum = 0;
      std::memcpy(&sum, win.base() + 128, sizeof sum);
      if (!intact || sum != 42) {
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle.fail("rma-fence-visibility",
                    intact ? "accumulate ledger lost an op (sum " +
                                 std::to_string(sum) + " != 42)"
                           : "put issued before the fence not visible "
                             "after it");
      }
    }

    // Passive target: rank 0 moves a second pattern under an exclusive
    // lock; after unlock() returns the data is visible, and the barrier
    // sequences rank 1's read behind it.
    if (comm.rank() == 0) {
      win.lock(mpi::RmaLockType::kExclusive, 1);
      std::vector<std::uint8_t> payload(kPattern);
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = pattern_byte(0, 2, i);
      }
      win.put(payload.data(), static_cast<int>(payload.size()),
              mpi::RmaType::kUint8, 1, kPattern);
      win.unlock(1);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      const std::uint8_t* exposed =
          reinterpret_cast<const std::uint8_t*>(win.base());
      for (std::size_t i = 0; i < kPattern; ++i) {
        if (exposed[kPattern + i] != pattern_byte(0, 2, i)) {
          std::lock_guard<std::mutex> lock(oracle_mutex);
          oracle.fail("rma-unlock-visibility",
                      "put issued under the lock not visible after unlock");
          break;
        }
      }
    }
    win.free();
  });
}

// ---------------------------------------------------------- ft_collectives

/// Fault-tolerant collectives under a seed-selected fault flavor: lossy
/// link, directed link kill with a live relay route, or a fully dead rank.
/// Oracle: every live rank returns the SAME error class per collective
/// (uniform agreement), data is correct whenever a collective reports
/// success, survivable faults (drops, a single dead edge) do not fail the
/// custom-tree collectives at all, and even a partitioned rank returns
/// instead of hanging.
void run_ft_collectives(Oracle& oracle) {
  auto* sched = sim::ScheduleController::current();
  const std::uint64_t seed = sched != nullptr ? sched->seed() : 0;
  const int flavor = static_cast<int>(seed % 3);

  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(4, sim::Protocol::kTcp);
  Session session(std::move(options));

  constexpr node_id_t kVictim = 3;
  if (flavor == 0) {
    install_plan(session, 0, sim::Protocol::kTcp, seed + 1)->drop(0.25);
  } else if (flavor == 1) {
    install_plan(session, 0, sim::Protocol::kTcp, 0)
        ->kill_at(0.0, /*src=*/0, /*dst=*/2);
  } else {
    // Kill the victim both ways: outbound rules live on its own NIC,
    // inbound ones on every other node's NIC.
    for (node_id_t node = 0; node < 4; ++node) {
      auto plan = install_plan(session, node, sim::Protocol::kTcp, 0);
      if (node == kVictim) {
        plan->kill_at(0.0);
      } else {
        plan->kill_at(0.0, node, kVictim);
      }
    }
  }

  constexpr int kOps = 3;  // bcast, allreduce, barrier
  std::mutex mutex;
  std::map<int, std::array<ErrorCode, kOps>> codes;
  std::map<int, bool> data_ok;
  session.run([&](Comm comm) {
    mpi::CollectiveConfig config;
    config.fault_tolerant = true;
    comm.set_collective_config(config);

    std::array<ErrorCode, kOps> my{};
    bool ok = true;

    std::vector<int> bcast_buf(256);
    if (comm.rank() == 0) {
      for (int i = 0; i < 256; ++i) bcast_buf[i] = i * 3 + 1;
    }
    my[0] = comm.bcast(bcast_buf.data(), 256, Datatype::int32(), 0).code();
    if (my[0] == ErrorCode::kOk) {
      for (int i = 0; i < 256; ++i) ok = ok && bcast_buf[i] == i * 3 + 1;
    }

    std::vector<int> send(32, comm.rank() + 1);
    std::vector<int> sum(32, 0);
    my[1] = comm.allreduce(send.data(), sum.data(), 32, Datatype::int32(),
                           mpi::Op::sum())
                .code();
    if (my[1] == ErrorCode::kOk) {
      for (int i = 0; i < 32; ++i) ok = ok && sum[i] == 1 + 2 + 3 + 4;
    }

    my[2] = comm.barrier().code();

    std::lock_guard<std::mutex> lock(mutex);
    codes[comm.rank()] = my;
    data_ok[comm.rank()] = ok;
  });

  // session.run() returning at all is the no-hang half of the oracle: a
  // stuck collective would park a rank thread (and the harness) forever.
  const bool rank_dead = flavor == 2;
  for (int op = 0; op < kOps; ++op) {
    const ErrorCode expected = codes[0][op];
    for (int rank = 1; rank < 4; ++rank) {
      // The partitioned rank self-reports kProcFailed; it is the failed
      // process from the group's point of view, not a live participant.
      if (rank_dead && rank == kVictim) continue;
      if (codes[rank][op] != expected) {
        std::ostringstream what;
        what << "non-uniform outcome for op " << op << ": rank 0 got "
             << static_cast<int>(expected) << " but rank " << rank
             << " got " << static_cast<int>(codes[rank][op]) << " (seed "
             << seed << ", flavor " << flavor << ")";
        oracle.fail("ft-uniform-agreement", what.str());
      }
    }
  }
  for (int rank = 0; rank < 4; ++rank) {
    if (!data_ok[rank]) {
      oracle.fail("ft-data", "a collective reported success but delivered "
                             "wrong data on rank " +
                                 std::to_string(rank));
    }
  }
  // Survivability: drops are fully transparent; a single dead edge must
  // not fail the custom-tree collectives (bcast re-routes, allreduce's
  // reduce phase never crosses the dead direction).
  const int survivable_ops = flavor == 0 ? kOps : (flavor == 1 ? 2 : 0);
  for (int rank = 0; rank < 4; ++rank) {
    for (int op = 0; op < survivable_ops; ++op) {
      if (codes[rank][op] != ErrorCode::kOk) {
        std::ostringstream what;
        what << "survivable fault failed op " << op << " on rank " << rank
             << " with code " << static_cast<int>(codes[rank][op])
             << " (seed " << seed << ", flavor " << flavor << ")";
        oracle.fail("ft-survivability", what.str());
      }
    }
  }
}

// ---------------------------------------------------------------- selftest

// --------------------------------------------------------------- scaleout

/// 256 ranks under the sharded fiber engine: every rank streams a numbered
/// message train to its ring neighbour with sizes straddling the
/// eager/rendezvous switch, so the train crosses smp delivery inside nodes
/// and ch_mad at the 8 node boundaries. Oracles: per-stream non-overtaking
/// (the fiber scheduler must preserve MPI ordering however the seed
/// interleaves shard scan origins) and credit conservation over every
/// directed node pair at quiesce.
void run_scaleout(Oracle& oracle) {
  // The engine knob is read when a Session is built: pin the sharded
  // engine for this scenario only, restoring whatever the sweep runner had
  // set.
  struct EngineEnv {
    EngineEnv() {
      if (const char* old = std::getenv("MADMPI_ENGINE")) {
        had = true;
        saved = old;
      }
      ::setenv("MADMPI_ENGINE", "sharded", 1);
    }
    ~EngineEnv() {
      if (had) {
        ::setenv("MADMPI_ENGINE", saved.c_str(), 1);
      } else {
        ::unsetenv("MADMPI_ENGINE");
      }
    }
    std::string saved;
    bool had = false;
  } engine_env;

  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(8, sim::Protocol::kTcp, 32);
  options.switch_point_override = 512;  // 64 B eager, 2 KB rendezvous
  Session session(std::move(options));

  constexpr int kTrain = 4;
  constexpr int kTag = 3;
  const auto size_of = [](int seq) {
    return static_cast<std::size_t>(seq % 2 == 0 ? 64 : 2048);
  };

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    const int n = comm.size();
    const int me = comm.rank();
    const int right = (me + 1) % n;
    const int left = (me + n - 1) % n;
    // Post the whole inbound train up front with seq-dependent sizes: if
    // the stream ever overtakes, a 2 KB message lands on a 64 B receive
    // (or the pattern check fails) — either way the oracle trips.
    std::vector<std::vector<std::uint8_t>> inbox(kTrain);
    std::vector<mpi::Request> recvs;
    for (int seq = 0; seq < kTrain; ++seq) {
      inbox[static_cast<std::size_t>(seq)].resize(size_of(seq));
      auto& buffer = inbox[static_cast<std::size_t>(seq)];
      recvs.push_back(comm.irecv(buffer.data(),
                                 static_cast<int>(buffer.size()),
                                 Datatype::uint8(), left, kTag));
    }
    for (int seq = 0; seq < kTrain; ++seq) {
      std::vector<std::uint8_t> payload(size_of(seq));
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = pattern_byte(me, static_cast<std::uint64_t>(seq), i);
      }
      comm.send(payload.data(), static_cast<int>(payload.size()),
                Datatype::uint8(), right, kTag);
    }
    for (int seq = 0; seq < kTrain; ++seq) {
      const auto status = recvs[static_cast<std::size_t>(seq)].wait();
      const auto& buffer = inbox[static_cast<std::size_t>(seq)];
      bool intact = status.error == ErrorCode::kOk &&
                    status.bytes == static_cast<std::uint64_t>(buffer.size());
      for (std::size_t i = 0; intact && i < buffer.size(); ++i) {
        intact = buffer[i] ==
                 pattern_byte(left, static_cast<std::uint64_t>(seq), i);
      }
      if (!intact) {
        std::ostringstream what;
        what << "rank " << me << " seq " << seq << " from " << left
             << ": expected " << buffer.size() << " patterned bytes, got "
             << status.bytes << " (error "
             << static_cast<int>(status.error) << ")";
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle.fail("non-overtaking", what.str());
      }
    }
  });

  core::ChMadDevice* device = session.ch_mad();
  if (device == nullptr) {
    oracle.fail("credit-conservation", "no ch_mad device in the session");
    return;
  }
  const std::size_t window = device->credit_window();
  session.finalize();  // join in-flight credit threads before the audit
  for (node_id_t a = 0; a < 8; ++a) {
    for (node_id_t b = 0; b < 8; ++b) {
      if (a == b) continue;
      const std::size_t available = device->credits_available(a, b);
      const std::size_t owed = device->credits_pending_return(b, a);
      if (available + owed != window) {
        std::ostringstream what;
        what << "direction " << static_cast<int>(a) << "->"
             << static_cast<int>(b) << ": available " << available
             << " + owed " << owed << " != window " << window;
        oracle.fail("credit-conservation", what.str());
      }
    }
  }
}

/// Deliberately broken "application": it treats the delivery-order bias of
/// one fixed message identity as an invariant, which half of all seeds
/// violate. Exists to prove the kit END TO END: the sweep must catch it,
/// the recorded seed must replay it, and the shrinker must isolate the
/// delivery-order choice point as the only one that matters.
// ------------------------------------------------------- collectives_hier

/// The hierarchical collective engine under schedule perturbation, on a
/// mixed-endian cluster-of-clusters, with a p2p message train concurrently
/// in flight on the user context. Oracles: (1) bcast/allreduce/ibcast
/// results are bit-for-bit correct on every rank (integer payloads, so
/// tree shape cannot excuse a difference; byte-swap peers must see
/// converted values); (2) the p2p train obeys non-overtaking per
/// (source, tag) even while collective traffic shares the wires —
/// collective traffic lives on the shadow context and must never steal a
/// user match.
void run_collectives_hier(Oracle& oracle) {
  Session::Options options;
  // Two SCI clusters of two dual-rank nodes, TCP interconnect, with one
  // big-endian node in each cluster (heterogeneity management on).
  sim::NetworkSpec tcp;
  tcp.protocol = sim::Protocol::kTcp;
  for (int c = 0; c < 2; ++c) {
    sim::NetworkSpec sci;
    sci.protocol = sim::Protocol::kSisci;
    sci.adapter = static_cast<adapter_id_t>(c);
    for (int n = 0; n < 2; ++n) {
      sim::NodeSpec node;
      node.name = "c" + std::to_string(c) + "n" + std::to_string(n);
      node.ranks = 2;
      node.big_endian = (n == 1);
      options.cluster.nodes.push_back(node);
      sci.members.push_back(node.name);
      tcp.members.push_back(node.name);
    }
    options.cluster.networks.push_back(std::move(sci));
  }
  options.cluster.networks.push_back(std::move(tcp));
  options.switch_point_override = 1024;  // train spans eager + rendezvous
  Session session(std::move(options));

  constexpr int kRounds = 3;
  constexpr int kTrain = 6;
  constexpr int kTag = 11;
  constexpr int kCount = 600;
  const auto size_of = [](int seq) {
    return static_cast<std::size_t>(seq % 2 == 0 ? 64 : 4096);
  };

  std::mutex oracle_mutex;
  session.run([&](Comm comm) {
    mpi::CollectiveConfig config;
    config.bcast = mpi::BcastAlgorithm::kHierarchical;
    config.allreduce = mpi::AllreduceAlgorithm::kHierarchical;
    config.barrier = mpi::BarrierAlgorithm::kHierarchical;
    comm.set_collective_config(config);
    const int n = comm.size();
    const int me = comm.rank();
    const int src = (me + n - 1) % n;
    const int dst = (me + 1) % n;

    for (int round = 0; round < kRounds; ++round) {
      const auto root = static_cast<rank_t>((round * 3) % n);

      // Post the whole train's receives up front, in send order.
      std::vector<std::vector<std::uint8_t>> inbox;
      std::vector<mpi::Request> recvs;
      for (int seq = 0; seq < kTrain; ++seq) {
        inbox.emplace_back(size_of(seq));
        auto& buffer = inbox.back();
        recvs.push_back(comm.irecv(buffer.data(),
                                   static_cast<int>(buffer.size()),
                                   Datatype::uint8(), src, kTag));
      }
      std::vector<std::vector<std::uint8_t>> outbox;
      std::vector<mpi::Request> sends;
      for (int seq = 0; seq < kTrain; ++seq) {
        outbox.emplace_back(size_of(seq));
        auto& buffer = outbox.back();
        for (std::size_t i = 0; i < buffer.size(); ++i) {
          buffer[i] = pattern_byte(me, static_cast<std::uint64_t>(seq), i);
        }
        sends.push_back(comm.isend(buffer.data(),
                                   static_cast<int>(buffer.size()),
                                   Datatype::uint8(), dst, kTag));
      }

      // A nonblocking collective rides along with the train...
      std::vector<std::int32_t> istream(257, -1);
      if (me == root) {
        for (int i = 0; i < 257; ++i) istream[i] = round * 1000 + i;
      }
      mpi::Request ibcast_req =
          comm.ibcast(istream.data(), 257, Datatype::int32(), root);

      // ...while blocking hierarchical collectives run on top.
      std::vector<std::int32_t> wave(kCount, -1);
      if (me == root) {
        for (int i = 0; i < kCount; ++i) wave[i] = round * 100000 + i * 3;
      }
      comm.bcast(wave.data(), kCount, Datatype::int32(), root);

      std::vector<std::int64_t> mine(kCount), total(kCount, -1);
      for (int i = 0; i < kCount; ++i) mine[i] = me + i;
      comm.allreduce(mine.data(), total.data(), kCount, Datatype::int64(),
                     mpi::Op::sum());

      const ErrorCode icode = ibcast_req.wait().error;

      for (auto& request : sends) request.wait();
      for (auto& request : recvs) request.wait();

      std::lock_guard<std::mutex> lock(oracle_mutex);
      for (int i = 0; i < kCount; ++i) {
        oracle.expect(wave[i] == round * 100000 + i * 3, "hier-bcast-exact",
                      "rank " + std::to_string(me) + " round " +
                          std::to_string(round) + " element " +
                          std::to_string(i) + " = " + std::to_string(wave[i]));
        const std::int64_t expected =
            static_cast<std::int64_t>(n) * (n - 1) / 2 +
            static_cast<std::int64_t>(n) * i;
        oracle.expect(total[i] == expected, "hier-allreduce-exact",
                      "rank " + std::to_string(me) + " round " +
                          std::to_string(round) + " element " +
                          std::to_string(i) + " = " +
                          std::to_string(total[i]));
        if (!(wave[i] == round * 100000 + i * 3) || total[i] != expected) {
          break;  // one detailed violation per round is enough
        }
      }
      oracle.expect(icode == ErrorCode::kOk, "ibcast-completes",
                    "rank " + std::to_string(me) + " round " +
                        std::to_string(round));
      for (int i = 0; i < 257; ++i) {
        if (istream[i] != round * 1000 + i) {
          oracle.fail("ibcast-exact",
                      "rank " + std::to_string(me) + " round " +
                          std::to_string(round) + " element " +
                          std::to_string(i) + " = " +
                          std::to_string(istream[i]));
          break;
        }
      }
      for (int seq = 0; seq < kTrain; ++seq) {
        const auto& buffer = inbox[static_cast<std::size_t>(seq)];
        bool intact = true;
        for (std::size_t i = 0; i < buffer.size() && intact; ++i) {
          intact = buffer[i] ==
                   pattern_byte(src, static_cast<std::uint64_t>(seq), i);
        }
        oracle.expect(
            intact, "nonovertaking-under-collectives",
            "rank " + std::to_string(me) + " round " + std::to_string(round) +
                " seq " + std::to_string(seq) +
                " corrupted or out of order beside collective traffic");
      }
    }
    comm.barrier();
  });
}

// --------------------------------------------------------------- matching

/// Hub-pattern matcher torture, deadlock-free by construction: every peer
/// streams two interleaved trains to rank 0 — a specific train on kTag
/// (consumed by specific-source receives) and a wild train on kWildTag
/// (consumed by ANY_SOURCE receives) — with sizes straddling the
/// eager/rendezvous switch, followed by a varying-tag tail drained with
/// full ANY_SOURCE/ANY_TAG wildcards. The tag split keeps the wildcard
/// bookkeeping exact under every legal interleaving: with wildcards and
/// specific receives competing for ONE message pool, which source a
/// wildcard happens to match is schedule-dependent, and any skew starves a
/// specific receive — a legal-deadlock landmine, not a matcher bug. Split
/// by tag, the posted queues still mix wildcard and specific entries (the
/// matcher must arbitrate by post seq on every arrival) but the counts
/// balance regardless of arrival order. Oracles: statuses agree with the
/// payload header, each source's seqs climb within each stream
/// (non-overtaking), payload bytes intact, and every train completes.
void run_matching(Oracle& oracle) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2);
  options.switch_point_override = 1024;  // 64 B eager, 4 KB rendezvous
  Session session(std::move(options));

  constexpr int kTrain = 8;      // specific-stream length per source
  constexpr int kWildTrain = 4;  // ANY_SOURCE-stream length per source
  constexpr int kTail = 3;       // ANY_SOURCE/ANY_TAG drain per source
  constexpr int kTag = 7;
  constexpr int kWildTag = 9;
  constexpr int kTailTagBase = 100;
  constexpr std::size_t kCapacity = 4096;
  const auto size_of = [](int seq) {
    return static_cast<std::size_t>(seq % 2 == 0 ? 64 : 4096);
  };
  // Streams use disjoint pattern-byte lanes so a cross-matched payload
  // shows up as corruption, not a coincidental pass.
  constexpr int kWildLane = 64;
  constexpr int kTailLane = 128;

  session.run([&](Comm comm) {
    const int n = comm.size();
    const auto send_msg = [&](int seq, int lane, int tag) {
      std::vector<std::uint8_t> payload(size_of(seq));
      payload[0] = static_cast<std::uint8_t>(comm.rank());
      payload[1] = static_cast<std::uint8_t>(seq);
      for (std::size_t i = 2; i < payload.size(); ++i) {
        payload[i] = pattern_byte(comm.rank(), lane + seq, i);
      }
      comm.send(payload.data(), static_cast<int>(payload.size()),
                Datatype::uint8(), 0, tag);
    };
    if (comm.rank() != 0) {
      // Interleave the two trains in one send order so the receiver's
      // per-source FIFO crosses the tag streams, then fire the tail.
      for (int seq = 0; seq < kTrain; ++seq) {
        send_msg(seq, 0, kTag);
        if (seq % 2 == 1) send_msg(seq / 2, kWildLane, kWildTag);
      }
      for (int seq = 0; seq < kTail; ++seq) {
        send_msg(seq, kTailLane, kTailTagBase + seq);
      }
      return;
    }

    const auto check_payload = [&](const std::vector<std::uint8_t>& buffer,
                                   const mpi::MpiStatus& status, int lane,
                                   std::vector<int>& next_seq,
                                   const std::string& stream, int post) {
      const int src = buffer[0];
      const int seq = buffer[1];
      std::ostringstream at;
      at << stream << " post " << post << " src " << src << " seq " << seq;
      oracle.expect(src >= 1 && src < n, "matching-status",
                    at.str() + ": payload names an impossible source");
      if (src < 1 || src >= n) return;
      oracle.expect(status.source == src, "matching-status",
                    at.str() + ": status.source disagrees with payload");
      oracle.expect(status.bytes == size_of(seq), "matching-status",
                    at.str() + ": status.bytes disagrees with send size");
      oracle.expect(seq == next_seq[src], "non-overtaking",
                    at.str() + ": expected seq " +
                        std::to_string(next_seq[src]) +
                        " from this source next");
      next_seq[src] = seq + 1;
      bool intact = true;
      for (std::size_t b = 2; b < size_of(seq); ++b) {
        if (buffer[b] != pattern_byte(src, lane + seq, b)) {
          intact = false;
          break;
        }
      }
      oracle.expect(intact, "payload-integrity",
                    at.str() + ": payload bytes corrupted");
    };

    // Phase 1: wildcard and specific receives interleaved in one post
    // sequence — after every odd round a burst of ANY_SOURCE posts lands
    // between the specific ones, so bucket queues and the wildcard list
    // are nonempty simultaneously and every delivery arbitrates by seq.
    const int total = (n - 1) * (kTrain + kWildTrain);
    std::vector<std::vector<std::uint8_t>> inbox;
    std::vector<mpi::Request> recvs;
    std::vector<bool> wildcard;
    for (int round = 0; round < kTrain; ++round) {
      for (int src = 1; src < n; ++src) {
        inbox.emplace_back(kCapacity);
        recvs.push_back(comm.irecv(inbox.back().data(),
                                   static_cast<int>(kCapacity),
                                   Datatype::uint8(), src, kTag));
        wildcard.push_back(false);
      }
      if (round % 2 == 1) {
        for (int burst = 1; burst < n; ++burst) {
          inbox.emplace_back(kCapacity);
          recvs.push_back(comm.irecv(inbox.back().data(),
                                     static_cast<int>(kCapacity),
                                     Datatype::uint8(), mpi::kAnySource,
                                     kWildTag));
          wildcard.push_back(true);
        }
      }
    }
    std::vector<int> next_seq(n, 0);
    std::vector<int> wild_seq(n, 0);
    for (int i = 0; i < total; ++i) {
      auto status = recvs[i].wait();
      if (wildcard[i]) {
        oracle.expect(status.tag == kWildTag, "matching-status",
                      "wildcard post " + std::to_string(i) +
                          ": status.tag disagrees with the wild train tag");
        check_payload(inbox[i], status, kWildLane, wild_seq, "wildcard", i);
      } else {
        oracle.expect(status.tag == kTag, "matching-status",
                      "specific post " + std::to_string(i) +
                          ": status.tag disagrees with the train tag");
        check_payload(inbox[i], status, 0, next_seq, "specific", i);
      }
    }

    // Phase 2: ANY_SOURCE/ANY_TAG drain of the varying-tag tail. Phase 1
    // consumed tags 7/9 exactly, so only tail messages remain; an
    // all-wildcard drain matches any arrival order — deadlock-free.
    std::vector<int> tail_seq(n, 0);
    for (int i = 0; i < (n - 1) * kTail; ++i) {
      std::vector<std::uint8_t> buffer(kCapacity);
      auto status = comm.recv(buffer.data(), static_cast<int>(kCapacity),
                              Datatype::uint8(), mpi::kAnySource,
                              mpi::kAnyTag);
      oracle.expect(status.tag == kTailTagBase + buffer[1],
                    "matching-status",
                    "tail post " + std::to_string(i) +
                        ": status.tag disagrees with the tail tag scheme");
      check_payload(buffer, status, kTailLane, tail_seq, "tail", i);
    }

    for (int src = 1; src < n; ++src) {
      const std::string who = "source " + std::to_string(src);
      oracle.expect(next_seq[src] == kTrain, "completeness",
                    who + " did not deliver its full specific train");
      oracle.expect(wild_seq[src] == kWildTrain, "completeness",
                    who + " did not deliver its full wild train");
      oracle.expect(tail_seq[src] == kTail, "completeness",
                    who + " did not deliver its full tail train");
    }
  });
}

void run_selftest(Oracle& oracle) {
  auto* sched = sim::ScheduleController::current();
  if (sched == nullptr) return;  // unperturbed runs are fine by definition
  const usec_t bias = sched->delivery_bias_us(/*dst=*/0, /*src=*/1,
                                              /*seq=*/0);
  if (bias > 2.5) {
    std::ostringstream what;
    what << "injected violation: delivery bias " << bias
         << " us for message (dst=0, src=1, seq=0) exceeded the planted "
            "2.5 us invariant (seed "
         << sched->seed() << ")";
    oracle.fail("selftest", what.str());
  }
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      {"nonovertaking",
       "message trains across the eager/rendezvous switch stay in order",
       &run_nonovertaking},
      {"probe",
       "MPI_Probe reports exactly the message the next receive delivers",
       &run_probe},
      {"flowcontrol",
       "credit windows conserve every byte at quiesce, under drops",
       &run_flowcontrol},
      {"faults",
       "a survivable link kill loses no messages (failover to TCP)",
       &run_faults},
      {"forwarding",
       "gateway-relayed trains arrive ordered and intact", &run_forwarding},
      {"watchdog",
       "the watchdog cancels unreachable operations and only those",
       &run_watchdog},
      {"zerocopy",
       "pooled-chunk payloads stay intact across retransmits and the "
       "unexpected store",
       &run_zerocopy},
      {"rma",
       "one-sided epochs: fence/unlock visibility and epoch enforcement "
       "under drops",
       &run_rma},
      {"ft_collectives",
       "fault-tolerant collectives agree uniformly and survive link faults",
       &run_ft_collectives},
      {"scaleout",
       "256-rank trains under the sharded engine stay ordered and conserve "
       "credits",
       &run_scaleout},
      {"matching",
       "wildcard/specific receive interleavings preserve per-source order "
       "and status correctness",
       &run_matching},
      {"collectives_hier",
       "hierarchical collectives stay bit-exact on a mixed-endian "
       "meta-cluster with p2p trains in flight",
       &run_collectives_hier},
      {"selftest",
       "planted violation: proves the sweep catches, replays and shrinks",
       &run_selftest},
  };
  return all;
}

}  // namespace madmpi::conformance
