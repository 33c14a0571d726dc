// ch_mad packet structure (paper Section 4.2.1, Figure 5).
//
// Every MPI message is one Madeleine message built from one or two packets:
// a header packed EXPRESS (it carries what is needed to unpack the body)
// and, for data-bearing types only, a body packed CHEAPER. The five packet
// types mirror the paper exactly; flow control and one-sided traffic add
// one type each.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpi/rma.hpp"
#include "mpi/types.hpp"

namespace madmpi::core {

enum class PacketType : std::uint8_t {
  kShort = 1,      // MAD_SHORT_PKT: eager data (header + body)
  kRndvRequest,    // MAD_REQUEST_PKT: rendezvous request (header only)
  kRndvOkToSend,   // MAD_SENDOK_PKT: rendezvous ack (header only)
  kRndvData,       // MAD_RNDV_PKT: rendezvous data (header + body)
  kTerm,           // MAD_TERM_PKT: program termination (empty buffer)
  kCredit,         // MAD_CREDIT_PKT: flow-control credit return
                   // (header only; used when no reverse traffic exists
                   // to piggyback credits on)

  kRma,            // one-sided extension (no paper equivalent): the
                   // descriptor's rma.kind picks the handler; puts,
                   // accumulates and get replies carry a body
};

/// The fixed header carried EXPRESS with every ch_mad message. Contains the
/// type field plus the union-ish buffer of Figure 5 (here laid out flat:
/// unused fields are zero for types that do not need them).
struct PacketHeader {
  PacketType type = PacketType::kShort;

  // Routing: nodes may host several ranks, so the destination rank
  // identifies the matching context on the receiving node.
  rank_t src_global = kInvalidRank;
  rank_t dst_global = kInvalidRank;

  // MPI envelope (kShort, kRndvRequest).
  mpi::Envelope envelope;

  // Rendezvous bookkeeping:
  //  - kRndvRequest carries the sender's pending-send handle;
  //  - kRndvOkToSend echoes it and adds the receiver's sync_address
  //    (the MPID_RNDV_T hook of the paper: here an index into the
  //    receiver's rhandle table rather than a raw pointer);
  //  - kRndvData carries the sync_address so the polling thread can find
  //    the rhandle responsible for the transaction.
  std::uint64_t sender_handle = 0;
  std::uint64_t sync_address = 0;

  // Flow control: credits (in bytes) this node returns to the receiver of
  // the packet. Piggybacks on any reverse-direction packet (kRndvOkToSend
  // in particular) and rides alone on kCredit when the receiving side has
  // nothing else to say. `credit_origin` names the node RETURNING the
  // credits (the eager receiver whose store drained); the packet's
  // destination refills its per-peer account keyed by that node. Carried
  // explicitly so forwarded packets credit the right account.
  std::uint64_t credit_bytes = 0;
  node_id_t credit_origin = kInvalidNode;

  // One-sided descriptor (kRma only; zero otherwise). For replies
  // (kGetReply/kLockGrant/kAck) `sender_handle` echoes the origin's
  // pending-operation handle. MUST stay the last member: the wire carries
  // it only on kRma packets (see kBaseHeaderBytes).
  mpi::RmaDesc rma;
};

/// Wire size of the header on two-sided packets. RMA packets append the
/// descriptor as a second EXPRESS block; everything else sends only the
/// base bytes, so the paper-era header does not grow by sizeof(RmaDesc).
inline constexpr std::size_t kBaseHeaderBytes = offsetof(PacketHeader, rma);

}  // namespace madmpi::core
