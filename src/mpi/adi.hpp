// The Abstract Device Interface (paper Section 2.2).
//
// The generic MPI layer talks to devices exclusively through this
// interface: a device moves packed bytes between two global ranks and
// delivers them into the destination rank's matching context. The choice
// between the eager and rendezvous transfer modes is made by the generic
// layer from the device's single switch-point value — deliberately a single
// integer, mirroring the MPID_Device limitation the paper works around in
// §4.2.2 (one threshold per device, even when the device multiplexes
// several networks).
#pragma once

#include <memory>

#include "mpi/matching.hpp"
#include "mpi/request.hpp"
#include "mpi/rma.hpp"
#include "mpi/types.hpp"

namespace madmpi::mpi {

class Device {
 public:
  virtual ~Device() = default;

  virtual const char* name() const = 0;

  /// The eager->rendezvous switch point in bytes (messages strictly larger
  /// use the rendezvous mode).
  virtual std::size_t rendezvous_threshold() const = 0;

  /// Transfer `packed` from `src` to `dst` (global ranks). Blocking:
  /// returns once the message is locally complete — immediately after
  /// injection for eager, after the data transfer for rendezvous. The
  /// device is responsible for all virtual-time accounting on both sides
  /// and for delivering into the destination RankContext. Non-ok when the
  /// message could not be delivered (all routes to the destination dead);
  /// the generic layer maps it onto the MPI error of the operation.
  virtual Status send(rank_t src, rank_t dst, const Envelope& env,
                      byte_span packed, TransferMode mode) = 0;

  /// True when the topology this device was built on connects src and
  /// dst. Link health is not consulted: send() over a pair whose every
  /// route has died returns kUnreachable.
  virtual bool reaches(rank_t src, rank_t dst) const = 0;

  /// Flow-control admission for an eager transfer of `bytes` from `src`
  /// to `dst`. Devices with sender-side credit windows deduct a credit
  /// here; a false return tells the generic layer to demote the transfer
  /// to rendezvous (which consumes no receive-side buffer), so admission
  /// never blocks. Default: no flow control.
  virtual bool admit_eager(rank_t src, rank_t dst, std::uint64_t bytes) {
    (void)src;
    (void)dst;
    (void)bytes;
    return true;
  }

  /// Nonblocking rendezvous send. The device injects the rendezvous
  /// REQUEST on the calling thread — preserving the per-source frame
  /// order the matching layer's FIFO rule rests on (a detached sender
  /// thread could otherwise inject its request after a later eager frame
  /// from the same rank, and the receiver would match them in arrival
  /// order) — then completes `state` from its own progress machinery once
  /// the data push finishes, or at once when the request cannot leave.
  /// `packed` must stay valid until `state` completes; `owned`, when
  /// non-empty, is the staging buffer backing `packed` and transfers
  /// ownership to the device.
  virtual void isend_rendezvous(rank_t src, rank_t dst, const Envelope& env,
                                byte_span packed,
                                std::vector<std::byte> owned,
                                std::shared_ptr<RequestState> state) = 0;

  /// Best-effort cancellation of an in-flight send from `src` to `dst`
  /// whose envelope matches `env` (MPI_Cancel on a send request). True
  /// when the device detached the transfer — it then completes the
  /// sender's wait with ErrorCode::kCancelled. The default cannot cancel:
  /// devices that complete sends inline have nothing left in flight.
  virtual bool try_cancel_send(rank_t src, rank_t dst, const Envelope& env) {
    (void)src;
    (void)dst;
    (void)env;
    return false;
  }

  /// One-sided extension (MPI-3 RMA; no MPID equivalent — the paper's ADI
  /// predates it). True when the device can execute `rma()`.
  virtual bool supports_rma() const { return false; }

  /// Issue one one-sided operation from `src` towards the window named in
  /// `desc` on `dst`. `payload` carries the origin data for puts and
  /// accumulates; `get_dest` is where a get's reply lands. Data-bearing
  /// ops are fire-and-forget (epoch completion travels through the
  /// kSync/kUnlock ledger); ops that need a reply (get, lock, sync,
  /// unlock) complete `completion` when the reply arrives. The default
  /// device has no one-sided support.
  virtual Status rma(rank_t src, rank_t dst, const RmaDesc& desc,
                     byte_span payload, void* get_dest,
                     std::shared_ptr<RequestState> completion) {
    (void)src;
    (void)dst;
    (void)desc;
    (void)payload;
    (void)get_dest;
    (void)completion;
    return Status(ErrorCode::kProtocol,
                  "device has no one-sided (RMA) support");
  }

  /// Transfer mode for a message of `bytes` under this device's protocol
  /// selection (MPI_Ssend forces the rendezvous handshake so completion
  /// implies a matching receive).
  TransferMode select_mode(std::uint64_t bytes, bool synchronous) const {
    if (synchronous) return TransferMode::kRendezvous;
    return bytes > rendezvous_threshold() ? TransferMode::kRendezvous
                                          : TransferMode::kEager;
  }
};

}  // namespace madmpi::mpi
