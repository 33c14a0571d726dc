// Native single-protocol MPI devices: the comparators of the paper's
// evaluation (ch_p4, ScaMPI, SCI-MPICH's ch_smi, MPI-GM, MPICH-PM).
//
// These implementations were closed-source or are long unavailable, so we
// rebuild their *architecture*: a device wired directly onto one network
// driver — no Madeleine packing layers, no Marcel polling server, no
// multi-protocol routing — with per-implementation software constants
// calibrated to the published curves. The structural contrast with ch_mad
// (which pays the generic layers but wins on zero-copy rendezvous and
// multi-protocol reach) is therefore real code, not a synthetic curve.
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "core/directory.hpp"
#include "core/managed_device.hpp"
#include "net/driver.hpp"
#include "sim/topology.hpp"

namespace madmpi::baselines {

/// Everything that distinguishes one native implementation from another.
struct NativeProfile {
  std::string name;
  sim::Protocol protocol = sim::Protocol::kTcp;

  /// NIC model; defaults to the protocol's calibrated model but may be
  /// tweaked (MPICH-PM ran RWCP's PM firmware, not BIP).
  sim::LinkCostModel nic_model;

  /// Fixed software cost per message on each side (above the driver).
  usec_t sw_send_us = 0.0;
  usec_t sw_recv_us = 0.0;

  /// Non-pipelined extra copies of the implementation's buffering scheme,
  /// charged per payload byte on each side (this is what caps ch_p4 at
  /// ~10 MB/s and ScaMPI at ~65 MB/s).
  double extra_copy_send_per_byte = 0.0;
  double extra_copy_recv_per_byte = 0.0;

  /// Eager/rendezvous switch point; ~infinite when the implementation has
  /// no effective large-message protocol (ch_p4's flat ceiling).
  std::size_t eager_threshold = static_cast<std::size_t>(-1);

  /// Extra fixed cost of one rendezvous handshake.
  usec_t rndv_handshake_us = 0.0;

  /// Whether rendezvous data lands zero-copy in the posted buffer.
  bool rndv_zero_copy = true;

  /// Per-byte cost of the long-message path when rndv_zero_copy is false
  /// (e.g. MPI-GM's staging through GM's registered buffers).
  double extra_copy_rndv_per_byte = 0.0;
};

/// The five published comparators.
NativeProfile ch_p4_profile();      // MPICH ch_p4 over TCP (Fig. 6)
NativeProfile scampi_profile();     // Scali ScaMPI over SCI (Fig. 7)
NativeProfile sci_mpich_profile();  // RWTH SCI-MPICH ch_smi (Fig. 7)
NativeProfile mpi_gm_profile();     // Myricom MPICH-GM (Fig. 8)
NativeProfile mpich_pm_profile();   // RWCP MPICH-PM/SCore (Fig. 8)

NativeProfile profile_by_name(const std::string& name);

class NativeDevice final : public core::ManagedDevice {
 public:
  /// Builds the device's private transport over the first network of
  /// `cluster` matching the profile's protocol, using a dedicated adapter
  /// so its NIC model can differ from the default one.
  NativeDevice(NativeProfile profile, sim::Fabric& fabric,
               const sim::ClusterSpec& cluster,
               core::RankDirectory& directory);
  ~NativeDevice() override;

  const char* name() const override { return profile_.name.c_str(); }
  std::size_t rendezvous_threshold() const override {
    return profile_.eager_threshold;
  }
  bool reaches(rank_t src, rank_t dst) const override;
  Status send(rank_t src, rank_t dst, const mpi::Envelope& env,
              byte_span packed, mpi::TransferMode mode) override;

  /// Nonblocking rendezvous: charge the send-side software cost, register
  /// the send and inject its REQUEST on the calling thread; the poller's
  /// data push completes `completion`. The blocking rendezvous send is
  /// this plus a wait.
  void isend_rendezvous(rank_t src, rank_t dst, const mpi::Envelope& env,
                        byte_span packed, std::vector<std::byte> owned,
                        std::shared_ptr<mpi::RequestState> completion) override;

  void start(marcel::Executor& executor) override;
  void shutdown() override;

  const NativeProfile& profile() const { return profile_; }

  /// NICs created for baseline transports use this adapter id so they do
  /// not collide with the default channels' NICs.
  static constexpr adapter_id_t kAdapter = 100;

 private:
  struct WireHeader;
  /// A rendezvous send awaiting its ack. `owned`, when non-empty, is the
  /// staging buffer backing `data`. The ack hands all but `envelope` to
  /// push_lent.
  struct PendingSend {
    byte_span data;
    std::vector<std::byte> owned;
    std::shared_ptr<mpi::RequestState> completion;
    mpi::Envelope envelope;
  };
  struct Rhandle {
    mpi::PostedRecv posted;
  };
  struct NodeState {
    sim::Node* node = nullptr;
    std::future<void> polled;  // ready once the poll loop returned
    std::mutex send_mutex;  // serializes transmit() (see there)
    std::mutex mutex;
    std::uint64_t next_handle = 1;
    std::map<std::uint64_t, std::unique_ptr<PendingSend>> pending_sends;
    std::map<std::uint64_t, Rhandle> rhandles;
  };

  /// The header of one `src` -> `dst` message of `bytes` payload bytes,
  /// after charging the sender the implementation's software cost.
  WireHeader charged_header(rank_t src, rank_t dst, const mpi::Envelope& env,
                            std::size_t bytes);
  void poll_loop(NodeState& state, net::Endpoint& endpoint, int peers);
  /// Send one message: `header` built in the endpoint pool's chunk
  /// writer, then `payload`, when not empty, as one separate block.
  void transmit(net::Endpoint& endpoint, node_id_t dst,
                const WireHeader& header, const ChunkRef& payload,
                bool zero_copy);
  NodeState& state_of(node_id_t node);

  NativeProfile profile_;
  core::RankDirectory& directory_;
  std::unique_ptr<net::Driver> driver_;
  std::unique_ptr<net::ChannelTransport> transport_;
  std::map<node_id_t, std::unique_ptr<NodeState>> states_;
  bool started_ = false;
};

}  // namespace madmpi::baselines
