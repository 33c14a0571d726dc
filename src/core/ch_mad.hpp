// The ch_mad device: inter-node communication over Madeleine (paper §4).
//
// One device handles every network simultaneously: each message picks the
// best common channel to its destination (ChannelRouter), is built as one
// Madeleine message — an EXPRESS header packet plus, for data-bearing
// types, a CHEAPER body packet — and is received by one persistent poller
// per channel (Marcel poll server, a loop on the session's executor). Two
// transfer modes, selected by the single elected switch point:
//
//   eager       MAD_SHORT_PKT; intermediary copy on the receiving side.
//   rendezvous  MAD_REQUEST_PKT -> MAD_SENDOK_PKT (carrying the receiver's
//               sync_address) -> MAD_RNDV_PKT delivered zero-copy into the
//               posted buffer; the receiver's control thread waits on the
//               rhandle semaphore (here: the request's completion). The
//               sender's buffer is lent to the wire, not copied; the send
//               completes when the last wire reference to it drops.
//
// Polling threads never send (deadlock avoidance, §4.2.3): acks, data
// pushes, credit returns and one-sided replies are temporary threads, run
// in place as a host send never blocks (marcel::Executor::run_here).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/directory.hpp"
#include "core/managed_device.hpp"
#include "core/packet.hpp"
#include "core/routing.hpp"
#include "mad/madeleine.hpp"
#include "marcel/executor.hpp"
#include "marcel/poll_server.hpp"
#include "mpi/adi.hpp"

namespace madmpi::core {

class ChMadDevice final : public ManagedDevice {
 public:
  struct Config {
    /// Ablation hook: force the eager/rendezvous switch point instead of
    /// the paper's election rule.
    std::optional<std::size_t> switch_point_override;

    /// Gateway forwarding (the paper's §6 future work): dedicated
    /// channels, one per network, carrying ForwardHeader-wrapped ch_mad
    /// messages across nodes that share no direct network. Empty disables
    /// forwarding.
    std::vector<mad::Channel*> forward_channels;

    /// Per-peer eager credit window in bytes. 0 derives the window from
    /// the elected switch point (default_credit_window); SIZE_MAX
    /// disables flow control entirely. A sender whose window runs dry
    /// demotes the transfer to rendezvous (buffers nothing remotely).
    std::size_t credit_window_bytes = 0;
  };

  // Two overloads rather than `Config config = {}`: the Config default
  // member initializers are not parsed until the enclosing class is
  // complete, so a braced default argument cannot see them here.
  ChMadDevice(RankDirectory& directory, std::vector<mad::Channel*> channels);
  ChMadDevice(RankDirectory& directory, std::vector<mad::Channel*> channels,
              Config config);
  ~ChMadDevice() override;

  // --- mpi::Device ----------------------------------------------------
  const char* name() const override { return "ch_mad"; }
  std::size_t rendezvous_threshold() const override { return switch_point_; }
  bool reaches(rank_t src, rank_t dst) const override;
  Status send(rank_t src, rank_t dst, const mpi::Envelope& env,
              byte_span packed, mpi::TransferMode mode) override;
  bool admit_eager(rank_t src, rank_t dst, std::uint64_t bytes) override;

  /// MPI_Cancel on a send: detach a rendezvous send still waiting for its
  /// OK_TO_SEND and complete it with kCancelled. A send whose data push
  /// already started has left the table: it is past the point of no return
  /// and completes normally. A late OK_TO_SEND for the cancelled handle is
  /// dropped by the existing stale-handle path.
  bool try_cancel_send(rank_t src, rank_t dst,
                       const mpi::Envelope& env) override;

  /// Nonblocking rendezvous: the REQUEST is injected on the calling
  /// thread (keeping per-source frame order intact for the matching
  /// layer), and the data push completes `state` from the polling
  /// machinery instead of unparking a waiting sender.
  void isend_rendezvous(rank_t src, rank_t dst, const mpi::Envelope& env,
                        byte_span packed, std::vector<std::byte> owned,
                        std::shared_ptr<mpi::RequestState> state) override;

  /// One-sided verbs (MPI-3 RMA over the slab pool). Data-bearing ops are
  /// fire-and-forget: the packet is injected (kRmaDirect where the driver
  /// supports it) and epoch completion travels through the kSync/kUnlock
  /// cumulative ledger. Ops expecting a reply register `completion` in the
  /// origin node's pending table, completed by the polling thread.
  bool supports_rma() const override { return true; }
  Status rma(rank_t src, rank_t dst, const mpi::RmaDesc& desc,
             byte_span payload, void* get_dest,
             std::shared_ptr<mpi::RequestState> completion) override;

  // --- lifecycle --------------------------------------------------------
  /// Start the pollers (one per channel per member node) as loops on
  /// `executor`.
  void start(marcel::Executor& executor) override;

  /// Distributed termination: every node broadcasts MAD_TERM_PKT on every
  /// channel; pollers exit once all peers' terminations arrived. Must be
  /// called after all application traffic has quiesced.
  void shutdown() override;

  // --- introspection ------------------------------------------------------
  const ChannelRouter& router() const { return router_; }
  std::size_t switch_point() const { return switch_point_; }
  bool forwarding_enabled() const { return forward_router_.has_value(); }
  const ForwardRouter* forward_router() const {
    return forward_router_ ? &*forward_router_ : nullptr;
  }

  /// Per-device message counters (tests / ablations).
  std::uint64_t eager_sent() const { return eager_sent_.load(); }
  std::uint64_t rendezvous_sent() const { return rendezvous_sent_.load(); }
  std::uint64_t forwarded() const { return forwarded_.load(); }
  std::uint64_t failovers() const { return failovers_.load(); }
  std::uint64_t eager_demoted() const { return eager_demoted_.load(); }
  /// Always 0: a dry window demotes, it never stalls a sender.
  std::uint64_t credit_stalls() const { return 0; }
  std::uint64_t credit_packets() const { return credit_packets_.load(); }
  std::uint64_t rma_ops_sent() const { return rma_ops_sent_.load(); }

  // --- flow control -----------------------------------------------------
  std::size_t credit_window() const { return credit_window_; }

  /// Credits `src_node` currently holds towards `dst_node` (tests).
  std::size_t credits_available(node_id_t src_node, node_id_t dst_node);

  /// Credits `node` has consumed on behalf of `peer` but not yet returned
  /// (tests: available + pending_return == window at quiesce).
  std::size_t credits_pending_return(node_id_t node, node_id_t peer);

  /// Rendezvous sends currently parked on `node` (tests: await the
  /// registration of an in-flight isend before cancelling it).
  std::size_t pending_send_count(node_id_t node);

  // --- progress watchdog ------------------------------------------------
  /// Route liveness predicate: true when `from` can no longer deliver to
  /// `to` by any means (direct channels and forwarding alike).
  using RouteDead = std::function<bool(node_id_t from, node_id_t to)>;

  /// Cancel rendezvous transactions whose peer can no longer answer:
  /// pending sends still waiting for OK_TO_SEND from an unreachable
  /// receiver, and rhandles whose data sender is unreachable. Completed
  /// with kTimedOut, stamped a deterministic `horizon` after the
  /// transaction started. Returns how many operations were canceled.
  std::size_t watchdog_sweep(const RouteDead& route_dead, usec_t horizon);

 private:
  /// A rendezvous send awaiting its OK_TO_SEND in `pending_sends`. The
  /// entry leaves the table when a cancel, the watchdog or the ack claims
  /// it; the ack hands `data`, `owned` and `completion` to push_lent.
  struct PendingSend {
    byte_span data;
    PacketHeader header;
    node_id_t peer_node = kInvalidNode;
    usec_t started_at = 0.0;
    /// Heap-allocated and owned by whichever path claims it (ack, cancel
    /// or watchdog). `completion` is what a blocking sender waits on;
    /// `owned`, when non-empty, is the staging buffer backing `data`.
    std::shared_ptr<mpi::RequestState> completion;
    std::vector<std::byte> owned;
    std::uint64_t handle = 0;
  };

  struct Rhandle {
    mpi::PostedRecv posted;
    node_id_t origin_node = kInvalidNode;  // where kRndvData comes from
    usec_t created_at = 0.0;
  };

  /// An origin-side one-sided operation awaiting its reply (get, lock,
  /// sync, unlock). Keyed by the handle echoed in the reply's
  /// sender_handle field.
  struct RmaPending {
    std::shared_ptr<mpi::RequestState> completion;
    void* get_dest = nullptr;       // kGetReply lands here
    std::uint64_t bytes = 0;        // expected reply payload (gets)
  };

  /// Sender-side credit account towards one peer (guarded by the owning
  /// NodeState's mutex).
  struct CreditAccount {
    bool initialized = false;
    std::size_t available = 0;
  };

  /// Per member node: the polling server plus the rendezvous tables.
  struct NodeState {
    sim::Node* node = nullptr;
    std::unique_ptr<marcel::PollServer> poll_server;

    std::mutex mutex;
    std::uint64_t next_send_handle = 1;
    std::map<std::uint64_t, PendingSend*> pending_sends;
    std::uint64_t next_rhandle = 1;
    std::map<std::uint64_t, Rhandle> rhandles;
    std::uint64_t next_rma_handle = 1;
    std::map<std::uint64_t, RmaPending> rma_pending;

    /// Flow control (guarded by `mutex`): credits this node holds towards
    /// each peer, and consumed-but-unreturned credits owed *to* each peer.
    std::map<node_id_t, CreditAccount> credits;
    std::map<node_id_t, std::size_t> pending_returns;
    /// Credit batches flushed per peer — the sequence number the
    /// ScheduleController's batching perturbation is keyed on.
    std::map<node_id_t, std::uint64_t> credit_epochs;
  };

  NodeState& state_of(node_id_t node);
  void handle_message(NodeState& state, mad::Unpacking& incoming,
                      int* terms_seen);

  /// Transmit one ch_mad packet from node to node: directly over the best
  /// common *live* channel, or wrapped in a ForwardHeader over a
  /// forwarding channel towards the next-hop gateway. When delivery over
  /// the elected channel fails (link died), the route is re-elected and
  /// the packet retried on the next-best protocol — the multi-protocol
  /// failover the paper's architecture makes possible. Returns non-ok
  /// (kUnreachable) only when no route remains.
  /// `rma_data` marks one-sided traffic: the elected channel charges its
  /// rma_put_us initiation cost and, when the driver supports it, the
  /// packet travels DeliveryMode::kRmaDirect.
  Status send_packet(node_id_t src_node, node_id_t dst_node,
                     const PacketHeader& header, byte_span body = {},
                     bool rma_data = false) {
    return transmit_packet(src_node, dst_node, header, body, nullptr,
                           rma_data);
  }
  /// Chunk form: `body` (lent memory) travels by reference through
  /// Packing::pack_chunk — the same wire layout and virtual charges as the
  /// span form, whose pack() stages the body into a pooled slab.
  Status send_packet(node_id_t src_node, node_id_t dst_node,
                     const PacketHeader& header, const ChunkRef& body) {
    return transmit_packet(src_node, dst_node, header, body.span(), &body,
                           false);
  }
  Status transmit_packet(node_id_t src_node, node_id_t dst_node,
                         const PacketHeader& header, byte_span body,
                         const ChunkRef* chunk, bool rma_data);

  /// Routing header prepended (EXPRESS) to every message on a forwarding
  /// channel.
  struct ForwardHeader {
    node_id_t origin = kInvalidNode;     // first sender
    node_id_t final_dst = kInvalidNode;  // ultimate receiver
    std::uint16_t hops = 0;              // incremented per gateway
  };

  /// Relay a forwarded message one hop further (runs on a forwarding
  /// channel's polling thread on the gateway node).
  void relay(node_id_t me, ForwardHeader fwd, mad::Unpacking& incoming);

  /// One-sided replies (lock grants, fence acks, get replies) are
  /// temporary threads too; `body` holds a get reply's bytes.
  void post_rma_reply(NodeState& state, node_id_t dst_node,
                      PacketHeader header, ChunkRef body);
  /// Register a rendezvous send that completes `completion` and inject its
  /// REQUEST on the calling thread (per-source program order, which the
  /// matching layer's FIFO relies on). A REQUEST that cannot leave
  /// returns the error and leaves `completion` to the caller.
  Status start_rendezvous(rank_t src, rank_t dst, const mpi::Envelope& env,
                          byte_span packed, std::vector<std::byte> owned,
                          std::shared_ptr<mpi::RequestState> completion);
  /// A cancel's or the watchdog's end of a rendezvous send that left
  /// pending_sends unpushed: complete its request with `error` on the
  /// caller's lane and free the entry.
  static void fail_pending_send(PendingSend* pending, ErrorCode error);

  /// Credit bookkeeping. `account_of` lazily opens an account at the full
  /// window; `credit_consumed` runs when the destination rank drains an
  /// eager payload and decides whether the accumulated debt is worth a
  /// packet; `apply_credit` handles an inbound refill; `refund_credit`
  /// undoes an admission whose eager send failed.
  CreditAccount& account_of(NodeState& state, node_id_t peer);
  void credit_consumed(node_id_t me, node_id_t origin, std::size_t charge);
  void apply_credit(NodeState& state, const PacketHeader& header);
  void refund_credit(node_id_t src_node, node_id_t dst_node,
                     std::size_t charge);

  /// Take (and zero) the credits owed to `peer`, for piggybacking on an
  /// outbound packet. The caller must return them on send failure.
  std::size_t take_pending_returns(NodeState& state, node_id_t peer);

  /// Device-level cost of dispatching one received packet (beyond Marcel's
  /// wake + interference, charged by the poll server).
  static constexpr usec_t kDispatchUs = 1.0;

  RankDirectory& directory_;
  ChannelRouter router_;
  ChannelRouter forward_channels_router_;
  std::optional<ForwardRouter> forward_router_;
  std::size_t switch_point_;
  std::size_t credit_window_ = 0;  // 0 = flow control disabled
  std::map<node_id_t, std::unique_ptr<NodeState>> states_;
  bool started_ = false;

  std::atomic<std::uint64_t> eager_sent_{0};
  std::atomic<std::uint64_t> rendezvous_sent_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> eager_demoted_{0};
  std::atomic<std::uint64_t> credit_packets_{0};
  std::atomic<std::uint64_t> rma_ops_sent_{0};
};

}  // namespace madmpi::core
