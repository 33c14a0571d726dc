// Network drivers: the protocol-specific bottom of the Madeleine stack
// (what Madeleine II calls "transfer modules"). A driver knows how to move
// a message — one aggregated control buffer plus optional separate data
// blocks — between two endpoints of the same network, and how to plan the
// transfer of a user block (aggregate-and-copy vs separate frame vs
// zero-copy) for its protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/slab_pool.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/fabric.hpp"
#include "sim/fault.hpp"
#include "sim/topology.hpp"

namespace madmpi::net {

/// Frame kinds used on the wire by all drivers.
enum FrameKind : std::uint16_t {
  kControlFrame = 1,  // aggregated EXPRESS data + small CHEAPER blocks
  kDataFrame = 2,     // one separate CHEAPER block
  kAbortFrame = 3,    // sender gave up mid-message (fault injection)
};

/// Delivery class of an outgoing message.
enum class DeliveryMode {
  /// Regular traffic: subject to fault injection, retransmission, and
  /// failure reporting.
  kNormal,
  /// Out-of-band teardown control (channel termination packets): bypasses
  /// fault injection so shutdown always completes, even over dead links.
  kTeardown,
  /// One-sided data the NIC lands directly in registered window memory
  /// (SISCI remote-mapped PIO, BIP DMA). Transfer mechanics match kNormal
  /// (fault injection included); the mode marks frames whose payload needs
  /// no receive-side bounce, for drivers that honour it.
  kRmaDirect,
};

/// How a driver wants to move one user block.
struct BlockPlan {
  /// Copy the block into the message's control buffer (good for small
  /// blocks: no extra frame).
  bool aggregate = false;
  /// When sent separately, the NIC can deliver into a posted user buffer
  /// without a bounce copy.
  bool zero_copy = false;
};

/// One separate (non-aggregated) block of an outgoing message in the
/// borrowed-span form, which only the transport tests and perfbench's net
/// rung still use; the library sends OutBlocks.
struct DataBlock {
  byte_span data;
  bool zero_copy = false;
};

/// One separate block already staged in a pooled chunk (or lent, see
/// ChunkRef::lend): the frame takes the reference, no further copies
/// happen on the send side.
struct OutBlock {
  ChunkRef chunk;
  bool zero_copy = false;
};

class Endpoint;

/// An incoming message being consumed: the control frame plus a stream of
/// separate data frames from the same source, delivered in order.
class IncomingMessage {
 public:
  IncomingMessage(Endpoint* endpoint, sim::Frame control)
      : endpoint_(endpoint), control_(std::move(control)) {}

  node_id_t source() const { return control_.src_node; }
  byte_span control_payload() const { return control_.payload.contiguous(); }
  /// Refcounted view of a control-payload range: lets receivers keep the
  /// wire bytes alive (e.g. in the unexpected store) without copying.
  ChunkRef control_chunk(std::size_t offset, std::size_t length) const {
    return control_.payload.slice(offset, length);
  }

  /// Blocking: next separate data frame of this message. Protocol error if
  /// the message had no further frames. May return a kAbortFrame when the
  /// sender gave up mid-message (fault injection); callers must check
  /// `frame.kind` before consuming the payload.
  sim::Frame take_data_block();

  bool control_was_last() const { return control_.last_of_message; }

 private:
  Endpoint* endpoint_;
  sim::Frame control_;
};

/// A channel endpoint on one node: the send side towards every peer and the
/// receive queue for the whole channel. Created by ChannelTransport.
class Endpoint {
 public:
  Endpoint(sim::Node& node, const sim::LinkCostModel& model, sim::Port& port,
           SlabPool* pool = nullptr);

  node_id_t node_id() const { return node_.id(); }
  sim::Node& node() { return node_; }
  const sim::LinkCostModel& model() const { return model_; }
  /// The channel's slab pool (global pool when standalone).
  SlabPool& pool() { return *pool_; }

  /// Register the outgoing path to a peer (done by ChannelTransport).
  void add_peer(node_id_t peer, sim::WirePath path);

  bool has_peer(node_id_t peer) const;

  /// Send one message: charges the sender clock with the protocol's send
  /// overhead, transmits the control frame then each separate block on the
  /// same serialized link. `blocks[i].zero_copy` follows the BlockPlan.
  ///
  /// Under an attached FaultPlan, lost frames are retransmitted with
  /// exponential backoff (virtual-clock charged). Returns non-ok when the
  /// peer link is dead or retries are exhausted; if the control frame was
  /// already delivered, the receiver gets a kAbortFrame so it can discard
  /// the partial message instead of blocking forever.
  Status send_message(node_id_t dst, byte_span control,
                      std::span<const DataBlock> blocks,
                      DeliveryMode mode = DeliveryMode::kNormal);

  /// Zero-copy variant: the control chunk list and each staged block move
  /// into the wire frames by reference (no payload copies; retransmission
  /// re-sends the same chunks via refcount bumps). The byte_span overload
  /// above stages into pooled chunks and delegates here.
  Status send_message(node_id_t dst, ChunkList control,
                      std::span<const OutBlock> blocks,
                      DeliveryMode mode = DeliveryMode::kNormal);

  /// Delivery health towards a peer, as observed by this endpoint.
  sim::LinkHealth peer_health(node_id_t peer) const;

  /// Non-blocking: hand over the next fully-startable incoming message
  /// (its control frame has arrived). Synchronizes the node clock with the
  /// frame arrival and charges the receive overhead.
  std::optional<IncomingMessage> poll_message();

  /// Blocking variant; empty when the channel is shut down.
  std::optional<IncomingMessage> next_message_blocking();

  /// True if a control frame is already waiting (cheap check for pollers).
  bool message_available();

  /// Used by IncomingMessage: wait for the next frame from `src`.
  std::optional<sim::Frame> wait_frame_from(node_id_t src);

  /// Traffic counters (introspection, tests, the session stats report).
  /// Atomics: pollers and senders update them concurrently.
  std::uint64_t messages_sent() const { return messages_sent_.load(); }
  std::uint64_t messages_received() const {
    return messages_received_.load();
  }
  std::uint64_t bytes_sent() const { return bytes_sent_.load(); }
  std::uint64_t bytes_received() const { return bytes_received_.load(); }
  std::uint64_t frames_dropped() const { return frames_dropped_.load(); }
  std::uint64_t retransmits() const { return retransmits_.load(); }

  struct TrafficStats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t frames_dropped = 0;
    std::uint64_t retransmits = 0;

    TrafficStats& operator+=(const TrafficStats& other) {
      messages_sent += other.messages_sent;
      messages_received += other.messages_received;
      bytes_sent += other.bytes_sent;
      bytes_received += other.bytes_received;
      frames_dropped += other.frames_dropped;
      retransmits += other.retransmits;
      return *this;
    }
  };
  TrafficStats stats() const {
    return {messages_sent(),  messages_received(), bytes_sent(),
            bytes_received(), frames_dropped(),    retransmits()};
  }

  /// Shut down the receive side: blocked waits wake and observe EOF.
  void close();

 private:
  void pump();  // drain the port into per-source queues (mutex held)
  /// The reader's blocking take from the port: parks on a fiber, blocks
  /// an OS thread. Empty once the port is closed and drained.
  std::optional<sim::Frame> take_frame();
  void degrade_peer(node_id_t peer, sim::LinkHealth health);

  sim::Node& node_;
  const sim::LinkCostModel model_;
  sim::Port& port_;
  SlabPool* pool_;

  mutable std::mutex mutex_;
  std::map<node_id_t, sim::WirePath> paths_;
  std::map<node_id_t, sim::FrameRing> per_source_;
  std::map<node_id_t, std::uint32_t> send_seq_;
  std::map<node_id_t, sim::LinkHealth> health_;

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> retransmits_{0};
};

/// The transport of one Madeleine channel: one endpoint per member node,
/// full-mesh wire paths among them.
class ChannelTransport {
 public:
  ChannelTransport(sim::Protocol protocol, std::string name)
      : protocol_(protocol), name_(std::move(name)) {}

  sim::Protocol protocol() const { return protocol_; }
  const std::string& name() const { return name_; }

  /// Per-channel slab pool: every endpoint of the channel stages and
  /// receives through it, so a steady-state ping-pong recycles the same
  /// few slabs.
  SlabPool& pool() { return pool_; }

  /// Endpoint hosted on `node`; null when the node is not a member.
  Endpoint* endpoint(node_id_t node);

  const std::vector<node_id_t>& members() const { return members_; }

  /// Builder API used by drivers.
  Endpoint& add_endpoint(sim::Node& node, const sim::LinkCostModel& model,
                         sim::Port& port);

 private:
  sim::Protocol protocol_;
  std::string name_;
  SlabPool pool_;
  std::vector<node_id_t> members_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

/// Abstract protocol driver.
class Driver {
 public:
  virtual ~Driver() = default;

  virtual sim::Protocol protocol() const = 0;

  /// Transfer policy for one user block of `size` bytes.
  virtual BlockPlan plan_block(std::size_t size) const = 0;

  /// Cost of one unsuccessful poll (exposed for the poll server).
  virtual usec_t poll_cost() const = 0;

  /// True when the NIC can land one-sided data directly in a registered
  /// remote-memory window (DeliveryMode::kRmaDirect): SISCI's mapped
  /// segments and BIP's DMA qualify; kernel sockets do not.
  virtual bool supports_rma_direct() const { return false; }

  /// Slab bytes a message builder should reserve up front so a typical
  /// control frame (header + aggregated blocks) never regrows: protocols
  /// with small aggregation limits get away with smaller slabs.
  virtual std::size_t slab_reserve() const { return 4096; }

  /// Instantiate the transport of a channel over `network`: creates NICs'
  /// ports and the full mesh of wire paths.
  std::unique_ptr<ChannelTransport> open_channel(
      sim::Fabric& fabric, const sim::NetworkSpec& network,
      const sim::ClusterSpec& cluster, const std::string& channel_name);

 protected:
  explicit Driver(sim::LinkCostModel model) : model_(model) {}
  const sim::LinkCostModel& model() const { return model_; }

 private:
  sim::LinkCostModel model_;
};

/// Concrete drivers (policies calibrated per protocol).
std::unique_ptr<Driver> make_driver(sim::Protocol protocol);

}  // namespace madmpi::net
