// Madeleine II channels, message packing and unpacking (paper Section 3).
//
// A channel is a closed communication world bound to one network protocol
// and adapter (like an MPI communicator, §3.1). Each member node owns a
// ChannelEndpoint. Messages are built incrementally: begin_packing, a
// sequence of pack(block, send_mode, recv_mode), end_packing; mirrored by
// begin_unpacking / unpack / end_unpacking on the receiving side.
// In-order delivery is guaranteed per point-to-point connection within a
// channel, never across channels.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/inline_vector.hpp"
#include "mad/message.hpp"
#include "mad/modes.hpp"
#include "net/driver.hpp"

namespace madmpi::mad {

class ChannelEndpoint;

/// Virtual CPU cost of one pack/unpack call's bookkeeping.
inline constexpr usec_t kPackFixedUs = 0.3;

/// The measured per-extra-block protocol overhead (LinkCostModel::
/// per_block_us) is split between the two sides of the transfer.
inline constexpr double kSenderBlockShare = 0.6;
inline constexpr double kReceiverBlockShare = 0.4;

/// An outgoing message under construction. Move-only; end_packing() must be
/// called exactly once (checked). Maps to the paper's
/// `connection = mad_begin_packing(channel, remote)` usage.
class Packing {
 public:
  Packing(Packing&&) noexcept;
  Packing& operator=(Packing&&) = delete;
  Packing(const Packing&) = delete;
  Packing& operator=(const Packing&) = delete;
  ~Packing();

  /// Append one block. The buffer must stay valid until end_packing()
  /// unless send_mode is kSafer (copied immediately).
  void pack(const void* data, std::size_t size, SendMode send_mode,
            RecvMode recv_mode);

  /// Append a block that already lives in a chunk — a pooled one (the
  /// forwarding relay) or lent caller memory (the rendezvous data push).
  /// Same block body as pack(), so wire layout and virtual charges match
  /// it by construction; only a separate block differs, travelling by
  /// refcount bump — the reference IS the kSafer safety copy.
  void pack_chunk(const ChunkRef& chunk, SendMode send_mode,
                  RecvMode recv_mode);

  /// Flush the message to the wire. Blocking (Madeleine primitives are
  /// blocking, §4.1); on return all buffers are reusable. Non-ok when
  /// delivery failed permanently (dead link / retries exhausted); the
  /// message is then NOT delivered and may be re-packed on another channel.
  Status end_packing();

  node_id_t remote() const { return remote_; }

 private:
  friend class ChannelEndpoint;
  Packing(ChannelEndpoint* endpoint, node_id_t remote,
          std::unique_lock<std::mutex> connection_lock,
          net::DeliveryMode delivery);

  /// The one block-write body behind pack() and pack_chunk(): per-block
  /// charge, EXPRESS/CHEAPER plan, inline append or separate push. A
  /// separate block reuses `chunk` when given, else stages `data`.
  void write_block(byte_span data, const ChunkRef* chunk, SendMode send_mode,
                   RecvMode recv_mode);

  ChannelEndpoint* endpoint_;
  node_id_t remote_;
  net::DeliveryMode delivery_;
  std::unique_lock<std::mutex> connection_lock_;

  /// The control region builds directly in one pooled slab; at
  /// end_packing() it leaves as (up to) two chunk references — the EXPRESS
  /// prefix and the CHEAPER remainder — into that same slab.
  ChunkWriter control_;
  InlineVector<net::OutBlock, 2> separate_;  // the usual body needs no heap
  std::size_t express_prefix_ = 0;  // control bytes before the first
                                    // non-express inline block
  bool split_marked_ = false;
  std::size_t blocks_packed_ = 0;
  bool ended_ = false;
};

/// An incoming message being consumed. Obtained from begin_unpacking().
class Unpacking {
 public:
  Unpacking(Unpacking&&) noexcept;
  Unpacking& operator=(Unpacking&&) = delete;
  Unpacking(const Unpacking&) = delete;
  Unpacking& operator=(const Unpacking&) = delete;
  ~Unpacking();

  /// Extract the next block into `data`. Modes must mirror the sender's
  /// pack call (checked). With kExpress the data is usable on return; with
  /// kCheaper it is guaranteed by end_unpacking() (this implementation
  /// delivers immediately, which is a permitted strengthening).
  void unpack(void* data, std::size_t size, SendMode send_mode,
              RecvMode recv_mode);

  /// Zero-copy variant of unpack(): consumes the next block and returns a
  /// view of the wire bytes plus the chunk reference keeping them alive.
  /// Same block-read step as unpack(), so the virtual charges and mode
  /// checks are identical by construction; no host copy.
  /// After a sender abort, `bytes` is empty and aborted() turns true — the
  /// consumer must discard the partial message as usual.
  struct View {
    byte_span bytes;
    ChunkRef backing;
  };
  View unpack_view(std::size_t size, SendMode send_mode, RecvMode recv_mode);

  /// Size of the next block without consuming it (convenience beyond the
  /// strict paper API; used by tests).
  std::optional<std::size_t> peek_size();

  /// Consume the next block without knowing its size or modes in advance:
  /// returns a chunk reference to its bytes and whether it was packed for
  /// receive_EXPRESS. This is the relay primitive of ch_mad's gateway
  /// forwarding (the paper's Section 6 future-work mechanism); together
  /// with Packing::pack_chunk a gateway relays blocks without touching
  /// their bytes. Empty at end of message.
  struct DrainedBlock {
    ChunkRef chunk;
    byte_span bytes;  // == chunk.span() (zeroed pool chunk after an abort)
    bool express = false;
  };
  std::optional<DrainedBlock> drain_block();

  /// Finish; checks that every packed block was unpacked (relaxed for
  /// aborted messages, which may legitimately end early).
  void end_unpacking();

  /// True once the sender's abort marker was observed: the sender gave up
  /// on this message mid-flight and will retry it on another route. The
  /// consumer must discard everything unpacked from it.
  bool aborted() const { return aborted_; }

  /// True once an unpack asked for more blocks than the message carries (a
  /// malformed or ragged stream). The offending unpack_view() returned an
  /// empty view; the consumer maps this onto the recoverable
  /// MPI_ERR_TRUNCATE path instead of aborting the rank.
  bool truncated() const { return truncated_; }

  /// Cost model of the channel this message arrived on (per-driver RMA
  /// landing charges are taken from here by the ch_mad handlers).
  const sim::LinkCostModel& model() const;

  node_id_t source() const { return message_.source(); }

 private:
  friend class ChannelEndpoint;
  Unpacking(ChannelEndpoint* endpoint, net::IncomingMessage message);

  /// The one block-read step behind unpack() and unpack_view(): record
  /// read and checks, per-block charge, inline copy charge, data frame or
  /// abort. Empty when the message has no block left. An inline block's
  /// view carries a chunk reference only when `pin_inline` asks for one;
  /// after a sender abort a separate block's view is empty.
  std::optional<View> read_block(std::size_t size, SendMode send_mode,
                                 RecvMode recv_mode, bool pin_inline);

  ChannelEndpoint* endpoint_;
  net::IncomingMessage message_;
  ByteReader reader_;
  std::size_t blocks_unpacked_ = 0;
  bool ended_ = false;
  bool aborted_ = false;
  bool truncated_ = false;
};

class Channel;

/// Per-node view of a channel.
class ChannelEndpoint {
 public:
  ChannelEndpoint(Channel* channel, net::Endpoint* net,
                  const net::Driver* driver);

  /// Start a message towards `remote`. Serializes with other messages on
  /// the same point-to-point connection (in-order guarantee, §3.1).
  /// `delivery` selects normal (fault-subject) or teardown (out-of-band)
  /// transmission — see net::DeliveryMode.
  Packing begin_packing(node_id_t remote,
                        net::DeliveryMode delivery = net::DeliveryMode::kNormal);

  /// Delivery health towards a channel peer as seen from this node.
  sim::LinkHealth peer_health(node_id_t peer) const {
    return net_->peer_health(peer);
  }

  /// Blocking receive of the next message on this channel (any source).
  /// Empty when the channel has been closed.
  std::optional<Unpacking> begin_unpacking();

  /// Non-blocking variant for poll loops.
  std::optional<Unpacking> try_begin_unpacking();

  Channel& channel() { return *channel_; }
  sim::Node& node() { return net_->node(); }
  node_id_t node_id() const { return net_->node_id(); }
  const sim::LinkCostModel& model() const { return net_->model(); }
  const net::Driver& driver() const { return *driver_; }
  net::Endpoint::TrafficStats traffic() const { return net_->stats(); }

 private:
  friend class Packing;
  friend class Unpacking;

  Channel* channel_;
  net::Endpoint* net_;
  const net::Driver* driver_;

  std::mutex lock_map_mutex_;
  std::map<node_id_t, std::unique_ptr<std::mutex>> connection_locks_;

  std::mutex& connection_lock(node_id_t remote);
};

/// A Madeleine channel: protocol + adapter + member endpoints.
class Channel {
 public:
  Channel(channel_id_t id, std::string name, const net::Driver* driver,
          std::unique_ptr<net::ChannelTransport> transport);

  channel_id_t id() const { return id_; }
  const std::string& name() const { return name_; }
  sim::Protocol protocol() const { return transport_->protocol(); }
  const net::Driver& driver() const { return *driver_; }
  usec_t poll_cost() const { return driver_->poll_cost(); }

  /// Endpoint on `node`; null when the node is not a channel member.
  ChannelEndpoint* at(node_id_t node);

  const std::vector<node_id_t>& members() const {
    return transport_->members();
  }
  bool has_member(node_id_t node) const;

  /// True while neither side has declared the src->dst connection dead.
  /// Routers skip channels whose link is down when electing a route.
  bool link_alive(node_id_t src, node_id_t dst);

  /// Shut the channel down: blocked begin_unpacking calls return empty.
  void close();

  /// Aggregate traffic over all member endpoints.
  net::Endpoint::TrafficStats traffic() const;

 private:
  channel_id_t id_;
  std::string name_;
  const net::Driver* driver_;
  std::unique_ptr<net::ChannelTransport> transport_;
  std::vector<std::unique_ptr<ChannelEndpoint>> endpoints_;
};

}  // namespace madmpi::mad
