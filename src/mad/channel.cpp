#include "mad/channel.hpp"

#include <algorithm>
#include <cstring>

#include "common/datapath_stats.hpp"
#include "common/log.hpp"

namespace madmpi::mad {

// ---------------------------------------------------------------- Packing

Packing::Packing(ChannelEndpoint* endpoint, node_id_t remote,
                 std::unique_lock<std::mutex> connection_lock,
                 net::DeliveryMode delivery)
    : endpoint_(endpoint),
      remote_(remote),
      delivery_(delivery),
      connection_lock_(std::move(connection_lock)),
      control_(endpoint->net_->pool(), endpoint->driver().slab_reserve()) {}

Packing::Packing(Packing&& other) noexcept
    : endpoint_(other.endpoint_),
      remote_(other.remote_),
      delivery_(other.delivery_),
      connection_lock_(std::move(other.connection_lock_)),
      control_(std::move(other.control_)),
      separate_(std::move(other.separate_)),
      express_prefix_(other.express_prefix_),
      split_marked_(other.split_marked_),
      blocks_packed_(other.blocks_packed_),
      ended_(other.ended_) {
  other.ended_ = true;  // moved-from shell must not trip the dtor check
}

Packing::~Packing() {
  MADMPI_CHECK_MSG(ended_, "Packing destroyed without end_packing()");
}

void Packing::pack(const void* data, std::size_t size, SendMode send_mode,
                   RecvMode recv_mode) {
  MADMPI_CHECK_MSG(data != nullptr || size == 0, "null block with size > 0");
  write_block(byte_span{static_cast<const std::byte*>(data), size}, nullptr,
              send_mode, recv_mode);
}

void Packing::pack_chunk(const ChunkRef& chunk, SendMode send_mode,
                         RecvMode recv_mode) {
  write_block(chunk.span(), &chunk, send_mode, recv_mode);
}

void Packing::write_block(byte_span data, const ChunkRef* chunk,
                          SendMode send_mode, RecvMode recv_mode) {
  MADMPI_CHECK_MSG(!ended_, "pack after end_packing()");
  const sim::LinkCostModel& model = endpoint_->model();
  sim::VirtualClock& clock = endpoint_->node().clock();

  // Bookkeeping cost: the first pack is cheap; every further pack pays the
  // sender share of the protocol's per-block transaction overhead (the
  // "significant overhead" per pack operation measured in Section 5.1).
  clock.advance(blocks_packed_++ == 0
                    ? kPackFixedUs
                    : kPackFixedUs + kSenderBlockShare * model.per_block_us);

  BlockRecord record;
  record.length = static_cast<std::uint32_t>(data.size());
  record.express = (recv_mode == RecvMode::kExpress);

  // EXPRESS data must travel with the control portion so it is available
  // as soon as the receiver unpacks it. CHEAPER data follows the driver's
  // preference for its size.
  net::BlockPlan plan;
  if (record.express) {
    plan.aggregate = true;
  } else {
    plan = endpoint_->driver().plan_block(data.size());
  }

  if (plan.aggregate) {
    record.placement = BlockPlacement::kInline;
    // The EXPRESS/CHEAPER split point: control bytes written before the
    // first non-express inline block form the EXPRESS prefix chunk.
    if (!split_marked_ && !record.express) {
      express_prefix_ = control_.position();
      split_marked_ = true;
    }
    write_record(control_, record);
    control_.append(data);
    // Real-datapath accounting: user payload staged into the control
    // buffer. EXPRESS header parsing is fixed-size bookkeeping present on
    // every path, so it is excluded from the bytes-copied metric.
    if (!record.express) count_real_copy(data.size());
  } else {
    record.placement = BlockPlacement::kSeparate;
    record.zero_copy = plan.zero_copy;
    write_record(control_, record);
    // A block that already lives in a chunk travels by refcount bump: the
    // reference IS the kSafer safety copy. A borrowed span stages into a
    // pooled chunk, which makes every send mode as safe as kSafer (the
    // caller's buffer is free on return) while the chunk travels by
    // reference through the transport, retransmits and all.
    separate_.push_back(
        {chunk != nullptr ? *chunk : endpoint_->net_->pool().stage(data),
         plan.zero_copy});
  }
  // The inline append is a copy in virtual time. A separate block charges
  // the same only as kSafer's safety copy: for kLater/kCheaper the stage
  // models the DMA pipeline that overlaps with the wire.
  if (plan.aggregate || send_mode == SendMode::kSafer) {
    clock.advance(static_cast<double>(data.size()) * model.copy_us_per_byte);
  }
}

Status Packing::end_packing() {
  MADMPI_CHECK_MSG(!ended_, "end_packing() called twice");
  ended_ = true;
  // The control region leaves as (up to) two references into the single
  // slab the ChunkWriter built in: the EXPRESS prefix and the CHEAPER
  // remainder. No flattening copy happens here.
  const std::size_t pos = control_.position();
  const std::size_t split = split_marked_ ? express_prefix_ : pos;
  ChunkList control;
  if (split != 0) control.push_back(control_.chunk(0, split));
  if (pos > split) control.push_back(control_.chunk(split, pos - split));
  Status status = endpoint_->net_->send_message(remote_, std::move(control),
                                                separate_.span(), delivery_);
  connection_lock_.unlock();
  return status;
}

// -------------------------------------------------------------- Unpacking

Unpacking::Unpacking(ChannelEndpoint* endpoint, net::IncomingMessage message)
    : endpoint_(endpoint),
      message_(std::move(message)),
      reader_(message_.control_payload()) {}

Unpacking::Unpacking(Unpacking&& other) noexcept
    : endpoint_(other.endpoint_),
      message_(std::move(other.message_)),
      reader_(message_.control_payload()),
      blocks_unpacked_(other.blocks_unpacked_),
      ended_(other.ended_),
      aborted_(other.aborted_),
      truncated_(other.truncated_) {
  // Rebind the reader at the same position over the moved payload: O(1)
  // cursor seek, no scratch replay of the consumed prefix.
  reader_.seek(other.reader_.position());
  other.ended_ = true;
}

Unpacking::~Unpacking() {
  MADMPI_CHECK_MSG(ended_, "Unpacking destroyed without end_unpacking()");
}

std::optional<std::size_t> Unpacking::peek_size() {
  if (reader_.exhausted()) return std::nullopt;
  ByteReader probe(reader_.remaining());
  return read_record(probe).length;
}

void Unpacking::unpack(void* data, std::size_t size, SendMode send_mode,
                       RecvMode recv_mode) {
  const std::optional<View> block =
      read_block(size, send_mode, recv_mode, /*pin_inline=*/false);
  MADMPI_CHECK_MSG(block.has_value(), "unpack() past the end of the message");
  // The destination belongs to the caller: when it is the application's
  // receive buffer this is the mandatory final placement (not a staging
  // copy), and when the caller bounces it counts the staging itself. The
  // copy out of a separate frame is simulation plumbing: zero-copy frames
  // land directly in this buffer, and bounced frames' copy already
  // pipelined with the wire in the transmit model.
  if (block->bytes.size() == size) {
    if (size != 0) std::memcpy(data, block->bytes.data(), size);
  } else {
    std::memset(data, 0, size);  // the sender aborted before this block
  }
}

Unpacking::View Unpacking::unpack_view(std::size_t size, SendMode send_mode,
                                       RecvMode recv_mode) {
  std::optional<View> block =
      read_block(size, send_mode, recv_mode, /*pin_inline=*/true);
  if (!block) {
    // A stream claiming more blocks than the message carries is malformed
    // input, not a library invariant violation: flag it and hand back an
    // empty view so the caller can surface MPI_ERR_TRUNCATE instead of
    // hard-killing the rank.
    truncated_ = true;
    return {};
  }
  return std::move(*block);
}

std::optional<Unpacking::View> Unpacking::read_block(std::size_t size,
                                                     SendMode send_mode,
                                                     RecvMode recv_mode,
                                                     bool pin_inline) {
  (void)send_mode;  // the sender-side constraint has no receiver effect
  MADMPI_CHECK_MSG(!ended_, "unpack after end_unpacking()");
  if (reader_.exhausted()) return std::nullopt;

  const sim::LinkCostModel& model = endpoint_->model();
  sim::VirtualClock& clock = endpoint_->node().clock();
  clock.advance(blocks_unpacked_++ == 0
                    ? kPackFixedUs
                    : kPackFixedUs + kReceiverBlockShare * model.per_block_us);

  const BlockRecord record = read_record(reader_);
  MADMPI_CHECK_MSG(record.length == size,
                   "unpack size does not match the packed block");
  MADMPI_CHECK_MSG(record.express == (recv_mode == RecvMode::kExpress),
                   "unpack receive mode does not match the packed block");

  View view;
  if (record.placement == BlockPlacement::kInline) {
    // The bytes stay in the control frame's slab. Both entry points charge
    // the copy out of it, so a view costs what unpack()'s copy costs.
    if (pin_inline) {
      view.backing = message_.control_chunk(reader_.position(), size);
    }
    view.bytes = reader_.remaining();
    reader_.skip(size);
    view.bytes = view.bytes.first(size);
    clock.advance(static_cast<double>(size) * model.copy_us_per_byte);
    return view;
  }

  // Separate block: its data frame follows the control frame in order —
  // unless the sender aborted, in which case the abort marker was the last
  // frame of this message and the remaining blocks never arrive.
  if (aborted_) return view;
  sim::Frame frame = message_.take_data_block();
  if (frame.kind == net::kAbortFrame) {
    aborted_ = true;
    return view;
  }
  MADMPI_CHECK_MSG(frame.payload.size() == size,
                   "data frame size does not match its record");
  view.backing = frame.payload.slice(0, size);
  view.bytes = view.backing.span();
  return view;
}

std::optional<Unpacking::DrainedBlock> Unpacking::drain_block() {
  if (reader_.exhausted()) return std::nullopt;
  ByteReader probe(reader_.remaining());
  const BlockRecord record = read_record(probe);
  DrainedBlock block;
  block.express = record.express;
  View view = unpack_view(record.length, SendMode::kCheaper,
                          record.express ? RecvMode::kExpress
                                         : RecvMode::kCheaper);
  if (view.bytes.size() != record.length) {
    // Sender abort mid-message: keep the documented bytes.size()==length
    // contract with a zeroed pool chunk so relay consumers stay simple.
    view.backing = SlabPool::global().allocate(record.length);
    if (record.length != 0) {
      std::memset(view.backing.mutable_data(), 0, record.length);
    }
    view.bytes = view.backing.span();
  }
  block.chunk = std::move(view.backing);
  block.bytes = view.bytes;
  return block;
}

const sim::LinkCostModel& Unpacking::model() const {
  return endpoint_->model();
}

void Unpacking::end_unpacking() {
  MADMPI_CHECK_MSG(!ended_, "end_unpacking() called twice");
  MADMPI_CHECK_MSG(reader_.exhausted() || aborted_,
                   "end_unpacking() with blocks left in the message");
  ended_ = true;
}

// --------------------------------------------------------- ChannelEndpoint

ChannelEndpoint::ChannelEndpoint(Channel* channel, net::Endpoint* net,
                                 const net::Driver* driver)
    : channel_(channel), net_(net), driver_(driver) {}

std::mutex& ChannelEndpoint::connection_lock(node_id_t remote) {
  std::lock_guard<std::mutex> lock(lock_map_mutex_);
  auto& slot = connection_locks_[remote];
  if (!slot) slot = std::make_unique<std::mutex>();
  return *slot;
}

Packing ChannelEndpoint::begin_packing(node_id_t remote,
                                       net::DeliveryMode delivery) {
  MADMPI_CHECK_MSG(net_->has_peer(remote),
                   "begin_packing to a node outside the channel");
  std::unique_lock<std::mutex> lock(connection_lock(remote));
  return Packing(this, remote, std::move(lock), delivery);
}

std::optional<Unpacking> ChannelEndpoint::begin_unpacking() {
  auto message = net_->next_message_blocking();
  if (!message) return std::nullopt;
  return Unpacking(this, std::move(*message));
}

std::optional<Unpacking> ChannelEndpoint::try_begin_unpacking() {
  auto message = net_->poll_message();
  if (!message) return std::nullopt;
  return Unpacking(this, std::move(*message));
}

// ------------------------------------------------------------------ Channel

Channel::Channel(channel_id_t id, std::string name, const net::Driver* driver,
                 std::unique_ptr<net::ChannelTransport> transport)
    : id_(id),
      name_(std::move(name)),
      driver_(driver),
      transport_(std::move(transport)) {
  for (node_id_t member : transport_->members()) {
    endpoints_.push_back(std::make_unique<ChannelEndpoint>(
        this, transport_->endpoint(member), driver_));
  }
}

ChannelEndpoint* Channel::at(node_id_t node) {
  for (auto& endpoint : endpoints_) {
    if (endpoint->node_id() == node) return endpoint.get();
  }
  return nullptr;
}

bool Channel::has_member(node_id_t node) const {
  const auto& members = transport_->members();
  return std::find(members.begin(), members.end(), node) != members.end();
}

bool Channel::link_alive(node_id_t src, node_id_t dst) {
  ChannelEndpoint* a = at(src);
  ChannelEndpoint* b = at(dst);
  if (a == nullptr || b == nullptr) return false;
  // Either side declaring the connection dead kills it for routing: death
  // is typically observed by the sender only, but traffic flows both ways.
  return a->peer_health(dst) != sim::LinkHealth::kDead &&
         b->peer_health(src) != sim::LinkHealth::kDead;
}

void Channel::close() {
  for (node_id_t member : transport_->members()) {
    transport_->endpoint(member)->close();
  }
}

net::Endpoint::TrafficStats Channel::traffic() const {
  net::Endpoint::TrafficStats total;
  for (node_id_t member : transport_->members()) {
    total += transport_->endpoint(member)->stats();
  }
  return total;
}

}  // namespace madmpi::mad
