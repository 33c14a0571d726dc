#include <algorithm>

#include "common/datapath_stats.hpp"
#include "common/log.hpp"
#include "marcel/engine.hpp"
#include "net/driver.hpp"
#include "sim/sched.hpp"
#include "sim/trace.hpp"

namespace madmpi::net {

sim::Frame IncomingMessage::take_data_block() {
  auto frame = endpoint_->wait_frame_from(control_.src_node);
  MADMPI_CHECK_MSG(frame.has_value(),
                   "channel closed while a data block was expected");
  MADMPI_CHECK_MSG(frame->kind == kDataFrame || frame->kind == kAbortFrame,
                   "control frame where a data block was expected");
  return std::move(*frame);
}

Endpoint::Endpoint(sim::Node& node, const sim::LinkCostModel& model,
                   sim::Port& port, SlabPool* pool)
    : node_(node),
      model_(model),
      port_(port),
      pool_(pool != nullptr ? pool : &SlabPool::global()) {}

void Endpoint::add_peer(node_id_t peer, sim::WirePath path) {
  std::lock_guard<std::mutex> lock(mutex_);
  paths_.insert_or_assign(peer, path);
}

bool Endpoint::has_peer(node_id_t peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return paths_.count(peer) != 0;
}

Status Endpoint::send_message(node_id_t dst, byte_span control,
                              std::span<const DataBlock> blocks,
                              DeliveryMode mode) {
  // Borrowed-span entry point, kept for the transport tests and
  // perfbench's net rung (no library code calls it): wire frames must own
  // their bytes past this call's return, so stage everything into pooled
  // chunks once and take the zero-copy path from there.
  ChunkList control_chunks;
  if (!control.empty()) control_chunks.push_back(pool_->stage(control));
  std::vector<OutBlock> staged;
  staged.reserve(blocks.size());
  for (const DataBlock& block : blocks) {
    staged.push_back({pool_->stage(block.data), block.zero_copy});
  }
  return send_message(dst, std::move(control_chunks), staged, mode);
}

Status Endpoint::send_message(node_id_t dst, ChunkList control,
                              std::span<const OutBlock> blocks,
                              DeliveryMode mode) {
  sim::WirePath* path = nullptr;
  std::uint32_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = paths_.find(dst);
    MADMPI_CHECK_MSG(it != paths_.end(), "no path to destination node");
    path = &it->second;
    seq = send_seq_[dst]++;
  }
  ++messages_sent_;
  std::uint64_t total = control.size();
  for (const auto& block : blocks) total += block.chunk.size();
  bytes_sent_ += total;

  // Consult the *path's* model, not the endpoint copy: wire paths reference
  // the source NIC's model live, so late-attached fault plans take effect.
  // kRmaDirect is regular traffic for fault purposes — only teardown
  // control is exempt from injection.
  const sim::FaultPlan* plan = mode == DeliveryMode::kTeardown
                                   ? nullptr
                                   : path->model().fault_plan.get();

  // Sender-side fixed software cost; the departure time is taken before any
  // staging copies so those pipeline with the wire (handled in WirePath).
  node_.clock().advance(model_.send_overhead_us);

  sim::trace(node_.clock().now(), node_.id(), sim::TraceCategory::kSend,
             total, sim::protocol_name(model_.protocol));

  // Transmit one frame, retrying lost ones with exponential backoff charged
  // to the virtual clock. Retries stop early once the link is permanently
  // dead (the timeout that *detected* death has already been charged).
  auto deliver = [&](sim::Frame frame,
                     const sim::TransmitHints& hints) -> Status {
    if (plan == nullptr) {
      path->transmit(std::move(frame), hints);
      return Status::ok();
    }
    const sim::RetryPolicy& retry = plan->retry;
    for (int attempt = 0;; ++attempt) {
      if (plan->dead(node_.id(), dst, frame.depart_time)) break;
      frame.attempt = static_cast<std::uint32_t>(attempt);
      if (path->try_transmit(frame, hints).has_value()) {
        return Status::ok();
      }
      ++frames_dropped_;
      degrade_peer(dst, sim::LinkHealth::kDegraded);
      sim::trace(frame.depart_time, node_.id(), sim::TraceCategory::kDrop,
                 frame.payload.size(), sim::protocol_name(model_.protocol));
      if (attempt + 1 >= retry.max_attempts) break;
      node_.clock().advance(retry.delay_for(attempt));
      frame.depart_time = node_.clock().now();
      ++retransmits_;
      sim::trace(frame.depart_time, node_.id(), sim::TraceCategory::kRetry,
                 frame.payload.size(), sim::protocol_name(model_.protocol));
    }
    degrade_peer(dst, sim::LinkHealth::kDead);
    return Status(ErrorCode::kNotConnected,
                  std::string("delivery to node ") + std::to_string(dst) +
                      " failed on " + model_.name());
  };

  sim::Frame ctrl;
  ctrl.src_node = node_.id();
  ctrl.dst_node = dst;
  ctrl.seq = seq;
  ctrl.kind = kControlFrame;
  ctrl.block_index = 0;
  ctrl.last_of_message = blocks.empty();
  ctrl.depart_time = node_.clock().now();
  // Zero-copy hand-off: the frame takes the chunk references; nothing is
  // duplicated here, and a fault-injected retransmission of this frame
  // re-sends the same slab bytes via a refcount bump.
  ctrl.payload = std::move(control);

  sim::TransmitHints ctrl_hints;
  ctrl_hints.copied_send = true;  // control buffer is staged by definition
  ctrl_hints.copied_recv = true;  // and read out of a driver buffer
  Status status = deliver(std::move(ctrl), ctrl_hints);
  if (!status.is_ok()) return status;  // nothing delivered: clean failure

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    sim::Frame data;
    data.src_node = node_.id();
    data.dst_node = dst;
    data.seq = seq;
    data.kind = kDataFrame;
    data.block_index = static_cast<std::uint16_t>(i + 1);
    data.last_of_message = (i + 1 == blocks.size());
    data.depart_time = node_.clock().now();  // back-to-back; link serializes
    data.payload.push_back(blocks[i].chunk);

    sim::TransmitHints hints;
    hints.copied_send = !blocks[i].zero_copy;
    hints.copied_recv = !blocks[i].zero_copy;
    status = deliver(std::move(data), hints);
    if (!status.is_ok()) {
      // The control frame is already on the receiver's side: deliver an
      // abort marker in place of the missing data so the receiver can
      // discard the partial message instead of blocking forever. The
      // marker travels out-of-band (faults would lose it too).
      sim::Frame abort;
      abort.src_node = node_.id();
      abort.dst_node = dst;
      abort.seq = seq;
      abort.kind = kAbortFrame;
      abort.block_index = static_cast<std::uint16_t>(i + 1);
      abort.last_of_message = true;
      abort.depart_time = node_.clock().now();
      path->deliver_direct(std::move(abort));
      marcel::engine_notify();
      return status;
    }
  }
  // A poller fiber parked on the destination port re-checks it now.
  marcel::engine_notify();
  return Status::ok();
}

sim::LinkHealth Endpoint::peer_health(node_id_t peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = health_.find(peer);
  return it == health_.end() ? sim::LinkHealth::kHealthy : it->second;
}

void Endpoint::degrade_peer(node_id_t peer, sim::LinkHealth health) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = health_.try_emplace(peer, health);
  // Health only worsens: healthy -> degraded -> dead. Monotonicity is what
  // guarantees the failover loop in ch_mad terminates.
  if (!inserted && static_cast<int>(health) > static_cast<int>(it->second)) {
    it->second = health;
  }
}

void Endpoint::pump() {
  while (auto frame = port_.try_take()) {
    per_source_[frame->src_node].push_back(std::move(*frame));
  }
}

bool Endpoint::message_available() {
  std::lock_guard<std::mutex> lock(mutex_);
  pump();
  for (const auto& [src, queue] : per_source_) {
    if (!queue.empty() && queue.front().kind == kControlFrame) return true;
  }
  return false;
}

std::optional<IncomingMessage> Endpoint::poll_message() {
  // The poller's lane before this call marks when its CPU became free
  // (handling work only — waiting for arrivals does not occupy it).
  const usec_t cpu_free = node_.clock().now();

  std::lock_guard<std::mutex> lock(mutex_);
  pump();
  // Handle queued messages in *virtual arrival order*, not real enqueue
  // order: a bulk frame whose arrival lies far in the virtual future must
  // not delay the handling of a control frame that (virtually) arrived
  // long before it.
  // Schedule exploration: bias each candidate's effective arrival time so
  // near-simultaneous arrivals from different sources can be drained in
  // either order. The bias is pure in (seed, dst, src, frame seq) — it
  // perturbs only the *choice*, never the frame's real arrival timestamp.
  auto* sched = sim::ScheduleController::current();
  std::deque<sim::Frame>* best = nullptr;
  usec_t best_key = 0.0;
  for (auto& [src, queue] : per_source_) {
    if (queue.empty() || queue.front().kind != kControlFrame) continue;
    usec_t key = queue.front().arrival_time;
    if (sched != nullptr) {
      key += sched->delivery_bias_us(node_.id(), src, queue.front().seq);
    }
    if (best == nullptr || key < best_key) {
      best = &queue;
      best_key = key;
    }
  }
  if (best == nullptr) return std::nullopt;

  sim::Frame control = std::move(best->front());
  best->pop_front();
  ++messages_received_;
  bytes_received_ += control.payload.size();
  // Handling starts once the frame has arrived AND the CPU is free; a
  // plain monotone sync would wrongly charge time spent merely waiting.
  node_.clock().bind_lane(std::max(control.arrival_time, cpu_free));
  node_.clock().advance(model_.recv_overhead_us);
  sim::trace(control.arrival_time, node_.id(), sim::TraceCategory::kArrive,
             control.payload.size(), sim::protocol_name(model_.protocol));
  return IncomingMessage(this, std::move(control));
}

std::optional<sim::Frame> Endpoint::take_frame() {
  if (marcel::on_fiber()) {
    // A poller fiber must not block its shard worker: park until the port
    // has a frame or closed. Only this endpoint's reader takes from it.
    marcel::park_until([this] { return port_.has_frame() || port_.closed(); });
  }
  return port_.take_blocking();
}

void Endpoint::close() {
  port_.close();
  marcel::engine_notify();
}

std::optional<IncomingMessage> Endpoint::next_message_blocking() {
  for (;;) {
    if (auto message = poll_message()) return message;
    // No startable message buffered: wait on the port for the next frame,
    // stash it, and retry. The yield lets a virtually-earlier frame from
    // another peer, still in flight in real time, land before the retry
    // picks the earliest arrival; on a fiber it lets the shard's other
    // fibers run first.
    auto frame = take_frame();
    if (!frame.has_value()) return std::nullopt;  // shut down
    {
      std::lock_guard<std::mutex> lock(mutex_);
      per_source_[frame->src_node].push_back(std::move(*frame));
    }
    marcel::cooperative_yield();
  }
}

std::optional<sim::Frame> Endpoint::wait_frame_from(node_id_t src) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pump();
      auto& queue = per_source_[src];
      if (!queue.empty()) {
        sim::Frame frame = std::move(queue.front());
        queue.pop_front();
        bytes_received_ += frame.payload.size();
        node_.clock().sync_to(frame.arrival_time);
        return frame;
      }
    }
    auto frame = take_frame();
    if (!frame.has_value()) return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex_);
    per_source_[frame->src_node].push_back(std::move(*frame));
  }
}

Endpoint* ChannelTransport::endpoint(node_id_t node) {
  for (auto& ep : endpoints_) {
    if (ep->node_id() == node) return ep.get();
  }
  return nullptr;
}

Endpoint& ChannelTransport::add_endpoint(sim::Node& node,
                                         const sim::LinkCostModel& model,
                                         sim::Port& port) {
  endpoints_.push_back(std::make_unique<Endpoint>(node, model, port, &pool_));
  members_.push_back(node.id());
  return *endpoints_.back();
}

std::unique_ptr<ChannelTransport> Driver::open_channel(
    sim::Fabric& fabric, const sim::NetworkSpec& network,
    const sim::ClusterSpec& cluster, const std::string& channel_name) {
  MADMPI_CHECK_MSG(network.protocol == protocol(),
                   "driver/network protocol mismatch");
  auto transport =
      std::make_unique<ChannelTransport>(protocol(), channel_name);

  struct MemberInfo {
    sim::Nic* nic;
    sim::Port* port;
    Endpoint* endpoint;
  };
  std::vector<MemberInfo> members;

  for (const auto& member : network.members) {
    auto index = cluster.node_index(member);
    MADMPI_CHECK_MSG(index.has_value(), "network member missing from cluster");
    const auto node_id = static_cast<node_id_t>(*index);
    sim::Nic* nic = fabric.find_nic(node_id, protocol(), network.adapter);
    if (nic == nullptr) {
      nic = &fabric.add_nic(node_id, model_, network.adapter);
    }
    sim::Port& port = fabric.make_port(node_id);
    Endpoint& endpoint =
        transport->add_endpoint(fabric.node(node_id), nic->model(), port);
    members.push_back({nic, &port, &endpoint});

    // Wire the new member to the already-created ones (full mesh).
    MemberInfo& self = members.back();
    for (auto& other : members) {
      if (other.endpoint == self.endpoint) continue;
      self.endpoint->add_peer(
          other.nic->node(),
          fabric.make_path(*self.nic, *other.nic, *other.port));
      other.endpoint->add_peer(
          self.nic->node(),
          fabric.make_path(*other.nic, *self.nic, *self.port));
    }
  }
  return transport;
}

}  // namespace madmpi::net
