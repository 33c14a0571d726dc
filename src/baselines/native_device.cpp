#include "baselines/native_device.hpp"

#include "common/byte_buffer.hpp"
#include "common/log.hpp"
#include "sim/cost_model.hpp"

namespace madmpi::baselines {

namespace {

enum class WireKind : std::uint8_t {
  kEager = 1,
  kRndvRequest,
  kRndvAck,
  kRndvData,
  kTerm,
};

}  // namespace

/// Fixed-layout wire header prepended to every frame's control payload.
struct NativeDevice::WireHeader {
  WireKind kind = WireKind::kEager;
  rank_t src_global = kInvalidRank;
  rank_t dst_global = kInvalidRank;
  mpi::Envelope envelope;
  std::uint64_t handle = 0;        // rndv: sender pending-send id
  std::uint64_t sync_address = 0;  // rndv: receiver rhandle id
};

NativeDevice::NativeDevice(NativeProfile profile, sim::Fabric& fabric,
                           const sim::ClusterSpec& cluster,
                           core::RankDirectory& directory)
    : profile_(std::move(profile)), directory_(directory) {
  driver_ = net::make_driver(profile_.protocol);

  const sim::NetworkSpec* network = nullptr;
  for (const auto& candidate : cluster.networks) {
    if (candidate.protocol == profile_.protocol) {
      network = &candidate;
      break;
    }
  }
  MADMPI_CHECK_MSG(network != nullptr,
                   "cluster declares no network for the baseline protocol");

  // Install the (possibly tweaked) NIC model on a dedicated adapter, then
  // open the transport over it.
  sim::NetworkSpec own = *network;
  own.adapter = kAdapter;
  for (const auto& member : own.members) {
    const auto node_id = static_cast<node_id_t>(*cluster.node_index(member));
    if (fabric.find_nic(node_id, profile_.protocol, kAdapter) == nullptr) {
      fabric.add_nic(node_id, profile_.nic_model, kAdapter);
    }
  }
  transport_ = driver_->open_channel(fabric, own, cluster,
                                     profile_.name + "-transport");
  for (node_id_t member : transport_->members()) {
    auto state = std::make_unique<NodeState>();
    state->node = &transport_->endpoint(member)->node();
    states_[member] = std::move(state);
  }
}

NativeDevice::~NativeDevice() {
  if (started_) shutdown();
}

NativeDevice::NodeState& NativeDevice::state_of(node_id_t node) {
  auto it = states_.find(node);
  MADMPI_CHECK_MSG(it != states_.end(), "node outside the baseline network");
  return *it->second;
}

bool NativeDevice::reaches(rank_t src, rank_t dst) const {
  sim::Node& a = directory_.node_of(src);
  sim::Node& b = directory_.node_of(dst);
  if (a.id() == b.id()) return false;
  const auto& members = transport_->members();
  return std::find(members.begin(), members.end(), a.id()) != members.end() &&
         std::find(members.begin(), members.end(), b.id()) != members.end();
}

void NativeDevice::transmit(net::Endpoint& endpoint, node_id_t dst,
                            const WireHeader& header, const ChunkRef& payload,
                            bool zero_copy) {
  ChunkWriter writer(endpoint.pool(), sizeof header);
  writer.put(header);
  ChunkList control;
  control.push_back(writer.take_all());
  const net::OutBlock block{payload, zero_copy};
  // Ranks and the poller's rendezvous replies share the endpoint: keep a
  // message's frames whole.
  std::lock_guard<std::mutex> lock(state_of(endpoint.node().id()).send_mutex);
  endpoint.send_message(dst, std::move(control),
                        std::span(&block, payload.empty() ? 0 : 1));
}

NativeDevice::WireHeader NativeDevice::charged_header(
    rank_t src, rank_t dst, const mpi::Envelope& env, std::size_t bytes) {
  // Implementation-specific software cost: fixed part plus any
  // non-pipelined staging copies.
  directory_.node_of(src).clock().advance(
      profile_.sw_send_us +
      static_cast<double>(bytes) * profile_.extra_copy_send_per_byte);
  WireHeader header;
  header.src_global = src;
  header.dst_global = dst;
  header.envelope = env;
  return header;
}

Status NativeDevice::send(rank_t src, rank_t dst, const mpi::Envelope& env,
                          byte_span packed, mpi::TransferMode mode) {
  if (mode == mpi::TransferMode::kRendezvous) {
    auto done = std::make_shared<mpi::RequestState>(directory_.node_of(src));
    isend_rendezvous(src, dst, env, packed, {}, done);
    done->wait();
    return Status::ok();
  }
  WireHeader header = charged_header(src, dst, env, packed.size());
  header.kind = WireKind::kEager;
  net::Endpoint& endpoint = *transport_->endpoint(directory_.node_of(src).id());
  transmit(endpoint, directory_.node_of(dst).id(), header,
           endpoint.pool().stage(packed), /*zero_copy=*/false);
  return Status::ok();
}

void NativeDevice::isend_rendezvous(
    rank_t src, rank_t dst, const mpi::Envelope& env, byte_span packed,
    std::vector<std::byte> owned,
    std::shared_ptr<mpi::RequestState> completion) {
  WireHeader header = charged_header(src, dst, env, packed.size());
  header.kind = WireKind::kRndvRequest;
  const node_id_t src_node = directory_.node_of(src).id();
  NodeState& state = state_of(src_node);
  auto pending = std::make_unique<PendingSend>();
  pending->data = packed;
  pending->envelope = env;
  pending->owned = std::move(owned);
  pending->completion = std::move(completion);
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    header.handle = state.next_handle++;
    state.pending_sends[header.handle] = std::move(pending);
  }
  transmit(*transport_->endpoint(src_node), directory_.node_of(dst).id(),
           header, {}, false);
}

void NativeDevice::start(marcel::Executor& executor) {
  MADMPI_CHECK(!started_);
  started_ = true;
  for (auto& [node_id, state] : states_) {
    net::Endpoint* endpoint = transport_->endpoint(node_id);
    const int peers = static_cast<int>(transport_->members().size()) - 1;
    NodeState* state_ptr = state.get();
    // Homed on its node (a fiber on that node's shard under a sharded
    // session), with no creation charge: its lane is born at first touch.
    state->polled = executor.loop(
        [this, state_ptr, endpoint, peers] {
          poll_loop(*state_ptr, *endpoint, peers);
        },
        state->node);
  }
}

void NativeDevice::shutdown() {
  if (!started_) return;
  WireHeader term;
  term.kind = WireKind::kTerm;
  for (auto& [node_id, state] : states_) {
    net::Endpoint* endpoint = transport_->endpoint(node_id);
    for (node_id_t peer : transport_->members()) {
      if (peer == node_id) continue;
      transmit(*endpoint, peer, term, {}, false);
    }
  }
  for (auto& [node_id, state] : states_) {
    state->polled.wait();
  }
  for (node_id_t member : transport_->members()) {
    transport_->endpoint(member)->close();
  }
  started_ = false;
}

void NativeDevice::poll_loop(NodeState& state, net::Endpoint& endpoint,
                             int peers) {
  int terms_seen = 0;
  while (terms_seen < peers) {
    auto incoming = endpoint.next_message_blocking();
    if (!incoming) return;  // closed underneath us

    WireHeader header;
    ByteReader reader(incoming->control_payload());
    header = reader.get<WireHeader>();
    sim::Node& node = endpoint.node();
    node.clock().advance(profile_.sw_recv_us);

    switch (header.kind) {
      case WireKind::kEager: {
        // The frame's chunk travels on as the payload: an unexpected
        // message parks it instead of a copy.
        ChunkRef payload;
        if (header.envelope.bytes != 0) {
          sim::Frame frame = incoming->take_data_block();
          MADMPI_CHECK(frame.payload.size() == header.envelope.bytes);
          payload = frame.payload.slice(0, frame.payload.size());
          node.clock().advance(static_cast<double>(payload.size()) *
                               profile_.extra_copy_recv_per_byte);
        }
        const byte_span bytes = payload.span();
        directory_.context_of(header.dst_global)
            .deliver_eager(header.envelope, bytes, {}, std::move(payload));
        break;
      }

      case WireKind::kRndvRequest: {
        NodeState* state_ptr = &state;
        net::Endpoint* ep = &endpoint;
        const node_id_t peer = incoming->source();
        directory_.context_of(header.dst_global)
            .deliver_rendezvous(
                header.envelope,
                [this, state_ptr, ep, peer, header](const mpi::Envelope&,
                                                    mpi::PostedRecv posted) {
                  std::uint64_t sync_address = 0;
                  {
                    std::lock_guard<std::mutex> lock(state_ptr->mutex);
                    sync_address = state_ptr->next_handle++;
                    state_ptr->rhandles[sync_address] =
                        Rhandle{std::move(posted)};
                  }
                  WireHeader ack = header;
                  ack.kind = WireKind::kRndvAck;
                  ack.sync_address = sync_address;
                  marcel::Executor::run_here(
                      *state_ptr->node, profile_.rndv_handshake_us * 0.5,
                      [&] { transmit(*ep, peer, ack, {}, false); });
                });
        break;
      }

      case WireKind::kRndvAck: {
        std::unique_ptr<PendingSend> pending;
        {
          std::lock_guard<std::mutex> lock(state.mutex);
          auto it = state.pending_sends.find(header.handle);
          MADMPI_CHECK(it != state.pending_sends.end());
          pending = std::move(it->second);
          state.pending_sends.erase(it);
        }
        const node_id_t peer = incoming->source();
        WireHeader data = header;
        data.kind = WireKind::kRndvData;
        marcel::Executor::run_here(node, profile_.rndv_handshake_us * 0.5,
                                   [&] {
          push_lent(node, pending->data, std::move(pending->owned),
                    std::move(pending->completion), pending->envelope,
                    [&](const ChunkRef& body) {
                      transmit(endpoint, peer, data, body,
                               profile_.rndv_zero_copy);
                      return Status::ok();
                    });
        });
        break;
      }

      case WireKind::kRndvData: {
        Rhandle rhandle;
        {
          std::lock_guard<std::mutex> lock(state.mutex);
          auto it = state.rhandles.find(header.sync_address);
          MADMPI_CHECK(it != state.rhandles.end());
          rhandle = std::move(it->second);
          state.rhandles.erase(it);
        }
        const mpi::PostedRecv& posted = rhandle.posted;
        const std::uint64_t bytes = header.envelope.bytes;
        sim::Frame frame;
        if (bytes != 0) {
          frame = incoming->take_data_block();
          MADMPI_CHECK(frame.payload.size() == bytes);
          if (!profile_.rndv_zero_copy) {
            node.clock().advance(static_cast<double>(bytes) *
                                 profile_.extra_copy_rndv_per_byte);
          }
        }
        mpi::RequestState::complete(
            posted.request, mpi::place_recv(posted, header.envelope,
                                            frame.payload.contiguous()));
        break;
      }

      case WireKind::kTerm:
        ++terms_seen;
        break;
    }
  }
}

}  // namespace madmpi::baselines
