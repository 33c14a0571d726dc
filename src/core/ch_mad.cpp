#include "core/ch_mad.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/datapath_stats.hpp"
#include "common/log.hpp"
#include "core/switchpoint.hpp"
#include "sim/cost_model.hpp"
#include "sim/sched.hpp"
#include "sim/trace.hpp"

namespace madmpi::core {

ChMadDevice::ChMadDevice(RankDirectory& directory,
                         std::vector<mad::Channel*> channels)
    : ChMadDevice(directory, std::move(channels), Config{}) {}

ChMadDevice::ChMadDevice(RankDirectory& directory,
                         std::vector<mad::Channel*> channels, Config config)
    : directory_(directory),
      router_(std::move(channels)),
      forward_channels_router_(std::move(config.forward_channels)) {
  switch_point_ = config.switch_point_override.has_value()
                      ? *config.switch_point_override
                      : elect_switch_point(router_.protocols());
  if (config.credit_window_bytes == SIZE_MAX) {
    credit_window_ = 0;  // flow control disabled
  } else if (config.credit_window_bytes != 0) {
    credit_window_ = config.credit_window_bytes;
  } else {
    credit_window_ = default_credit_window(switch_point_);
  }
  if (!forward_channels_router_.channels().empty()) {
    forward_router_.emplace(router_);
  }

  // One NodeState per node appearing in any channel (direct or forward).
  auto add_members = [this](const std::vector<mad::Channel*>& channels) {
    for (mad::Channel* channel : channels) {
      for (node_id_t member : channel->members()) {
        auto& slot = states_[member];
        if (!slot) {
          slot = std::make_unique<NodeState>();
          slot->node = &channel->at(member)->node();
        }
      }
    }
  };
  add_members(router_.channels());
  add_members(forward_channels_router_.channels());
}

ChMadDevice::~ChMadDevice() {
  if (started_) shutdown();
}

ChMadDevice::NodeState& ChMadDevice::state_of(node_id_t node) {
  auto it = states_.find(node);
  MADMPI_CHECK_MSG(it != states_.end(), "node not covered by ch_mad");
  return *it->second;
}

bool ChMadDevice::reaches(rank_t src, rank_t dst) const {
  if (src == dst) return false;
  sim::Node& src_node = directory_.node_of(src);
  sim::Node& dst_node = directory_.node_of(dst);
  if (src_node.id() == dst_node.id()) return false;
  if (router_.route(src_node.id(), dst_node.id()) != nullptr) return true;
  return forward_router_.has_value() &&
         forward_router_->connected(src_node.id(), dst_node.id());
}

void ChMadDevice::start(marcel::Executor& executor) {
  MADMPI_CHECK_MSG(!started_, "ch_mad started twice");
  started_ = true;
  for (auto& [node_id, state] : states_) {
    state->poll_server =
        std::make_unique<marcel::PollServer>(*state->node, executor);
  }

  // Direct channels: pollers dispatch ch_mad packets straight away.
  // Forwarding channels: pollers first read the routing header and either
  // relay (gateway role) or dispatch locally (final hop).
  auto spawn_pollers = [this](mad::Channel* channel, bool forwarding) {
    for (node_id_t member : channel->members()) {
      mad::ChannelEndpoint* endpoint = channel->at(member);
      NodeState* state = states_.at(member).get();
      auto terms_seen = std::make_shared<int>(0);
      const int peers = static_cast<int>(channel->members().size()) - 1;
      state->poll_server->add_poller(
          channel->id(), channel->poll_cost(),
          [this, state, endpoint, channel, terms_seen, peers, forwarding,
           member](marcel::PollServer::Poller& poller) {
            auto incoming = endpoint->begin_unpacking();
            if (!incoming) return false;  // channel closed
            state->poll_server->charge_wakeup(poller);
            if (forwarding) {
              ForwardHeader fwd;
              incoming->unpack(&fwd, sizeof fwd, mad::SendMode::kSafer,
                               mad::RecvMode::kExpress);
              if (fwd.final_dst != member) {
                relay(member, fwd, *incoming);
                return true;
              }
            }
            handle_message(*state, *incoming, terms_seen.get());
            return *terms_seen < peers;
          });
    }
  };
  for (mad::Channel* channel : router_.channels()) {
    spawn_pollers(channel, /*forwarding=*/false);
  }
  for (mad::Channel* channel : forward_channels_router_.channels()) {
    spawn_pollers(channel, /*forwarding=*/true);
  }
}

void ChMadDevice::shutdown() {
  MADMPI_CHECK_MSG(started_, "ch_mad shutdown before start");
  // Workload traffic is done: everything the pollers handle from here on
  // (late credit returns, TERM broadcasts) is teardown drain and must not
  // leak into the DatapathStats wakeup counter.
  for (auto& [node_id, state] : states_) {
    state->poll_server->begin_drain();
  }
  // Credit returns, acks and pushes leave in place before the request they
  // serve completes, so once the ranks returned none races channel close
  // below.
  // Phase 1: every node announces termination to every direct peer, on
  // direct channels plainly and on forwarding channels wrapped in a
  // final-hop routing header.
  // Termination packets travel in teardown mode: out-of-band delivery that
  // bypasses fault injection, so pollers always drain their term quota and
  // join() cannot hang behind a dead link.
  PacketHeader term;
  term.type = PacketType::kTerm;
  for (mad::Channel* channel : router_.channels()) {
    for (node_id_t member : channel->members()) {
      mad::ChannelEndpoint* endpoint = channel->at(member);
      for (node_id_t peer : channel->members()) {
        if (peer == member) continue;
        mad::Packing packing =
            endpoint->begin_packing(peer, net::DeliveryMode::kTeardown);
        packing.pack(&term, kBaseHeaderBytes, mad::SendMode::kSafer,
                     mad::RecvMode::kExpress);
        packing.end_packing();
      }
    }
  }
  for (mad::Channel* channel : forward_channels_router_.channels()) {
    for (node_id_t member : channel->members()) {
      mad::ChannelEndpoint* endpoint = channel->at(member);
      for (node_id_t peer : channel->members()) {
        if (peer == member) continue;
        ForwardHeader header;
        header.origin = member;
        header.final_dst = peer;
        mad::Packing packing =
            endpoint->begin_packing(peer, net::DeliveryMode::kTeardown);
        packing.pack(&header, sizeof header, mad::SendMode::kSafer,
                     mad::RecvMode::kExpress);
        packing.pack(&term, kBaseHeaderBytes, mad::SendMode::kSafer,
                     mad::RecvMode::kExpress);
        packing.end_packing();
      }
    }
  }
  // Phase 2: pollers drain and exit, then channels close.
  for (auto& [node_id, state] : states_) {
    state->poll_server->join();
  }
  for (mad::Channel* channel : router_.channels()) channel->close();
  for (mad::Channel* channel : forward_channels_router_.channels()) {
    channel->close();
  }
  started_ = false;
}

Status ChMadDevice::transmit_packet(node_id_t src_node, node_id_t dst_node,
                                    const PacketHeader& header, byte_span body,
                                    const ChunkRef* chunk, bool rma_data) {
  // A data-bearing packet's CHEAPER body: a lent chunk travels by
  // reference, borrowed bytes stage into a pooled slab.
  auto pack_body = [&](mad::Packing& packing) {
    if (body.empty()) return;
    if (chunk != nullptr) {
      packing.pack_chunk(*chunk, mad::SendMode::kLater,
                         mad::RecvMode::kCheaper);
    } else {
      packing.pack(body.data(), body.size(), mad::SendMode::kLater,
                   mad::RecvMode::kCheaper);
    }
  };
  // Failover loop: elect the best *live* direct channel and try it. A
  // failed delivery marks the link dead inside the transport, so the next
  // route() election yields the next-best protocol (e.g. SCI down -> TCP).
  // The loop terminates because link health only ever worsens and the
  // channel set is finite.
  while (mad::Channel* direct = router_.route(src_node, dst_node)) {
    mad::ChannelEndpoint* endpoint = direct->at(src_node);
    net::DeliveryMode mode = net::DeliveryMode::kNormal;
    if (rma_data) {
      // One-sided initiation cost of the elected network (SISCI's mapped
      // PIO is near-free, TCP emulation pays a syscall-ish setup). A
      // failover retry re-issues the operation and pays again.
      endpoint->node().clock().advance(endpoint->model().rma_put_us);
      if (direct->driver().supports_rma_direct()) {
        mode = net::DeliveryMode::kRmaDirect;
      }
    }
    mad::Packing packing = endpoint->begin_packing(dst_node, mode);
    packing.pack(&header, kBaseHeaderBytes, mad::SendMode::kSafer,
                 mad::RecvMode::kExpress);
    if (is_rma(header.type)) {
      packing.pack(&header.rma, sizeof header.rma, mad::SendMode::kSafer,
                   mad::RecvMode::kExpress);
    }
    pack_body(packing);
    Status status = packing.end_packing();
    if (status.is_ok()) return status;

    failovers_.fetch_add(1, std::memory_order_relaxed);
    sim::trace(state_of(src_node).node->clock().now(), src_node,
               sim::TraceCategory::kFailover, body.size(),
               sim::protocol_name(direct->protocol()));
    // Multi-hop routes may have crossed the dead link too.
    if (forward_router_.has_value()) forward_router_->rebuild();
  }

  // Every direct protocol is down (or the pair never shared a network):
  // gateway forwarding is the last resort.
  if (!forward_router_.has_value()) {
    return Status(ErrorCode::kUnreachable,
                  "no live channel to node " + std::to_string(dst_node) +
                      " and forwarding is disabled");
  }
  const node_id_t next = forward_router_->next_hop(src_node, dst_node);
  if (next == kInvalidNode) {
    return Status(ErrorCode::kUnreachable,
                  "no forwarding path to node " + std::to_string(dst_node));
  }
  mad::Channel* egress = forward_channels_router_.route(src_node, next);
  if (egress == nullptr) {
    return Status(ErrorCode::kUnreachable,
                  "no live forwarding channel towards node " +
                      std::to_string(next));
  }

  ForwardHeader fwd;
  fwd.origin = src_node;
  fwd.final_dst = dst_node;
  mad::Packing packing = egress->at(src_node)->begin_packing(next);
  packing.pack(&fwd, sizeof fwd, mad::SendMode::kSafer,
               mad::RecvMode::kExpress);
  packing.pack(&header, kBaseHeaderBytes, mad::SendMode::kSafer,
               mad::RecvMode::kExpress);
  if (is_rma(header.type)) {
    packing.pack(&header.rma, sizeof header.rma, mad::SendMode::kSafer,
                 mad::RecvMode::kExpress);
  }
  pack_body(packing);
  return packing.end_packing();
}

void ChMadDevice::relay(node_id_t me, ForwardHeader fwd,
                        mad::Unpacking& incoming) {
  // Drain everything before touching the egress channel: a message whose
  // sender aborted mid-flight must be discarded here, not half-relayed.
  std::vector<mad::Unpacking::DrainedBlock> blocks;
  while (auto block = incoming.drain_block()) {
    blocks.push_back(std::move(*block));
  }
  incoming.end_unpacking();
  if (incoming.aborted()) return;  // origin retries end-to-end

  const node_id_t next = forward_router_->next_hop(me, fwd.final_dst);
  MADMPI_CHECK_MSG(next != kInvalidNode,
                   "gateway has no route to the final destination");
  mad::Channel* egress = forward_channels_router_.route(me, next);
  MADMPI_CHECK_MSG(egress != nullptr, "no forwarding channel to next hop");

  ++fwd.hops;
  mad::Packing out = egress->at(me)->begin_packing(next);
  out.pack(&fwd, sizeof fwd, mad::SendMode::kSafer, mad::RecvMode::kExpress);
  for (const auto& block : blocks) {
    // Zero-copy relay: the drained chunk reference is repacked as-is; a
    // separate egress block travels by refcount bump instead of a staging
    // copy (pack_chunk charges kSafer identically to pack).
    out.pack_chunk(block.chunk, mad::SendMode::kSafer,
                   block.express ? mad::RecvMode::kExpress
                                 : mad::RecvMode::kCheaper);
  }
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  sim::trace(states_.at(me)->node->clock().now(), me,
             sim::TraceCategory::kRelay, 0, "gateway");
  out.end_packing();
}

Status ChMadDevice::send(rank_t src, rank_t dst, const mpi::Envelope& env,
                         byte_span packed, mpi::TransferMode mode) {
  sim::Node& src_node = directory_.node_of(src);
  sim::Node& dst_node = directory_.node_of(dst);

  PacketHeader header;
  header.src_global = src;
  header.dst_global = dst;
  header.envelope = env;

  if (mode == mpi::TransferMode::kEager) {
    // MAD_SHORT_PKT: the ADI short packet is split (paper §4.2.2) — its
    // header travels in the ch_mad message header, the user data directly
    // as the message body, avoiding the copy into a padded
    // MPID_PKT_MAX_DATA_SIZE buffer on the sending side.
    header.type = PacketType::kShort;
    eager_sent_.fetch_add(1, std::memory_order_relaxed);
    Status status = send_packet(src_node.id(), dst_node.id(), header, packed);
    if (!status.is_ok() && credit_window_ != 0) {
      // The message never left: hand the admission's credits back so a
      // dead peer does not also bleed the sender's window dry.
      refund_credit(src_node.id(), dst_node.id(),
                    packed.size() +
                        mpi::RankContext::kUnexpectedEntryOverhead);
    }
    return status;
  }

  // Rendezvous (paper §4.2.2): 1) request; 2) peer acknowledges with its
  // sync_address once a receive is posted; 3) data goes out zero-copy. The
  // sender parks on the request the data push (or the watchdog) completes:
  // `packed` stays lent to the wire until the receiver placed the bytes.
  auto done = std::make_shared<mpi::RequestState>(src_node);
  Status status = start_rendezvous(src, dst, env, packed, {}, done);
  if (!status.is_ok()) return status;  // the request never left
  const ErrorCode error = done->wait().error;
  if (error == ErrorCode::kOk) return Status::ok();
  return Status(error, "rendezvous send to rank " + std::to_string(dst));
}

void ChMadDevice::isend_rendezvous(rank_t src, rank_t dst,
                                   const mpi::Envelope& env, byte_span packed,
                                   std::vector<std::byte> owned,
                                   std::shared_ptr<mpi::RequestState> state) {
  const Status status =
      start_rendezvous(src, dst, env, packed, std::move(owned), state);
  if (!status.is_ok()) {
    mpi::RequestState::complete(state,
                                mpi::MpiStatus::of_send(env, status.code()));
  }
}

Status ChMadDevice::start_rendezvous(
    rank_t src, rank_t dst, const mpi::Envelope& env, byte_span packed,
    std::vector<std::byte> owned,
    std::shared_ptr<mpi::RequestState> completion) {
  sim::Node& src_node = directory_.node_of(src);
  sim::Node& dst_node = directory_.node_of(dst);
  rendezvous_sent_.fetch_add(1, std::memory_order_relaxed);
  NodeState& node_state = state_of(src_node.id());

  auto* pending = new PendingSend;
  pending->data = packed;
  pending->header.src_global = src;
  pending->header.dst_global = dst;
  pending->header.envelope = env;
  pending->peer_node = dst_node.id();
  pending->started_at = src_node.clock().now();
  pending->completion = std::move(completion);
  pending->owned = std::move(owned);
  {
    std::lock_guard<std::mutex> lock(node_state.mutex);
    pending->handle = node_state.next_send_handle++;
    node_state.pending_sends[pending->handle] = pending;
  }
  PacketHeader header = pending->header;
  header.type = PacketType::kRndvRequest;
  header.sender_handle = pending->handle;
  Status status = send_packet(src_node.id(), dst_node.id(), header);
  if (!status.is_ok()) {
    // (A request that arrived over a since-severed reply path leaves the
    // sender waiting until the watchdog cancels it; see DESIGN.md.)
    {
      std::lock_guard<std::mutex> lock(node_state.mutex);
      node_state.pending_sends.erase(pending->handle);
    }
    delete pending;
  }
  return status;
}

void ChMadDevice::fail_pending_send(PendingSend* pending, ErrorCode error) {
  mpi::RequestState::complete(
      std::move(pending->completion),
      mpi::MpiStatus::of_send(pending->header.envelope, error));
  delete pending;
}

Status ChMadDevice::rma(rank_t src, rank_t dst, const mpi::RmaDesc& desc,
                        byte_span payload, void* get_dest,
                        std::shared_ptr<mpi::RequestState> completion) {
  sim::Node& src_node = directory_.node_of(src);
  sim::Node& dst_node = directory_.node_of(dst);
  PacketHeader header;
  header.src_global = src;
  header.dst_global = dst;
  header.rma = desc;
  // The envelope rides along for tracing and byte-order: one-sided wire
  // data travels in the origin's order, converted on landing.
  header.envelope.src = src;
  header.envelope.dst = dst;
  header.envelope.bytes = desc.bytes;
  header.envelope.sender_big_endian = src_node.big_endian();
  switch (desc.kind) {
    case mpi::RmaKind::kPut: header.type = PacketType::kRmaPut; break;
    case mpi::RmaKind::kGet: header.type = PacketType::kRmaGet; break;
    case mpi::RmaKind::kAccumulate:
      header.type = PacketType::kRmaAccumulate;
      break;
    case mpi::RmaKind::kLock: header.type = PacketType::kRmaLock; break;
    case mpi::RmaKind::kUnlock: header.type = PacketType::kRmaUnlock; break;
    case mpi::RmaKind::kSync: header.type = PacketType::kRmaSync; break;
    default:
      return Status(ErrorCode::kInvalidArgument,
                    "not an origin-issued one-sided kind");
  }

  NodeState& state = state_of(src_node.id());
  std::uint64_t handle = 0;
  if (completion != nullptr) {
    std::lock_guard<std::mutex> lock(state.mutex);
    handle = state.next_rma_handle++;
    RmaPending pending;
    pending.completion = std::move(completion);
    pending.get_dest = get_dest;
    pending.bytes = desc.kind == mpi::RmaKind::kGet ? desc.bytes : 0;
    state.rma_pending[handle] = std::move(pending);
    header.sender_handle = handle;
  }

  rma_ops_sent_.fetch_add(1, std::memory_order_relaxed);
  Status status =
      send_packet(src_node.id(), dst_node.id(), header, payload,
                  /*rma_data=*/true);
  if (!status.is_ok() && handle != 0) {
    // The op never left; nobody will ever reply to the handle.
    std::lock_guard<std::mutex> lock(state.mutex);
    state.rma_pending.erase(handle);
  }
  return status;
}

bool ChMadDevice::admit_eager(rank_t src, rank_t dst, std::uint64_t bytes) {
  if (credit_window_ == 0) return true;
  const std::size_t charge = static_cast<std::size_t>(bytes) +
                             mpi::RankContext::kUnexpectedEntryOverhead;
  if (charge > credit_window_) return false;  // can never fit: rendezvous
  const node_id_t src_node = directory_.node_of(src).id();
  const node_id_t dst_node = directory_.node_of(dst).id();
  if (src_node == dst_node) return true;  // not this device's traffic
  NodeState& state = state_of(src_node);
  std::lock_guard<std::mutex> lock(state.mutex);
  CreditAccount& account = account_of(state, dst_node);
  if (account.available < charge) {
    eager_demoted_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  account.available -= charge;
  return true;
}

ChMadDevice::CreditAccount& ChMadDevice::account_of(NodeState& state,
                                                    node_id_t peer) {
  CreditAccount& account = state.credits[peer];
  if (!account.initialized) {
    account.initialized = true;
    account.available = credit_window_;
  }
  return account;
}

void ChMadDevice::credit_consumed(node_id_t me, node_id_t origin,
                                  std::size_t charge) {
  if (credit_window_ == 0 || me == origin) return;
  NodeState& state = state_of(me);
  std::size_t batch = 0;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    std::size_t& owed = state.pending_returns[origin];
    owed += charge;
    // Return credits in batches of half a window: often enough that a
    // sender never starves behind a draining receiver, rare enough that
    // credit traffic stays a sliver of data traffic. Smaller debts ride
    // for free on the next rendezvous ack towards the peer. Under schedule
    // exploration the threshold moves within [window/4, 3*window/4] per
    // batch epoch, shifting *when* the refill races the sender's next
    // admission without ever losing a byte of credit.
    std::size_t threshold = credit_window_ / 2;
    if (auto* sched = sim::ScheduleController::current()) {
      threshold = sched->credit_batch_threshold(
          me, origin, state.credit_epochs[origin], credit_window_);
    }
    if (owed < threshold) return;
    ++state.credit_epochs[origin];
    batch = owed;
    owed = 0;
  }
  // A credit return is a temporary thread, as a rendezvous ack is.
  marcel::Executor::run_here(*state.node, marcel::ThreadCosts::kCreate, [&] {
    PacketHeader header;
    header.type = PacketType::kCredit;
    header.credit_bytes = batch;
    header.credit_origin = me;
    credit_packets_.fetch_add(1, std::memory_order_relaxed);
    if (!send_packet(me, origin, header).is_ok()) {
      // The peer is gone; put the debt back so credit conservation holds
      // for observers even though nobody will collect it.
      std::lock_guard<std::mutex> lock(state.mutex);
      state.pending_returns[origin] += batch;
    }
  });
}

void ChMadDevice::apply_credit(NodeState& state,
                               const PacketHeader& header) {
  if (credit_window_ == 0 || header.credit_bytes == 0 ||
      header.credit_origin == kInvalidNode) {
    return;
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  CreditAccount& account = account_of(state, header.credit_origin);
  account.available = std::min(
      account.available + static_cast<std::size_t>(header.credit_bytes),
      credit_window_);
}

void ChMadDevice::refund_credit(node_id_t src_node, node_id_t dst_node,
                                std::size_t charge) {
  if (credit_window_ == 0 || src_node == dst_node) return;
  NodeState& state = state_of(src_node);
  std::lock_guard<std::mutex> lock(state.mutex);
  CreditAccount& account = account_of(state, dst_node);
  account.available = std::min(account.available + charge, credit_window_);
}

std::size_t ChMadDevice::take_pending_returns(NodeState& state,
                                              node_id_t peer) {
  if (credit_window_ == 0) return 0;
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.pending_returns.find(peer);
  if (it == state.pending_returns.end() || it->second == 0) return 0;
  const std::size_t taken = it->second;
  it->second = 0;
  return taken;
}

std::size_t ChMadDevice::credits_available(node_id_t src_node,
                                           node_id_t dst_node) {
  NodeState& state = state_of(src_node);
  std::lock_guard<std::mutex> lock(state.mutex);
  return account_of(state, dst_node).available;
}

std::size_t ChMadDevice::credits_pending_return(node_id_t node,
                                                node_id_t peer) {
  NodeState& state = state_of(node);
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.pending_returns.find(peer);
  return it == state.pending_returns.end() ? 0 : it->second;
}

std::size_t ChMadDevice::pending_send_count(node_id_t node) {
  NodeState& state = state_of(node);
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.pending_sends.size();
}

bool ChMadDevice::try_cancel_send(rank_t src, rank_t dst,
                                  const mpi::Envelope& env) {
  NodeState& state = state_of(directory_.node_of(src).id());
  PendingSend* victim = nullptr;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (auto it = state.pending_sends.begin();
         it != state.pending_sends.end(); ++it) {
      PendingSend* pending = it->second;
      const mpi::Envelope& have = pending->header.envelope;
      if (pending->header.src_global != src ||
          pending->header.dst_global != dst || have.context != env.context ||
          have.tag != env.tag || have.bytes != env.bytes) {
        continue;
      }
      victim = pending;
      state.pending_sends.erase(it);
      break;
    }
  }
  if (victim == nullptr) return false;  // data push started: too late
  sim::trace(state.node->clock().now(), state.node->id(),
             sim::TraceCategory::kComplete, env.bytes, "cancel-send");
  fail_pending_send(victim, ErrorCode::kCancelled);
  return true;
}

std::size_t ChMadDevice::watchdog_sweep(const RouteDead& route_dead,
                                        usec_t horizon) {
  std::size_t canceled = 0;
  for (auto& [node_id, state_ptr] : states_) {
    NodeState& state = *state_ptr;
    const node_id_t me = node_id;

    // The route predicate takes channel/session locks, so consult it
    // without holding the node state mutex: snapshot the peers involved
    // in open rendezvous transactions, judge them unlocked, then re-take
    // the lock to detach the victims.
    std::vector<node_id_t> peers;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      for (const auto& [handle, pending] : state.pending_sends) {
        if (pending->peer_node == kInvalidNode) continue;
        if (std::find(peers.begin(), peers.end(), pending->peer_node) ==
            peers.end()) {
          peers.push_back(pending->peer_node);
        }
      }
      for (const auto& [sync, rhandle] : state.rhandles) {
        if (rhandle.origin_node == kInvalidNode) continue;
        if (std::find(peers.begin(), peers.end(), rhandle.origin_node) ==
            peers.end()) {
          peers.push_back(rhandle.origin_node);
        }
      }
    }
    std::vector<node_id_t> dead;
    for (node_id_t peer : peers) {
      // A rendezvous needs both directions: the request/ack leg and the
      // data leg. Either one severed for good means no completion.
      if (route_dead(peer, me) || route_dead(me, peer)) {
        dead.push_back(peer);
      }
    }
    if (dead.empty()) continue;

    std::vector<PendingSend*> dead_sends;
    std::vector<Rhandle> dead_rhandles;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      for (auto it = state.pending_sends.begin();
           it != state.pending_sends.end();) {
        PendingSend* pending = it->second;
        if (std::find(dead.begin(), dead.end(), pending->peer_node) !=
            dead.end()) {
          dead_sends.push_back(pending);
          it = state.pending_sends.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = state.rhandles.begin(); it != state.rhandles.end();) {
        if (std::find(dead.begin(), dead.end(), it->second.origin_node) !=
            dead.end()) {
          dead_rhandles.push_back(std::move(it->second));
          it = state.rhandles.erase(it);
        } else {
          ++it;
        }
      }
    }

    for (PendingSend* pending : dead_sends) {
      // Deterministic stamp: the sender observes the error `horizon`
      // after it parked, not whenever this wall-clock thread fired.
      state.node->clock().bind_lane(pending->started_at + horizon);
      fail_pending_send(pending, ErrorCode::kTimedOut);
      ++canceled;
    }
    for (Rhandle& rhandle : dead_rhandles) {
      state.node->clock().bind_lane(rhandle.created_at + horizon);
      mpi::MpiStatus status;
      status.source = rhandle.posted.source;
      status.tag = rhandle.posted.tag;
      status.bytes = 0;
      status.error = ErrorCode::kTimedOut;
      mpi::RequestState::complete(rhandle.posted.request, status);
      ++canceled;
    }
  }
  return canceled;
}

void ChMadDevice::post_rma_reply(NodeState& state, node_id_t dst_node,
                                 PacketHeader header, ChunkRef body) {
  const node_id_t src_node = state.node->id();
  marcel::Executor::run_here(*state.node, marcel::ThreadCosts::kCreate, [&] {
    // Failure is survivable: the origin's watchdog/fence error path owns
    // recovery, the same as a lost rendezvous ack.
    Status status =
        send_packet(src_node, dst_node, header, body.span(), /*rma_data=*/true);
    if (!status.is_ok()) {
      MADMPI_LOG_WARN("ch_mad", "one-sided reply to node %d failed: %s",
                      static_cast<int>(dst_node), status.message().c_str());
    }
  });
}

void ChMadDevice::handle_message(NodeState& state, mad::Unpacking& incoming,
                                 int* terms_seen) {
  PacketHeader header;
  incoming.unpack(&header, kBaseHeaderBytes, mad::SendMode::kSafer,
                  mad::RecvMode::kExpress);
  if (is_rma(header.type)) {
    incoming.unpack(&header.rma, sizeof header.rma, mad::SendMode::kSafer,
                    mad::RecvMode::kExpress);
  }
  state.node->clock().advance(kDispatchUs);
  // Inbound credits refill this node's window towards their origin no
  // matter what packet carried them (piggybacked or standalone).
  apply_credit(state, header);
  if (sim::Tracer::global().enabled()) {
    const char* kind = "short";
    switch (header.type) {
      case PacketType::kShort: kind = "short"; break;
      case PacketType::kRndvRequest: kind = "rndv_req"; break;
      case PacketType::kRndvOkToSend: kind = "rndv_ok"; break;
      case PacketType::kRndvData: kind = "rndv_data"; break;
      case PacketType::kTerm: kind = "term"; break;
      case PacketType::kCredit: kind = "credit"; break;
      case PacketType::kRmaPut: kind = "rma_put"; break;
      case PacketType::kRmaGet: kind = "rma_get"; break;
      case PacketType::kRmaGetReply: kind = "rma_get_reply"; break;
      case PacketType::kRmaAccumulate: kind = "rma_acc"; break;
      case PacketType::kRmaLock: kind = "rma_lock"; break;
      case PacketType::kRmaLockGrant: kind = "rma_lock_grant"; break;
      case PacketType::kRmaUnlock: kind = "rma_unlock"; break;
      case PacketType::kRmaSync: kind = "rma_sync"; break;
      case PacketType::kRmaAck: kind = "rma_ack"; break;
    }
    sim::trace(state.node->clock().now(), state.node->id(),
               sim::TraceCategory::kDispatch, header.envelope.bytes, kind);
  }

  switch (header.type) {
    case PacketType::kShort: {
      // Allocation-free fast path: view the payload where the wire put it
      // (the control frame's slab, or the body's own data frame) and hand
      // the chunk reference down. An immediate match unpacks straight into
      // the user buffer; an unexpected message parks the reference — the
      // device bounce buffer is gone either way.
      mad::Unpacking::View view;
      if (header.envelope.bytes != 0) {
        view = incoming.unpack_view(header.envelope.bytes,
                                    mad::SendMode::kLater,
                                    mad::RecvMode::kCheaper);
      }
      incoming.end_unpacking();
      if (incoming.aborted()) {
        // The sender gave up mid-message and retries the whole packet on
        // another route: discarding here keeps delivery exactly-once.
        return;
      }
      // Flow control: the sender's credits come back once the payload is
      // *consumed* (copied into a user buffer), not on arrival — that is
      // what makes a slow receiver throttle its senders.
      const node_id_t me = state.node->id();
      const node_id_t origin_node =
          directory_.node_of(header.src_global).id();
      mpi::EagerConsumed release;
      if (credit_window_ != 0 && origin_node != me) {
        const std::size_t charge =
            static_cast<std::size_t>(header.envelope.bytes) +
            mpi::RankContext::kUnexpectedEntryOverhead;
        release = [this, me, origin_node, charge] {
          credit_consumed(me, origin_node, charge);
        };
      }
      directory_.context_of(header.dst_global)
          .deliver_eager(header.envelope, view.bytes, std::move(release),
                         std::move(view.backing));
      return;
    }

    case PacketType::kRndvRequest: {
      incoming.end_unpacking();
      NodeState* state_ptr = &state;
      // The acknowledgement routes to the requesting rank's node (which,
      // under forwarding, is not necessarily the neighbour the request
      // arrived from).
      const node_id_t origin_node =
          directory_.node_of(header.src_global).id();
      directory_.context_of(header.dst_global)
          .deliver_rendezvous(
              header.envelope,
              [this, state_ptr, origin_node, header](const mpi::Envelope&,
                                                     mpi::PostedRecv posted) {
                std::uint64_t sync_address = 0;
                {
                  std::lock_guard<std::mutex> lock(state_ptr->mutex);
                  sync_address = state_ptr->next_rhandle++;
                  Rhandle rhandle;
                  rhandle.posted = std::move(posted);
                  rhandle.origin_node = origin_node;
                  rhandle.created_at = state_ptr->node->clock().now();
                  state_ptr->rhandles[sync_address] = std::move(rhandle);
                }
                PacketHeader ack = header;
                ack.type = PacketType::kRndvOkToSend;
                ack.sync_address = sync_address;
                // Pollers never send (§4.2.3), so a temporary thread acks.
                marcel::Executor::run_here(
                    *state_ptr->node, marcel::ThreadCosts::kCreate, [&] {
                      const node_id_t me = state_ptr->node->id();
                      // Piggyback flow-control credits owed to the ack's
                      // destination: a receiver's debt towards its eager
                      // senders rides rendezvous acks for free.
                      const std::size_t credits =
                          take_pending_returns(*state_ptr, origin_node);
                      if (credits != 0) {
                        ack.credit_bytes = credits;
                        ack.credit_origin = me;
                      }
                      // On failure the watchdog cancels the parked sender.
                      if (!send_packet(me, origin_node, ack).is_ok() &&
                          credits != 0) {
                        std::lock_guard<std::mutex> lock(state_ptr->mutex);
                        state_ptr->pending_returns[origin_node] += credits;
                      }
                    });
              });
      return;
    }

    case PacketType::kRndvOkToSend: {
      incoming.end_unpacking();
      PendingSend* pending = nullptr;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        auto it = state.pending_sends.find(header.sender_handle);
        if (it == state.pending_sends.end()) {
          // The watchdog canceled this rendezvous while the ack was in
          // flight; the sender has already returned with an error.
          MADMPI_LOG_WARN("ch_mad",
                          "dropping OK_TO_SEND for canceled send %llu",
                          static_cast<unsigned long long>(
                              header.sender_handle));
          return;
        }
        // Past the point of no return: a pushing send is not cancellable,
        // and from here on the data push owns it.
        pending = it->second;
        state.pending_sends.erase(it);
      }
      const node_id_t receiver_node =
          directory_.node_of(header.dst_global).id();
      sim::Node* node = state.node;
      marcel::Executor::run_here(*node, marcel::ThreadCosts::kCreate, [&] {
        PacketHeader data = pending->header;
        data.type = PacketType::kRndvData;
        data.sync_address = header.sync_address;
        push_lent(*node, pending->data, std::move(pending->owned),
                  std::move(pending->completion), data.envelope,
                  [&](const ChunkRef& body) {
                    return send_packet(node->id(), receiver_node, data, body);
                  });
      });
      delete pending;
      return;
    }

    case PacketType::kRndvData: {
      Rhandle rhandle;
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        auto it = state.rhandles.find(header.sync_address);
        if (it == state.rhandles.end()) {
          // The watchdog canceled the matched receive while the data was
          // in flight; drain the body and drop it.
          lock.unlock();
          MADMPI_LOG_WARN("ch_mad",
                          "dropping RNDV_DATA for canceled rhandle %llu",
                          static_cast<unsigned long long>(
                              header.sync_address));
          while (incoming.drain_block()) {
          }
          incoming.end_unpacking();
          return;
        }
        rhandle = std::move(it->second);
        state.rhandles.erase(it);
      }
      const mpi::PostedRecv& posted = rhandle.posted;
      const std::uint64_t bytes = header.envelope.bytes;
      // Consume the wire block as a view and place it from there. A
      // malformed stream claiming more data than arrived leaves the view
      // empty and incoming.truncated() set: the placement then reports
      // MPI_ERR_TRUNCATE on the posted request instead of aborting the
      // rank.
      mad::Unpacking::View view;
      if (bytes != 0) {
        view = incoming.unpack_view(bytes, mad::SendMode::kLater,
                                    mad::RecvMode::kCheaper);
      }
      incoming.end_unpacking();
      if (incoming.aborted()) {
        // The sender's data push died mid-flight; it re-elects a route
        // and resends kRndvData with the same sync_address. Re-arm the
        // rhandle so the retry finds it.
        std::lock_guard<std::mutex> lock(state.mutex);
        state.rhandles[header.sync_address] = std::move(rhandle);
        return;
      }
      // An oversized message is an application error (MPI_ERR_TRUNCATE),
      // not a protocol one: the full wire block is consumed and the prefix
      // that fits delivered.
      const mpi::MpiStatus status =
          mpi::place_recv(posted, header.envelope, view.bytes);
      if (bytes != 0 && !incoming.truncated()) {
        // `direct` is purely a charging distinction: a contiguous receive
        // that fits models the NIC landing straight in the user buffer,
        // and any other receive pays the modeled intermediary copy.
        const bool direct = posted.type.is_contiguous() &&
                            bytes <= posted.capacity_bytes;
        if (!direct) {
          state.node->clock().advance(static_cast<double>(status.bytes) *
                                      sim::kHostCopyUsPerByte);
        }
        if (header.envelope.sender_big_endian !=
            state.node->big_endian()) {
          // Conversion work is real only across unlike nodes.
          state.node->clock().advance(static_cast<double>(bytes) *
                                      sim::kHostCopyUsPerByte);
        }
      }
      // Drop the wire reference first: a lent sender buffer is released
      // (completing the send) before the receive completes. Releasing the
      // rhandle's request = the blocked main thread resumes (paper §4.2.2,
      // last step).
      view = {};
      mpi::RequestState::complete(posted.request, status);
      return;
    }

    case PacketType::kTerm: {
      incoming.end_unpacking();
      ++(*terms_seen);
      return;
    }

    case PacketType::kCredit: {
      // Header-only; the refill was applied above with apply_credit.
      incoming.end_unpacking();
      return;
    }

    case PacketType::kRmaPut:
    case PacketType::kRmaAccumulate: {
      // Data lands straight in window memory: view the wire bytes where
      // the driver put them (for kRmaDirect, "where the NIC wrote them")
      // and place them under the window lock. No unexpected-store staging,
      // no rendezvous bounce.
      mad::Unpacking::View view;
      if (header.rma.bytes != 0) {
        view = incoming.unpack_view(header.rma.bytes, mad::SendMode::kLater,
                                    mad::RecvMode::kCheaper);
      }
      const sim::LinkCostModel& model = incoming.model();
      incoming.end_unpacking();
      if (incoming.aborted()) {
        // The origin's failover loop re-issues the whole op on the
        // next-best route; dropping keeps application exactly-once.
        return;
      }
      mpi::WinTarget* win = directory_.context_of(header.dst_global)
                                .find_window(header.rma.win_id);
      if (win == nullptr) {
        MADMPI_LOG_WARN("ch_mad", "one-sided op for unknown window %llu",
                        static_cast<unsigned long long>(header.rma.win_id));
        return;
      }
      std::vector<std::function<void()>> ready;
      {
        std::lock_guard<std::mutex> lock(win->mutex);
        const std::uint64_t offset = header.rma.offset;
        const std::uint64_t bytes = header.rma.bytes;
        const bool in_range =
            bytes <= win->bytes && offset <= win->bytes - bytes;
        if (!in_range || view.bytes.size() != bytes) {
          // Origin-side bounds checks make this unreachable from the Win
          // API; a corrupt descriptor must not scribble past the window.
          MADMPI_LOG_WARN("ch_mad",
                          "dropping out-of-range one-sided op at %llu+%llu",
                          static_cast<unsigned long long>(offset),
                          static_cast<unsigned long long>(bytes));
        } else if (bytes != 0) {
          const std::size_t width = mpi::rma_type_width(header.rma.type);
          if (header.type == PacketType::kRmaPut) {
            std::memcpy(win->base + offset, view.bytes.data(), bytes);
            if (header.envelope.sender_big_endian && width > 1) {
              // Window memory holds host order; the wire slab (shared
              // with retransmits) stays untouched.
              mpi::rma_datatype(header.rma.type)
                  .swap_packed_bytes(win->base + offset, bytes);
            }
            ++win->puts_applied;
          } else {
            byte_span wire = view.bytes;
            ChunkRef swapped;
            if (header.envelope.sender_big_endian && width > 1) {
              swapped = SlabPool::global().stage(wire);
              mpi::rma_datatype(header.rma.type)
                  .swap_packed_bytes(swapped.mutable_data(), bytes);
              wire = swapped.span();
            }
            if (header.rma.op == mpi::RmaOp::kReplace) {
              std::memcpy(win->base + offset, wire.data(), bytes);
            } else {
              mpi::rma_op(header.rma.op)
                  .apply(wire.data(), win->base + offset,
                         static_cast<int>(bytes / width),
                         mpi::rma_datatype(header.rma.type));
            }
            ++win->accs_applied;
          }
          DatapathStats::global().count_copy(bytes);
          // Landing cost: zero where the network wrote into the mapped
          // window itself (SISCI PIO), a host copy where it was emulated.
          state.node->clock().advance(static_cast<double>(bytes) *
                                      model.rma_landing_us_per_byte);
          if (header.envelope.sender_big_endian !=
              state.node->big_endian()) {
            state.node->clock().advance(static_cast<double>(bytes) *
                                        sim::kHostCopyUsPerByte);
          }
        }
        // The ledger counts even a dropped op: the origin counted it in
        // `sent`, and a fence waiting for it must not hang.
        ready = win->note_applied(header.src_global);
      }
      for (auto& fire : ready) fire();
      return;
    }

    case PacketType::kRmaGet: {
      incoming.end_unpacking();
      const sim::LinkCostModel& model = incoming.model();
      PacketHeader reply = header;  // echoes sender_handle and rma
      reply.type = PacketType::kRmaGetReply;
      reply.src_global = header.dst_global;
      reply.dst_global = header.src_global;
      reply.envelope.sender_big_endian = state.node->big_endian();
      mpi::WinTarget* win = directory_.context_of(header.dst_global)
                                .find_window(header.rma.win_id);
      ChunkRef body;
      const std::uint64_t offset = header.rma.offset;
      const std::uint64_t bytes = header.rma.bytes;
      if (win != nullptr && bytes != 0 && bytes <= win->bytes &&
          offset <= win->bytes - bytes) {
        // Snapshot the window range into a pool chunk (the reply task
        // must not read live window memory unlocked); a big-endian target
        // ships it in its own order, the origin converts.
        body = SlabPool::global().allocate(bytes);
        std::lock_guard<std::mutex> lock(win->mutex);
        std::memcpy(body.mutable_data(), win->base + offset, bytes);
        if (state.node->big_endian() &&
            mpi::rma_type_width(header.rma.type) > 1) {
          mpi::rma_datatype(header.rma.type)
              .swap_packed_bytes(body.mutable_data(), bytes);
        }
        DatapathStats::global().count_copy(bytes);
        state.node->clock().advance(static_cast<double>(bytes) *
                                    model.rma_landing_us_per_byte);
      } else {
        // Unknown window or out-of-range read: reply empty; the origin
        // surfaces kTruncated on the pending get.
        reply.rma.bytes = 0;
        reply.envelope.bytes = 0;
        MADMPI_LOG_WARN("ch_mad", "one-sided get rejected at %llu+%llu",
                        static_cast<unsigned long long>(offset),
                        static_cast<unsigned long long>(bytes));
      }
      const node_id_t origin_node =
          directory_.node_of(header.src_global).id();
      post_rma_reply(state, origin_node, reply, std::move(body));
      return;
    }

    case PacketType::kRmaGetReply: {
      mad::Unpacking::View view;
      if (header.rma.bytes != 0) {
        view = incoming.unpack_view(header.rma.bytes, mad::SendMode::kLater,
                                    mad::RecvMode::kCheaper);
      }
      incoming.end_unpacking();
      if (incoming.aborted()) return;  // reply task retries via failover
      RmaPending pending;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        auto it = state.rma_pending.find(header.sender_handle);
        if (it == state.rma_pending.end()) {
          MADMPI_LOG_WARN("ch_mad", "get reply for unknown handle %llu",
                          static_cast<unsigned long long>(
                              header.sender_handle));
          return;
        }
        pending = std::move(it->second);
        state.rma_pending.erase(it);
      }
      if (!view.bytes.empty() && pending.get_dest != nullptr) {
        std::memcpy(pending.get_dest, view.bytes.data(), view.bytes.size());
        if (header.envelope.sender_big_endian &&
            mpi::rma_type_width(header.rma.type) > 1) {
          mpi::rma_datatype(header.rma.type)
              .swap_packed_bytes(static_cast<std::byte*>(pending.get_dest),
                                 view.bytes.size());
        }
        if (header.envelope.sender_big_endian != state.node->big_endian()) {
          state.node->clock().advance(
              static_cast<double>(view.bytes.size()) *
              sim::kHostCopyUsPerByte);
        }
        DatapathStats::global().count_copy(view.bytes.size());
      }
      mpi::MpiStatus status;
      status.bytes = view.bytes.size();
      if (view.bytes.size() != pending.bytes) {
        status.error = ErrorCode::kTruncated;
      }
      mpi::RequestState::complete(pending.completion, status);
      return;
    }

    case PacketType::kRmaLock: {
      incoming.end_unpacking();
      mpi::WinTarget* win = directory_.context_of(header.dst_global)
                                .find_window(header.rma.win_id);
      if (win == nullptr) {
        MADMPI_LOG_WARN("ch_mad", "lock request for unknown window %llu",
                        static_cast<unsigned long long>(header.rma.win_id));
        return;
      }
      PacketHeader grant = header;
      grant.type = PacketType::kRmaLockGrant;
      grant.src_global = header.dst_global;
      grant.dst_global = header.src_global;
      const node_id_t origin_node =
          directory_.node_of(header.src_global).id();
      NodeState* state_ptr = &state;
      auto fire = [this, state_ptr, origin_node, grant] {
        post_rma_reply(*state_ptr, origin_node, grant, ChunkRef());
      };
      bool now = false;
      {
        std::lock_guard<std::mutex> lock(win->mutex);
        if (win->grantable(header.rma.lock)) {
          win->acquire(header.rma.lock);
          now = true;
        } else {
          win->waiters.push_back({header.rma.lock, fire});
        }
      }
      if (now) fire();
      return;
    }

    case PacketType::kRmaSync:
    case PacketType::kRmaUnlock: {
      incoming.end_unpacking();
      mpi::WinTarget* win = directory_.context_of(header.dst_global)
                                .find_window(header.rma.win_id);
      if (win == nullptr) {
        MADMPI_LOG_WARN("ch_mad", "fence for unknown window %llu",
                        static_cast<unsigned long long>(header.rma.win_id));
        return;
      }
      PacketHeader ack = header;
      ack.type = PacketType::kRmaAck;
      ack.src_global = header.dst_global;
      ack.dst_global = header.src_global;
      const node_id_t origin_node =
          directory_.node_of(header.src_global).id();
      NodeState* state_ptr = &state;
      auto fire = [this, state_ptr, origin_node, ack] {
        post_rma_reply(*state_ptr, origin_node, ack, ChunkRef());
      };
      const bool is_unlock = header.type == PacketType::kRmaUnlock;
      std::vector<std::function<void()>> ready;
      bool now = false;
      {
        std::lock_guard<std::mutex> lock(win->mutex);
        if (win->applied[header.src_global] >= header.rma.op_count) {
          if (is_unlock) ready = win->release_and_grant(header.rma.lock);
          now = true;
        } else {
          // Ledger behind the origin's cumulative count: park the ack (and
          // the unlock's release); note_applied fires it when the last
          // in-flight op lands.
          win->pending_acks.push_back(
              {header.src_global, header.rma.op_count,
               is_unlock ? header.rma.lock : mpi::RmaLockType::kNone, fire});
        }
      }
      for (auto& grant : ready) grant();
      if (now) fire();
      return;
    }

    case PacketType::kRmaLockGrant:
    case PacketType::kRmaAck: {
      incoming.end_unpacking();
      RmaPending pending;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        auto it = state.rma_pending.find(header.sender_handle);
        if (it == state.rma_pending.end()) {
          MADMPI_LOG_WARN("ch_mad", "one-sided ack for unknown handle %llu",
                          static_cast<unsigned long long>(
                              header.sender_handle));
          return;
        }
        pending = std::move(it->second);
        state.rma_pending.erase(it);
      }
      mpi::RequestState::complete(pending.completion, mpi::MpiStatus{});
      return;
    }
  }
  fatal("corrupt ch_mad packet type");
}

}  // namespace madmpi::core
