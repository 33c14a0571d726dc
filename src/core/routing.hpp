// Channel routing: which Madeleine channel carries traffic between two
// nodes. This is the "transparent dynamic device selection" the classic
// multi-device MPICH lacks (paper §2.3) — here it is a per-pair choice of
// the most performant common network, made inside the single ch_mad device.
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "core/switchpoint.hpp"
#include "mad/channel.hpp"

namespace madmpi::core {

class ChannelRouter {
 public:
  explicit ChannelRouter(std::vector<mad::Channel*> channels)
      : channels_(std::move(channels)) {}

  /// Best common channel between two nodes (highest protocol performance
  /// rank, ties broken towards the earlier-opened channel); nullptr when
  /// the nodes share no network. Channels whose a->b connection has been
  /// declared dead are skipped, so a re-election after a link failure
  /// transparently falls back to the next-best protocol (SCI down -> TCP).
  mad::Channel* route(node_id_t a, node_id_t b) const {
    mad::Channel* best = nullptr;
    for (mad::Channel* channel : channels_) {
      if (!channel->has_member(a) || !channel->has_member(b)) continue;
      if (a != b && !channel->link_alive(a, b)) continue;
      if (best == nullptr ||
          protocol_performance_rank(channel->protocol()) >
              protocol_performance_rank(best->protocol())) {
        best = channel;
      }
    }
    return best;
  }

  /// True when some channel has both nodes as members: the topology the
  /// router was built on, whatever the links' health since.
  bool shares_network(node_id_t a, node_id_t b) const {
    for (mad::Channel* channel : channels_) {
      if (channel->has_member(a) && channel->has_member(b)) return true;
    }
    return false;
  }

  const std::vector<mad::Channel*>& channels() const { return channels_; }

  /// Distinct protocols across the routed channels (switch-point election
  /// input).
  std::vector<sim::Protocol> protocols() const {
    std::vector<sim::Protocol> out;
    for (mad::Channel* channel : channels_) {
      if (std::find(out.begin(), out.end(), channel->protocol()) ==
          out.end()) {
        out.push_back(channel->protocol());
      }
    }
    return out;
  }

 private:
  std::vector<mad::Channel*> channels_;
};

/// Multi-hop routing over the node graph induced by the channels: BFS
/// shortest paths (hop count, ties broken by protocol performance of the
/// first hop). Supports the gateway-forwarding extension: for a pair with
/// no common network, next_hop() names the neighbour to forward through.
class ForwardRouter {
 public:
  explicit ForwardRouter(const ChannelRouter& direct) : direct_(&direct) {
    build();
    build_islands();
  }

  /// The next node on the best path src -> dst; kInvalidNode when
  /// disconnected; dst itself when directly reachable.
  node_id_t next_hop(node_id_t src, node_id_t dst) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = next_.find({src, dst});
    return it == next_.end() ? kInvalidNode : it->second;
  }

  /// Recompute the hop table. Called after a link death so multi-hop
  /// routes stop traversing dead connections (route() is health-aware, so
  /// a fresh BFS sees the reduced adjacency).
  void rebuild() {
    std::lock_guard<std::mutex> lock(mutex_);
    next_.clear();
    build();
  }

  /// True when a path joined src and dst in the channel graph the router
  /// was built on. Unlike next_hop(), later link deaths do not change it,
  /// and it takes no lock.
  bool connected_as_built(node_id_t src, node_id_t dst) const {
    const auto a = static_cast<std::size_t>(src);
    const auto b = static_cast<std::size_t>(dst);
    return a < island_.size() && b < island_.size() &&
           island_[a] != kInvalidNode && island_[a] == island_[b];
  }

  /// Number of hops src -> dst (1 = direct); 0 for src == dst, -1 when
  /// disconnected.
  int hops(node_id_t src, node_id_t dst) const {
    if (src == dst) return 0;
    int count = 0;
    node_id_t at = src;
    while (at != dst) {
      const node_id_t next = next_hop(at, dst);
      if (next == kInvalidNode) return -1;
      at = next;
      ++count;
      if (count > 1024) return -1;  // defensive: malformed table
    }
    return count;
  }

 private:
  // Fills next_; callers hold mutex_ (or are the constructor).
  void build() {
    // Collect the node set and adjacency from the channels.
    std::vector<node_id_t> nodes;
    for (mad::Channel* channel : direct_->channels()) {
      for (node_id_t member : channel->members()) {
        if (std::find(nodes.begin(), nodes.end(), member) == nodes.end()) {
          nodes.push_back(member);
        }
      }
    }
    // BFS from every source.
    for (node_id_t src : nodes) {
      std::map<node_id_t, node_id_t> parent;  // node -> predecessor
      std::deque<node_id_t> queue{src};
      parent[src] = src;
      while (!queue.empty()) {
        const node_id_t at = queue.front();
        queue.pop_front();
        for (node_id_t peer : nodes) {
          if (parent.count(peer) != 0) continue;
          if (direct_->route(at, peer) == nullptr) continue;
          parent[peer] = at;
          queue.push_back(peer);
        }
      }
      for (node_id_t dst : nodes) {
        if (dst == src || parent.count(dst) == 0) continue;
        // Walk back from dst to find the first hop out of src.
        node_id_t hop = dst;
        while (parent[hop] != src) hop = parent[hop];
        next_[{src, dst}] = hop;
      }
    }
  }

  // Labels each channel member with its island, the nodes some chain of
  // channels joins (union-find over channel memberships).
  void build_islands() {
    auto root = [this](node_id_t n) {
      while (island_[static_cast<std::size_t>(n)] != n) {
        n = island_[static_cast<std::size_t>(n)];
      }
      return n;
    };
    for (mad::Channel* channel : direct_->channels()) {
      for (node_id_t member : channel->members()) {
        const auto at = static_cast<std::size_t>(member);
        if (at >= island_.size()) island_.resize(at + 1, kInvalidNode);
        if (island_[at] == kInvalidNode) island_[at] = member;
        island_[static_cast<std::size_t>(root(member))] =
            root(channel->members().front());
      }
    }
    for (node_id_t& label : island_) {
      if (label != kInvalidNode) label = root(label);
    }
  }

  const ChannelRouter* direct_;
  std::vector<node_id_t> island_;  // node -> island root, kInvalidNode off-net
  mutable std::mutex mutex_;
  std::map<std::pair<node_id_t, node_id_t>, node_id_t> next_;
};

}  // namespace madmpi::core
