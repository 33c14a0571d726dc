// The rank directory: where every global rank lives and its matching
// context. Shared read-only by all devices after session setup.
#pragma once

#include <memory>
#include <vector>

#include "mpi/matching.hpp"
#include "sim/node.hpp"

namespace madmpi::core {

class RankDirectory {
 public:
  struct Entry {
    sim::Node* node = nullptr;
    std::unique_ptr<mpi::RankContext> context;
  };

  void add_rank(sim::Node& node) {
    const auto global = static_cast<rank_t>(entries_.size());
    Entry entry;
    entry.node = &node;
    entry.context = std::make_unique<mpi::RankContext>(global, node);
    entries_.push_back(std::move(entry));
  }

  int size() const { return static_cast<int>(entries_.size()); }

  sim::Node& node_of(rank_t global) { return *at(global).node; }
  mpi::RankContext& context_of(rank_t global) { return *at(global).context; }

  bool same_node(rank_t a, rank_t b) {
    return at(a).node->id() == at(b).node->id();
  }

 private:
  Entry& at(rank_t global) {
    MADMPI_CHECK(global >= 0 &&
                 static_cast<std::size_t>(global) < entries_.size());
    return entries_[static_cast<std::size_t>(global)];
  }
  std::vector<Entry> entries_;
};

}  // namespace madmpi::core
