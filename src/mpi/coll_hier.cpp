// Collective algorithm selection: names, environment defaults, the tuner
// table's text form, the topology digest cache and kAuto resolution. The
// algorithms themselves are schedules (coll_schedule.cpp).
//
// The flat MPICH algorithms treat every rank pair as equal; on a
// Madeleine-style multi-protocol cluster that sends the same byte across
// TCP many times, so across islands kAuto picks the hierarchy, which walks
// the topology digest instead:
//
//   level 1: one representative per cluster crosses the interconnect once
//   level 2: island leaders fan out/in within each cluster (SCI/BIP)
//   level 3: ranks fan out/in within each island (shared memory)
//
// kAuto resolution order: explicit config < tuner decision table < static
// heuristic. On a single-island topology the heuristic resolves to the
// historical flat algorithms, keeping existing sessions bit-identical.
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>

#include "common/env.hpp"
#include "mpi/comm.hpp"
#include "mpi/comm_shared.hpp"

namespace madmpi::mpi {

namespace {

std::string env_lower(const char* name) {
  const char* value = std::getenv(name);
  if (!value) return {};
  std::string out(value);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

}  // namespace

// --- Names, env defaults, decision-table text form ----------------------

const char* algorithm_name(AllreduceAlgorithm a) {
  switch (a) {
    case AllreduceAlgorithm::kReduceBcast: return "reduce_bcast";
    case AllreduceAlgorithm::kRecursiveDoubling: return "rdbl";
    case AllreduceAlgorithm::kRing: return "ring";
    case AllreduceAlgorithm::kHierarchical: return "hier";
    case AllreduceAlgorithm::kAuto: return "auto";
  }
  return "?";
}

const char* algorithm_name(BcastAlgorithm a) {
  switch (a) {
    case BcastAlgorithm::kBinomial: return "binomial";
    case BcastAlgorithm::kLinear: return "linear";
    case BcastAlgorithm::kHierarchical: return "hier";
    case BcastAlgorithm::kOffload: return "offload";
    case BcastAlgorithm::kAuto: return "auto";
  }
  return "?";
}

const char* algorithm_name(BarrierAlgorithm a) {
  switch (a) {
    case BarrierAlgorithm::kDissemination: return "dissemination";
    case BarrierAlgorithm::kHierarchical: return "hier";
    case BarrierAlgorithm::kOffload: return "offload";
    case BarrierAlgorithm::kAuto: return "auto";
  }
  return "?";
}

AllreduceAlgorithm allreduce_algorithm_default() {
  const std::string v = env_lower("MADMPI_COLL_ALLREDUCE");
  if (v == "reduce_bcast") return AllreduceAlgorithm::kReduceBcast;
  if (v == "rdbl") return AllreduceAlgorithm::kRecursiveDoubling;
  if (v == "ring") return AllreduceAlgorithm::kRing;
  if (v == "hier") return AllreduceAlgorithm::kHierarchical;
  return AllreduceAlgorithm::kAuto;
}

BcastAlgorithm bcast_algorithm_default() {
  const std::string v = env_lower("MADMPI_COLL_BCAST");
  if (v == "binomial") return BcastAlgorithm::kBinomial;
  if (v == "linear") return BcastAlgorithm::kLinear;
  if (v == "hier") return BcastAlgorithm::kHierarchical;
  if (v == "offload") return BcastAlgorithm::kOffload;
  return BcastAlgorithm::kAuto;
}

BarrierAlgorithm barrier_algorithm_default() {
  const std::string v = env_lower("MADMPI_COLL_BARRIER");
  if (v == "dissemination") return BarrierAlgorithm::kDissemination;
  if (v == "hier") return BarrierAlgorithm::kHierarchical;
  if (v == "offload") return BarrierAlgorithm::kOffload;
  return BarrierAlgorithm::kAuto;
}

bool coll_offload_default() { return env_flag("MADMPI_COLL_OFFLOAD", true); }

std::string CollDecisionTable::serialize() const {
  if (!valid) return "untuned";
  std::string out;
  out += "bcast=";
  out += algorithm_name(bcast_small);
  out += "<";
  out += std::to_string(switch_bytes);
  out += "<=";
  out += algorithm_name(bcast_large);
  out += " allreduce=";
  out += algorithm_name(allreduce_small);
  out += "<";
  out += std::to_string(switch_bytes);
  out += "<=";
  out += algorithm_name(allreduce_large);
  out += " barrier=";
  out += algorithm_name(barrier);
  return out;
}

// --- Topology digest and kAuto resolution -------------------------------

const CollTopo& Comm::coll_topo() const {
  std::lock_guard<std::mutex> lock(shared_->seq_mutex);
  if (!shared_->topo) {
    shared_->topo = build_coll_topo(*shared_->runtime, shared_->group);
  }
  return *shared_->topo;
}

BcastAlgorithm Comm::resolve_bcast(std::size_t bytes) const {
  const CollectiveConfig config = collective_config();
  // FT mode routes through the survivable binomial tree before any
  // selector applies — the explicit flat fallback the FT guard test pins.
  if (config.fault_tolerant) return BcastAlgorithm::kBinomial;
  const CollTopo& topo = coll_topo();
  BcastAlgorithm algorithm = config.bcast;
  if (algorithm == BcastAlgorithm::kAuto) {
    const CollDecisionTable table = shared_->runtime->coll_decision_table();
    if (table.valid) {
      algorithm = bytes < table.switch_bytes ? table.bcast_small
                                             : table.bcast_large;
    } else {
      algorithm = topo.single_island() ? BcastAlgorithm::kBinomial
                                       : BcastAlgorithm::kHierarchical;
    }
  }
  // Degrade gracefully: the offload needs a homogeneous offload-capable
  // leader fabric, and the hierarchy needs more than one island.
  if (algorithm == BcastAlgorithm::kOffload &&
      !(topo.offload_capable && config.offload)) {
    algorithm = BcastAlgorithm::kHierarchical;
  }
  if (algorithm == BcastAlgorithm::kHierarchical && topo.single_island()) {
    algorithm = BcastAlgorithm::kBinomial;
  }
  return algorithm;
}

AllreduceAlgorithm Comm::resolve_allreduce(std::size_t bytes) const {
  const CollectiveConfig config = collective_config();
  if (config.fault_tolerant) return AllreduceAlgorithm::kReduceBcast;
  const CollTopo& topo = coll_topo();
  AllreduceAlgorithm algorithm = config.allreduce;
  if (algorithm == AllreduceAlgorithm::kAuto) {
    const CollDecisionTable table = shared_->runtime->coll_decision_table();
    if (table.valid) {
      algorithm = bytes < table.switch_bytes ? table.allreduce_small
                                             : table.allreduce_large;
    } else {
      algorithm = topo.single_island() ? AllreduceAlgorithm::kReduceBcast
                                       : AllreduceAlgorithm::kHierarchical;
    }
  }
  if (algorithm == AllreduceAlgorithm::kHierarchical &&
      topo.single_island()) {
    algorithm = AllreduceAlgorithm::kReduceBcast;
  }
  return algorithm;
}

BarrierAlgorithm Comm::resolve_barrier() const {
  const CollectiveConfig config = collective_config();
  if (config.fault_tolerant) return BarrierAlgorithm::kDissemination;
  const CollTopo& topo = coll_topo();
  BarrierAlgorithm algorithm = config.barrier;
  if (algorithm == BarrierAlgorithm::kAuto) {
    const CollDecisionTable table = shared_->runtime->coll_decision_table();
    if (table.valid) {
      algorithm = table.barrier;
    } else if (topo.single_island()) {
      algorithm = BarrierAlgorithm::kDissemination;
    } else if (topo.offload_capable && config.offload) {
      algorithm = BarrierAlgorithm::kOffload;
    } else {
      algorithm = BarrierAlgorithm::kHierarchical;
    }
  }
  if (algorithm == BarrierAlgorithm::kOffload &&
      !(topo.offload_capable && config.offload)) {
    algorithm = BarrierAlgorithm::kHierarchical;
  }
  if (algorithm == BarrierAlgorithm::kHierarchical && topo.single_island()) {
    algorithm = BarrierAlgorithm::kDissemination;
  }
  return algorithm;
}

}  // namespace madmpi::mpi
