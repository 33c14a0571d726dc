// Session-setup auto-tuner for the collective engine (MADMPI_COLL_TUNE).
//
// At session start (before rank_main) every rank runs tune_collectives on
// the world communicator: each candidate algorithm is micro-probed at a
// small and a large payload, timed on the virtual clock, and the slowest
// rank's elapsed time (allreduce-max) is the candidate's score — identical
// on every rank, so every rank derives the same winner without trusting
// float reduction order. Rank 0's table is still broadcast as raw bytes
// (the struct is trivially copyable) so the installed table is rank-0
// authoritative by construction. The result lands in the runtime's
// decision table, which kAuto resolution consults; explicit MADMPI_COLL_*
// overrides still win (resolution precedence: explicit > table > static
// heuristic).
//
// Probes synchronise with a config-independent dissemination barrier over
// the *user* context (the tuner runs before rank_main, so the tag space is
// empty) — a config-dependent barrier() could mix two barrier algorithms
// across ranks mid-switch and deadlock.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/env.hpp"
#include "common/status.hpp"
#include "mpi/coll_schedule.hpp"
#include "mpi/comm_shared.hpp"
#include "mpi/datatype.hpp"
#include "mpi/op.hpp"
#include "mpi/runtime.hpp"

namespace madmpi::mpi {

namespace {

constexpr std::size_t kSmallBytes = 256;
constexpr std::size_t kLargeBytes = 64 * 1024;
/// User-context tag reserved for the tuner's own sync (pre-rank_main, the
/// user tag space is otherwise untouched).
constexpr int kTunerSyncTag = 999983;
/// Virtual-clock costs are deterministic, but the *order* in which a
/// drain loop handles near-simultaneous frames from different peers
/// follows their real (host-scheduling) arrival, which serializes
/// recv-overhead charges differently run to run. Two defenses: probe each
/// candidate several times and keep the best score (reorder penalties only
/// ever add latency), and demand a decisive win before switching away from
/// the earlier-listed candidate, so sub-jitter differences resolve to the
/// same winner on every run.
constexpr int kProbeReps = 5;
constexpr double kDecisiveMargin = 0.70;  // challenger must be >30% faster

}  // namespace

void tune_collectives(Comm world) {
  MADMPI_CHECK_MSG(world.valid(), "tune_collectives needs a communicator");
  Runtime* runtime = world.shared_->runtime;

  CollDecisionTable table;
  table.valid = true;
  if (world.size() <= 1) {
    runtime->set_coll_decision_table(table);
    return;
  }

  const CollectiveConfig saved = world.collective_config();
  const CollTopo& topo = world.coll_topo();
  const int me = world.rank();

  // The dissemination barrier's schedule, walked on the user context:
  // independent of the collective config being probed. Each round is one
  // zero-byte receive, then one send.
  const Schedule sync_rounds =
      barrier_schedule(BarrierAlgorithm::kDissemination, topo, me);
  auto sync = [&] {
    for (std::size_t i = 0; i < sync_rounds.rounds(); ++i) {
      const Round round = sync_rounds.round(i);
      world.sendrecv(nullptr, 0, Datatype::byte(), round[1].peer,
                     kTunerSyncTag, nullptr, 0, Datatype::byte(),
                     round[0].peer, kTunerSyncTag);
    }
  };

  // Score one candidate: quiesce, switch this rank to the explicit
  // algorithm (the config is rank-local; the sync below orders every
  // rank's switch before anyone's probe), time the operation and take the
  // slowest rank; best of kProbeReps filters host-scheduling drain-order
  // noise (see kDecisiveMargin).
  auto probe = [&](const CollectiveConfig& candidate,
                   const std::function<void()>& op) -> double {
    sync();
    world.set_collective_config(candidate);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kProbeReps; ++rep) {
      sync();
      const double start = world.wtime_us();
      op();
      double elapsed = world.wtime_us() - start;
      double slowest = 0.0;
      world.allreduce(&elapsed, &slowest, 1, Datatype::float64(), Op::max());
      best = std::min(best, slowest);
    }
    return best;
  };
  // MADMPI_COLL_TUNE_LOG=1: rank 0 prints every probe score (margin
  // debugging for new topologies).
  const bool log_scores = env_flag("MADMPI_COLL_TUNE_LOG", false);
  auto log_score = [&](const char* collective, int algorithm,
                       std::size_t bytes, double us) {
    if (log_scores && me == 0) {
      std::fprintf(stderr, "[coll_tune] %s alg=%d bytes=%zu us=%.2f\n",
                   collective, algorithm, bytes, us);
    }
  };

  std::vector<std::byte> payload(kLargeBytes);
  std::vector<double> reduce_in(kLargeBytes / sizeof(double), 1.0);
  std::vector<double> reduce_out(reduce_in.size(), 0.0);

  auto bcast_op = [&](std::size_t bytes) {
    return [&, bytes] {
      world.bcast(payload.data(), static_cast<int>(bytes), Datatype::byte(),
                  0);
    };
  };
  auto allreduce_op = [&](std::size_t bytes) {
    const int count = static_cast<int>(bytes / sizeof(double));
    return [&, count] {
      world.allreduce(reduce_in.data(), reduce_out.data(), count,
                      Datatype::float64(), Op::sum());
    };
  };

  // Candidate sets. Hierarchical variants only make sense across islands
  // (they degrade to the flat algorithm otherwise — probing them would
  // just measure the flat twice); the offload tree additionally needs an
  // offload-capable homogeneous leader fabric and the config gate.
  std::vector<BcastAlgorithm> bcast_candidates{BcastAlgorithm::kBinomial};
  if (!topo.single_island()) {
    bcast_candidates.push_back(BcastAlgorithm::kHierarchical);
    if (topo.offload_capable && saved.offload) {
      bcast_candidates.push_back(BcastAlgorithm::kOffload);
    }
  }
  std::vector<AllreduceAlgorithm> allreduce_candidates{
      AllreduceAlgorithm::kReduceBcast, AllreduceAlgorithm::kRecursiveDoubling,
      AllreduceAlgorithm::kRing};
  if (!topo.single_island()) {
    allreduce_candidates.push_back(AllreduceAlgorithm::kHierarchical);
  }
  std::vector<BarrierAlgorithm> barrier_candidates{
      BarrierAlgorithm::kDissemination};
  if (!topo.single_island()) {
    barrier_candidates.push_back(BarrierAlgorithm::kHierarchical);
    if (topo.offload_capable && saved.offload) {
      barrier_candidates.push_back(BarrierAlgorithm::kOffload);
    }
  }

  auto pick_bcast = [&](std::size_t bytes) {
    BcastAlgorithm best = bcast_candidates.front();
    double best_us = std::numeric_limits<double>::infinity();
    for (BcastAlgorithm candidate : bcast_candidates) {
      CollectiveConfig cfg = saved;
      cfg.bcast = candidate;
      const double us = probe(cfg, bcast_op(bytes));
      log_score("bcast", static_cast<int>(candidate), bytes, us);
      if (us < kDecisiveMargin * best_us) {
        best_us = us;
        best = candidate;
      }
    }
    return best;
  };
  auto pick_allreduce = [&](std::size_t bytes) {
    AllreduceAlgorithm best = allreduce_candidates.front();
    double best_us = std::numeric_limits<double>::infinity();
    for (AllreduceAlgorithm candidate : allreduce_candidates) {
      CollectiveConfig cfg = saved;
      cfg.allreduce = candidate;
      const double us = probe(cfg, allreduce_op(bytes));
      log_score("allreduce", static_cast<int>(candidate), bytes, us);
      if (us < kDecisiveMargin * best_us) {
        best_us = us;
        best = candidate;
      }
    }
    return best;
  };

  table.bcast_small = pick_bcast(kSmallBytes);
  table.bcast_large = pick_bcast(kLargeBytes);
  table.allreduce_small = pick_allreduce(kSmallBytes);
  table.allreduce_large = pick_allreduce(kLargeBytes);

  {
    BarrierAlgorithm best = barrier_candidates.front();
    double best_us = std::numeric_limits<double>::infinity();
    for (BarrierAlgorithm candidate : barrier_candidates) {
      CollectiveConfig cfg = saved;
      cfg.barrier = candidate;
      const double us = probe(cfg, [&] { world.barrier(); });
      log_score("barrier", static_cast<int>(candidate), 0, us);
      if (us < kDecisiveMargin * best_us) {
        best_us = us;
        best = candidate;
      }
    }
    table.barrier = best;
  }

  // Restore this rank's pre-tuner config before installing the table, then
  // push rank 0's verdict over the wire (every rank computed the same
  // table, but rank 0 is authoritative by construction).
  sync();
  world.set_collective_config(saved);
  static_assert(std::is_trivially_copyable_v<CollDecisionTable>,
                "the decision table is broadcast as raw bytes");
  world.bcast(&table, static_cast<int>(sizeof(table)), Datatype::byte(), 0);
  runtime->set_coll_decision_table(table);
  sync();
}

}  // namespace madmpi::mpi
