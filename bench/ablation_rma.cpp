// Ablation: one-sided put over the zero-copy datapath vs the two-sided
// eager path. A put is a single EXPRESS header + body landed directly into
// the target window (SISCI: PIO, no landing charge), with epoch completion
// amortized over the whole epoch by the cumulative ledger — so
// steady-state puts beat an eager send/recv pair at every size, with zero
// staging allocations per put once the pools have seen an epoch's worth of
// puts in flight. Each put copies its bytes twice on the
// host: the origin stages the borrowed user buffer into a pooled slab, and
// the target lands the wire bytes in the window.
//
// `--json <path>` writes the machine-readable series consumed by the CI
// perf-trajectory job (docs/results/BENCH_rma.json).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "mpi/win.hpp"

using namespace madmpi;

namespace {

struct RmaPoint {
  double put_us = 0.0;        // per put, epoch completion amortized
  double allocs_per_put = 0;  // staging allocations (must be 0 steady-state)
  double copied_per_put = 0;  // host bytes copied (origin stage + landing)
};

/// Epoch-amortized put cost: rank 0 streams puts into rank 1's window and
/// closes each epoch with a fence. Puts are fire-and-forget, so every put
/// of an epoch holds its pooled chunk(s) concurrently until the target
/// lands it; the slab cache keeps every recycled slab, so once the first
/// epochs reached that concurrency the steady-state epochs run entirely
/// off slab reuse. Two untimed
/// epochs first settle pools, channels and the first-use registration.
RmaPoint measure_put(sim::Protocol protocol, std::size_t bytes,
                     int puts_per_epoch, int epochs) {
  auto session = bench::make_chmad_session(protocol);
  RmaPoint point;
  session->run([&](mpi::Comm comm) {
    mpi::Win win = mpi::Win::allocate(comm, bytes);
    std::vector<std::uint8_t> payload(bytes, 0x5a);
    const int count = static_cast<int>(bytes);
    auto epoch = [&] {
      if (comm.rank() == 0) {
        for (int r = 0; r < puts_per_epoch; ++r) {
          win.put(payload.data(), count, mpi::RmaType::kUint8, 1, 0);
        }
      }
      win.fence();
    };
    win.fence();
    epoch();
    epoch();  // end of warm-up: steady state from here

    const auto before = DatapathStats::global().snapshot();
    const double start = comm.wtime_us();
    for (int e = 0; e < epochs; ++e) epoch();
    const double elapsed = comm.wtime_us() - start;
    const auto d = DatapathStats::global().snapshot() - before;
    if (comm.rank() == 0) {
      const double puts = static_cast<double>(puts_per_epoch) * epochs;
      point.put_us = elapsed / puts;
      point.allocs_per_put = static_cast<double>(d.staging_allocs) / puts;
      point.copied_per_put = static_cast<double>(d.bytes_copied) / puts;
    }
    win.free();
  });
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  constexpr int kReps = 32;            // eager ping-pong round trips
  constexpr int kPutsPerEpoch = 12;    // puts in flight per fence epoch
  constexpr int kEpochs = 4;
  const sim::Protocol protocol = sim::Protocol::kSisci;

  std::vector<double> xs, put_us, eager_us, allocs, copied;
  for (std::size_t size : power_of_two_sizes(16384)) {
    const RmaPoint point =
        measure_put(protocol, size, kPutsPerEpoch, kEpochs);

    // Two-sided comparator: the same bytes over the eager path (the
    // switch point is raised so no size escapes to rendezvous).
    core::Session::Options options;
    options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
    options.switch_point_override = 1 << 20;
    core::Session eager(std::move(options));
    const auto two_sided = core::mpi_pingpong(eager, size, kReps);

    xs.push_back(static_cast<double>(size));
    put_us.push_back(point.put_us);
    eager_us.push_back(two_sided.one_way_us);
    allocs.push_back(point.allocs_per_put);
    copied.push_back(point.copied_per_put);
  }

  // The table is the golden output (docs/results/ablation_rma.txt), so it
  // prints only what (program, topology) decides. allocs_per_put is left
  // to the JSON series: how many puts the target's poller still holds when
  // the origin reaches its fence follows host scheduling, and a run under
  // load can carve one more refill batch of slabs than the warm-up did.
  std::printf("### ablation_rma (%s)\n", "sisci");
  std::printf("%10s %12s %12s %16s\n", "bytes", "put_us", "eager_us",
              "copied_per_put");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("%10.0f %12.3f %12.3f %16.1f\n", xs[i], put_us[i],
                eager_us[i], copied[i]);
  }

  if (!json_path.empty()) {
    const std::vector<bench::JsonColumn> columns = {
        {"bytes", xs},
        {"put_us", put_us},
        {"eager_one_way_us", eager_us},
        {"staging_allocs_per_put", allocs},
        {"bytes_copied_per_put", copied}};
    if (!bench::write_json_series(json_path, "ablation_rma", columns)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
