// Micro-benchmarks of the library internals (google-benchmark, real host
// time — unlike the figure benches these measure OUR implementation's CPU
// costs, not simulated network time).
//
// With `--json <path>` the binary instead runs the eager-datapath sweep
// and writes BENCH_eager-style machine-readable results (message-size
// series of latency, bandwidth, bytes-copied and allocs-per-message).
#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>

#include "bench_common.hpp"
#include "common/byte_buffer.hpp"
#include "common/rng.hpp"
#include "mpi/datatype.hpp"
#include "mpi/matching.hpp"
#include "mpi/op.hpp"
#include "sim/virtual_clock.hpp"

namespace madmpi {
namespace {

void BM_VirtualClockAdvance(benchmark::State& state) {
  sim::VirtualClock clock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.advance(0.5));
  }
}
BENCHMARK(BM_VirtualClockAdvance);

void BM_ByteWriterAppend(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> chunk(size, std::byte{1});
  for (auto _ : state) {
    ByteWriter writer(size * 4);
    for (int i = 0; i < 4; ++i) writer.append(chunk.data(), chunk.size());
    benchmark::DoNotOptimize(writer.span().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4 *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ByteWriterAppend)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DatatypePackContiguous(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const auto type = mpi::Datatype::float64();
  std::vector<double> data(static_cast<std::size_t>(count), 1.0);
  std::vector<std::byte> wire(type.size() * static_cast<std::size_t>(count));
  for (auto _ : state) {
    type.pack(data.data(), count, wire.data());
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count * 8);
}
BENCHMARK(BM_DatatypePackContiguous)->Arg(128)->Arg(4096)->Arg(65536);

void BM_DatatypePackVector(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  // Column of a rows x 8 row-major double matrix.
  const auto column = mpi::Datatype::vector(rows, 1, 8,
                                            mpi::Datatype::float64());
  std::vector<double> matrix(static_cast<std::size_t>(rows) * 8, 1.0);
  std::vector<std::byte> wire(column.size());
  for (auto _ : state) {
    column.pack(matrix.data(), 1, wire.data());
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * 8);
}
BENCHMARK(BM_DatatypePackVector)->Arg(128)->Arg(4096);

void BM_ReduceSumDoubles(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  std::vector<double> in(static_cast<std::size_t>(count), 1.0);
  std::vector<double> inout(static_cast<std::size_t>(count), 2.0);
  const auto op = mpi::Op::sum();
  const auto type = mpi::Datatype::float64();
  for (auto _ : state) {
    op.apply(in.data(), inout.data(), count, type);
    benchmark::DoNotOptimize(inout.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count * 8);
}
BENCHMARK(BM_ReduceSumDoubles)->Arg(1024)->Arg(65536);

void BM_MatchingPostAndDeliver(benchmark::State& state) {
  sim::Node node(0, "bench", 2);
  mpi::RankContext context(0, node);
  std::array<std::byte, 64> payload{};
  mpi::Envelope env;
  env.context = 0;
  env.src = 0;
  env.tag = 1;
  env.bytes = payload.size();
  char buffer[64];
  for (auto _ : state) {
    auto request = std::make_shared<mpi::RequestState>(node);
    mpi::PostedRecv posted;
    posted.context = 0;
    posted.source = mpi::kAnySource;
    posted.tag = 1;
    posted.buffer = buffer;
    posted.type = mpi::Datatype::byte();
    posted.count = sizeof buffer;
    posted.capacity_bytes = sizeof buffer;
    posted.request = request;
    context.post_recv(std::move(posted));
    context.deliver_eager(env, byte_span{payload.data(), payload.size()});
    benchmark::DoNotOptimize(request->completed());
  }
}
BENCHMARK(BM_MatchingPostAndDeliver);

void BM_MatchingUnexpectedScan(benchmark::State& state) {
  // Deliver N unexpected messages with distinct tags, then match the last
  // one: measures the linear scan the ADI queues pay.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Node node(0, "bench", 2);
    mpi::RankContext context(0, node);
    for (int i = 0; i < depth; ++i) {
      mpi::Envelope env;
      env.context = 0;
      env.src = 0;
      env.tag = i;
      env.bytes = 0;
      context.deliver_eager(env, {});
    }
    state.ResumeTiming();

    auto request = std::make_shared<mpi::RequestState>(node);
    mpi::PostedRecv posted;
    posted.context = 0;
    posted.source = mpi::kAnySource;
    posted.tag = depth - 1;
    posted.request = request;
    context.post_recv(std::move(posted));
    benchmark::DoNotOptimize(request->completed());
  }
}
BENCHMARK(BM_MatchingUnexpectedScan)->Arg(8)->Arg(64)->Arg(512);

void BM_RngU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngU64);

}  // namespace
}  // namespace madmpi

int main(int argc, char** argv) {
  const std::string json_path = madmpi::bench::json_path_from_args(argc, argv);
  if (!json_path.empty()) {
    const auto columns =
        madmpi::bench::eager_sweep(madmpi::sim::Protocol::kTcp, 40);
    if (!madmpi::bench::write_json_series(json_path, "eager", columns)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("eager sweep written to %s\n", json_path.c_str());
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
