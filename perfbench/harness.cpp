// Benchmark harness: drives one workload through the public entry points of
// the MPI, Madeleine and net layers, checks every payload and result, and
// writes the raw measurements as one JSON document. perfbench/run.py
// generates the inputs from the workload seed, builds this binary, and turns
// the raw measurements into the benchmark's metrics.
//
//   perfbench_harness --workload eager_pingpong|rndv_pingpong|metacluster_coll|anchor
//                     --inputs <file> --out <file> --seconds <s> --trace 0|1
//                     --setups <n>
//
// --seconds 0 only times the set-ups (session construction plus the first
// op), so set-up time can be sampled across several processes cheaply.
//
// Every layer is timed from outside: spans wrap calls into mpi::Comm,
// mad::ChannelEndpoint and net::Endpoint, and counters come from what the
// layers already expose (DatapathStats, ChMadDevice getters, channel
// traffic, getrusage). Nothing here reaches into library internals.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/datapath_stats.hpp"
#include "core/session.hpp"
#include "mad/channel.hpp"
#include "marcel/engine.hpp"
#include "net/driver.hpp"

using namespace madmpi;

namespace {

// ---- inputs -----------------------------------------------------------------

// Input file layout (little-endian), written by run.py:
//   u32 magic, u32 fields, u32 op_count, u32 reserved, u64 blob_bytes,
//   op_count x fields x u32, blob_bytes of payload.
constexpr std::uint32_t kMagic = 0x4e494250;  // "PBIN"
constexpr std::size_t kFields = 12;

// Ping-pong op: f[0] size, f[1] ping payload offset, f[2] pong offset.
// Collective op: f[0] bcast root, f[1] bcast payload offset, f[2] alltoall
// payload offset, f[3..10] allreduce base values.
struct Op {
  std::array<std::uint32_t, kFields> f{};
};

struct Inputs {
  std::vector<Op> ops;
  std::vector<std::byte> blob;

  const Op& op(std::uint64_t i) const { return ops[i % ops.size()]; }
  const std::byte* at(std::uint64_t offset, std::size_t size) const {
    if (offset + size > blob.size()) {
      std::fprintf(stderr, "input offset %" PRIu64 "+%zu beyond blob\n",
                   offset, size);
      std::exit(2);
    }
    return blob.data() + offset;
  }
};

Inputs read_inputs(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open inputs %s\n", path.c_str());
    std::exit(2);
  }
  std::uint32_t header[4] = {};
  std::uint64_t blob_bytes = 0;
  bool ok = std::fread(header, sizeof header, 1, f) == 1 &&
            std::fread(&blob_bytes, sizeof blob_bytes, 1, f) == 1 &&
            header[0] == kMagic && header[1] == kFields && header[2] > 0 &&
            blob_bytes > 0 && blob_bytes <= (1ull << 30);
  Inputs in;
  if (ok) {
    in.ops.resize(header[2]);
    in.blob.resize(blob_bytes);
    ok = std::fread(in.ops.data(), sizeof(Op), in.ops.size(), f) ==
             in.ops.size() &&
         std::fread(in.blob.data(), 1, in.blob.size(), f) == in.blob.size();
  }
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "malformed inputs %s\n", path.c_str());
    std::exit(2);
  }
  return in;
}

// ---- host clocks and process usage -------------------------------------------

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double cpu_us = 0.0;       // user + system, whole process
  std::int64_t ctx = 0;      // voluntary + involuntary context switches
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

/// Peak resident set of this process image, in KiB: VmHWM from
/// /proc/self/status. ru_maxrss is not used because on Linux it keeps the
/// high-water mark of the process that exec'd this one (run.py), which can
/// exceed anything the harness ever touches.
std::int64_t peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read /proc/self/status\n");
    std::exit(2);
  }
  char line[256];
  long long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) {
    std::fprintf(stderr, "no VmHWM in /proc/self/status\n");
    std::exit(2);
  }
  return kib;
}

// ---- machine-speed reference ---------------------------------------------------
//
// On a shared virtual machine the host cost of the kernel paths the
// workloads lean on (futex wake-ups and context switches between threads on
// one CPU) moves between two levels about 1.4x apart, tens of seconds at a
// time, while plain computation barely moves. So between batches the harness
// times a fixed reference that takes those same paths without any library
// code: round trips between two threads of its own through a mutex and a
// condition variable. perfbench/metrics.py scales host times by it.

constexpr int kReferenceRoundTrips = 5;  // per reference block

class Reference {
 public:
  Reference() : thread_([this] { serve(); }) {}
  ~Reference() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Host microseconds for kReferenceRoundTrips round trips.
  double block_us() {
    const std::int64_t t0 = wall_ns();
    std::unique_lock<std::mutex> lock(mutex_);
    for (int i = 0; i < kReferenceRoundTrips; ++i) {
      serve_turn_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !serve_turn_; });
    }
    lock.unlock();
    return (wall_ns() - t0) * 1e-3;
  }

 private:
  void serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return serve_turn_ || stop_; });
      if (stop_) return;
      serve_turn_ = false;
      cv_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool serve_turn_ = false;
  bool stop_ = false;
  std::thread thread_;  // last: starts once the fields above exist
};

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- workloads ----------------------------------------------------------------

enum class Workload { kEager, kRndv, kColl, kAnchor };

// Op-time percentiles are taken per chunk of this many consecutive ops, so
// a chunk's 99th percentile has 10 samples beyond it.
constexpr std::size_t kChunkOps = 1000;

struct WorkloadSpec {
  Workload kind = Workload::kEager;
  std::uint64_t warm_ops = 0;   // untimed ops before the first segment
  std::uint64_t virt_ops = 0;   // measured ops the virtual metrics cover
  int batch = 1;                // ops between two stop decisions
  std::size_t ladder_msgs = 0;  // round trips per ladder rung

  /// Floor on a measured segment's op count: the virtual prefix, and at
  /// least one full percentile chunk.
  std::uint64_t min_ops() const {
    return std::max<std::uint64_t>(virt_ops, kChunkOps);
  }
};

// Virtual metrics cover a fixed count of ops from a fixed op index, so they
// depend on the seed alone, not on how fast the host ran. On the
// ping-pongs the count is a multiple of the input's op records, so every
// record (and the whole stratified size mix) is covered equally often.
WorkloadSpec spec_for(const std::string& name) {
  if (name == "eager_pingpong") {
    return {Workload::kEager, 2000, 16384, 64, 2000};
  }
  if (name == "rndv_pingpong") {
    return {Workload::kRndv, 100, 8192, 8, 200};
  }
  if (name == "metacluster_coll") {
    return {Workload::kColl, 16, 1000, 4, 600};
  }
  if (name == "anchor") return {Workload::kAnchor, 0, 0, 1, 4};
  std::fprintf(stderr, "unknown workload %s\n", name.c_str());
  std::exit(2);
}

// Timed round trips of the calibration anchors: Table 1's raw Madeleine
// ping-pong (core::raw_madeleine_pingpong's default) and Fig. 9's MPI one.
constexpr std::size_t kAnchorMadReps = 4;
constexpr std::size_t kAnchorMpiReps = 3;

// The paper's meta-cluster for the collective workload; otherwise two SCI
// nodes that also share Fast-Ethernet (Fig. 9's multi-protocol mode: SCI
// carries the traffic while the TCP poller interferes).
std::unique_ptr<core::Session> make_session(Workload kind) {
  core::Session::Options options;
  if (kind == Workload::kColl) {
    options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2, 8);
  } else {
    options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
    sim::NetworkSpec tcp;
    tcp.protocol = sim::Protocol::kTcp;
    for (const auto& node : options.cluster.nodes) {
      tcp.members.push_back(node.name);
    }
    options.cluster.networks.push_back(std::move(tcp));
  }
  return std::make_unique<core::Session>(std::move(options));
}

std::size_t sci_network_index(const core::Session& session) {
  const auto& networks = session.cluster().networks;
  for (std::size_t i = 0; i < networks.size(); ++i) {
    if (networks[i].protocol == sim::Protocol::kSisci) return i;
  }
  std::fprintf(stderr, "cluster declares no SCI network\n");
  std::exit(2);
}

// ---- layer counters --------------------------------------------------------------

struct Counters {
  DatapathSnapshot datapath;
  std::uint64_t eager = 0, rndv = 0, demoted = 0, credit_stalls = 0,
                credit_packets = 0;
  net::Endpoint::TrafficStats traffic;
  std::int64_t ctx = 0;
};

Counters read_counters(core::Session& session,
                       const std::vector<mad::Channel*>& channels) {
  Counters c;
  c.datapath = DatapathStats::global().snapshot();
  if (core::ChMadDevice* device = session.ch_mad()) {
    c.eager = device->eager_sent();
    c.rndv = device->rendezvous_sent();
    c.demoted = device->eager_demoted();
    c.credit_stalls = device->credit_stalls();
    c.credit_packets = device->credit_packets();
  }
  for (mad::Channel* channel : channels) c.traffic += channel->traffic();
  c.ctx = usage().ctx;
  return c;
}

// Accumulates `after - before` into `sum` (high-water marks take the max).
void accumulate(Counters& sum, const Counters& before, const Counters& after) {
  const DatapathSnapshot d = after.datapath - before.datapath;
  DatapathSnapshot& s = sum.datapath;
  s.bytes_copied += d.bytes_copied;
  s.copy_ops += d.copy_ops;
  s.staging_allocs += d.staging_allocs;
  s.slab_allocs += d.slab_allocs;
  s.slab_reuses += d.slab_reuses;
  s.slab_fallbacks += d.slab_fallbacks;
  s.modeled_copy_bytes += d.modeled_copy_bytes;
  s.poll_wakeups += d.poll_wakeups;
  s.match_attempts += d.match_attempts;
  s.match_probe_steps += d.match_probe_steps;
  s.match_bucket_locks += d.match_bucket_locks;
  s.match_rank_locks += d.match_rank_locks;
  s.match_posted_depth_hw =
      std::max(s.match_posted_depth_hw, d.match_posted_depth_hw);
  s.match_unexpected_depth_hw =
      std::max(s.match_unexpected_depth_hw, d.match_unexpected_depth_hw);
  sum.eager += after.eager - before.eager;
  sum.rndv += after.rndv - before.rndv;
  sum.demoted += after.demoted - before.demoted;
  sum.credit_stalls += after.credit_stalls - before.credit_stalls;
  sum.credit_packets += after.credit_packets - before.credit_packets;
  sum.traffic.messages_sent +=
      after.traffic.messages_sent - before.traffic.messages_sent;
  sum.traffic.bytes_sent += after.traffic.bytes_sent - before.traffic.bytes_sent;
  sum.traffic.frames_dropped +=
      after.traffic.frames_dropped - before.traffic.frames_dropped;
  sum.traffic.retransmits +=
      after.traffic.retransmits - before.traffic.retransmits;
  sum.ctx += after.ctx - before.ctx;
}

// ---- one measured run over a segment plan ----------------------------------------

enum class SegmentKind { kWarm, kPlain, kTraced };

const char* segment_name(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kWarm: return "warm";
    case SegmentKind::kPlain: return "plain";
    case SegmentKind::kTraced: return "traced";
  }
  return "?";
}

struct Segment {
  SegmentKind kind = SegmentKind::kPlain;
  double seconds = 0.0;       // measured segments end after this long ...
  std::uint64_t min_ops = 0;  // ... and at least this many ops (warm: exactly)
};

struct SegmentResult {
  SegmentKind kind = SegmentKind::kPlain;
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double cpu_us = 0.0;
  std::int64_t ctx = 0;
};

/// q-th percentile (0..100) of `values`, linear between the two closest
/// ranks, as perfbench/metrics.py computes it. Reorders `values`.
double percentile(std::vector<float>& values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = static_cast<double>(values.size() - 1) * q / 100.0;
  const auto low = static_cast<std::size_t>(pos);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (pos - static_cast<double>(low));
}

constexpr int kCollCalls = 3;  // allreduce, bcast, alltoall

// State shared by the ranks of one session.run(). Fields marked "leader"
// are written only by rank 0; the peer's span vector only by the ping-pong
// peer. Vectors are read after run() returns.
struct Run {
  const Inputs& in;
  const WorkloadSpec& spec;
  std::vector<Segment> plan;
  int batch = 1;  // ops between two stop decisions
  std::uint64_t first_op = 0;
  core::Session* session = nullptr;
  std::vector<mad::Channel*> channels;  // the session's own channels

  // leader: samples of plain segments. Ops are reduced chunk by chunk to
  // each chunk's wall time, process CPU, median and 99th-percentile op time,
  // and median reference block, so the harness keeps five numbers per chunk
  // rather than one per op. A chunk lies within one plain segment.
  Reference* reference = nullptr;  // sampled between batches when set
  std::vector<float> chunk;  // op times of the open chunk
  std::vector<double> chunk_refs;  // reference blocks within the open chunk
  std::int64_t chunk_start_ns = 0, chunk_ref_ns = 0;
  double chunk_start_cpu_us = 0.0, chunk_ref_cpu_us = 0.0;
  std::vector<double> chunk_wall_s, chunk_cpu_us, chunk_p50, chunk_p99,
      chunk_ref_us;
  std::vector<double> op_virt_us, op_bytes;  // the first virt_ops ops
  std::vector<SegmentResult> segments;
  // leader: traced spans
  std::vector<double> send_ns, recv_ns;
  std::vector<std::int64_t> recv_start_ns, recv_end_ns;
  std::array<std::vector<double>, kCollCalls> coll_host_us, coll_virt_us;
  std::uint64_t traced_ops = 0;
  Counters traced;  // counter deltas summed over traced segments
  // ping-pong peer: when each traced pong left the peer's send call
  std::vector<std::int64_t> peer_sent_ns;

  std::atomic<std::uint64_t> attempted{0};
  std::mutex failures_mutex;
  std::set<std::uint64_t> failures;  // op indices with any failed check

  Run(const Inputs& inputs, const WorkloadSpec& workload)
      : in(inputs), spec(workload) {}

  void record(double host_us, double virt_us, double bytes) {
    if (op_virt_us.size() < spec.virt_ops) {
      op_virt_us.push_back(virt_us);
      op_bytes.push_back(bytes);
    }
    chunk.push_back(static_cast<float>(host_us));
    if (chunk.size() == kChunkOps) {
      if (reference != nullptr && chunk_refs.empty()) sample_reference();
      // The reference blocks' own time is not the workload's.
      const std::int64_t now_ns = wall_ns();
      const double now_cpu_us = usage().cpu_us;
      chunk_wall_s.push_back((now_ns - chunk_start_ns - chunk_ref_ns) * 1e-9);
      chunk_cpu_us.push_back(now_cpu_us - chunk_start_cpu_us - chunk_ref_cpu_us);
      chunk_p50.push_back(percentile(chunk, 50));
      chunk_p99.push_back(percentile(chunk, 99));
      if (reference != nullptr) chunk_ref_us.push_back(median_of(chunk_refs));
      open_chunk();
    }
  }
  /// Starts a chunk; an unfinished one is dropped.
  void open_chunk() {
    chunk.clear();
    chunk_refs.clear();
    chunk_ref_ns = 0;
    chunk_ref_cpu_us = 0.0;
    chunk_start_ns = wall_ns();
    chunk_start_cpu_us = usage().cpu_us;
  }
  /// Times one reference block into the open chunk. The leader calls it
  /// between batches, while every other rank waits for its next message.
  void sample_reference() {
    const std::int64_t t0 = wall_ns();
    const double cpu0 = usage().cpu_us;
    chunk_refs.push_back(reference->block_us());
    chunk_ref_cpu_us += usage().cpu_us - cpu0;
    chunk_ref_ns += wall_ns() - t0;
  }

  void fail(std::uint64_t op) {
    std::lock_guard<std::mutex> lock(failures_mutex);
    failures.insert(op);
  }

  /// Ladder round trips are keyed past any workload op index.
  void fail_ladder(std::uint64_t count) {
    std::lock_guard<std::mutex> lock(failures_mutex);
    for (std::uint64_t k = 0; k < count; ++k) {
      failures.insert((1ull << 62) + failures.size());
    }
  }
};

// The leader's segment bookkeeping: decides at each batch boundary whether
// the current segment continues, and records its totals when it ends.
class SegmentClock {
 public:
  explicit SegmentClock(Run& run) : run_(run) { begin(0); }

  /// Called by the leader after each batch; returns the segment the next
  /// batch belongs to, or -1 to stop.
  int boundary() {
    const Segment& seg = run_.plan[segment_];
    ops_ += static_cast<std::uint64_t>(run_.batch);
    if (seg.kind == SegmentKind::kPlain && run_.reference != nullptr) {
      run_.sample_reference();
    }
    const double elapsed = (wall_ns() - start_ns_) * 1e-9;
    // A measured segment that cannot reach its op floor gives up after three
    // times its length plus 30 s; run.py then rejects the run.
    const bool done =
        seg.kind == SegmentKind::kWarm
            ? ops_ >= seg.min_ops
            : (elapsed >= seg.seconds && ops_ >= seg.min_ops) ||
                  elapsed >= 3.0 * seg.seconds + 30.0;
    if (!done) return segment_;
    const Usage now = usage();
    if (seg.kind == SegmentKind::kTraced) {
      accumulate(run_.traced, traced_before_,
                 read_counters(*run_.session, run_.channels));
      run_.traced_ops += ops_;
    }
    run_.segments.push_back({seg.kind, ops_, elapsed,
                             now.cpu_us - start_usage_.cpu_us,
                             now.ctx - start_usage_.ctx});
    if (segment_ + 1 >= static_cast<int>(run_.plan.size())) return -1;
    begin(segment_ + 1);
    return segment_;
  }

 private:
  void begin(int segment) {
    segment_ = segment;
    ops_ = 0;
    if (run_.plan[segment].kind == SegmentKind::kTraced) {
      // High-water marks are monotonic since reset: restart them so they
      // describe traced traffic only.
      DatapathStats::global().reset();
      traced_before_ = read_counters(*run_.session, run_.channels);
    }
    start_usage_ = usage();
    start_ns_ = wall_ns();
    if (run_.plan[segment].kind == SegmentKind::kPlain) run_.open_chunk();
  }

  Run& run_;
  int segment_ = 0;
  std::uint64_t ops_ = 0;
  std::int64_t start_ns_ = 0;
  Usage start_usage_;
  Counters traced_before_;
};

constexpr int kDataTag = 0;
constexpr int kControlTag = 99;

bool same_bytes(const std::byte* a, const std::byte* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

// One MPI ping-pong round trip: the leader sends `ping` and receives the
// pong into `buffer`; the peer receives the ping and echoes `pong`. Each
// side checks what it receives byte for byte. The leader's host stamps
// bracket its send and its recv; the peer's t[1] is when its pong left the
// send call.
struct RoundTrip {
  std::array<std::int64_t, 3> t{};  // host ns
  usec_t v0 = 0, v1 = 0;            // the leader's virtual clock around it
};

bool mpi_round_trip(mpi::Comm& comm, bool leader, int other,
                    const std::byte* ping, const std::byte* pong,
                    std::size_t size, std::byte* buffer, RoundTrip& rt) {
  const auto byte = mpi::Datatype::byte();
  const int count = static_cast<int>(size);
  if (leader) {
    rt.v0 = comm.wtime_us();
    rt.t[0] = wall_ns();
    const Status sent = comm.send(ping, count, byte, other, kDataTag);
    rt.t[1] = wall_ns();
    const mpi::MpiStatus got = comm.recv(buffer, count, byte, other, kDataTag);
    rt.t[2] = wall_ns();
    rt.v1 = comm.wtime_us();
    return sent.is_ok() && got.error == ErrorCode::kOk && got.bytes == size &&
           same_bytes(buffer, pong, size);
  }
  const mpi::MpiStatus got = comm.recv(buffer, count, byte, other, kDataTag);
  const Status sent = comm.send(pong, count, byte, other, kDataTag);
  rt.t[1] = wall_ns();
  return sent.is_ok() && got.error == ErrorCode::kOk && got.bytes == size &&
         same_bytes(buffer, ping, size);
}

// Closed loop between ranks 0 and 1: rank 0 sends the op's ping payload and
// waits for the pong; rank 1 echoes with the op's pong payload.
void pingpong_rank(mpi::Comm comm, Run& run) {
  const int rank = comm.rank();
  if (rank > 1) return;
  const bool leader = rank == 0;
  const int other = 1 - rank;
  const auto int32 = mpi::Datatype::int32();

  std::size_t max_size = 1;
  for (const Op& op : run.in.ops) max_size = std::max<std::size_t>(max_size, op.f[0]);
  std::vector<std::byte> buffer(max_size);

  std::unique_ptr<SegmentClock> clock;
  if (leader) clock = std::make_unique<SegmentClock>(run);
  std::uint64_t i = run.first_op;
  int segment = 0;
  while (segment >= 0) {
    const SegmentKind kind = run.plan[segment].kind;
    for (int k = 0; k < run.batch; ++k, ++i) {
      const Op& op = run.in.op(i);
      const std::size_t size = op.f[0];
      RoundTrip rt;
      const bool ok = mpi_round_trip(comm, leader, other,
                                     run.in.at(op.f[1], size),
                                     run.in.at(op.f[2], size), size,
                                     buffer.data(), rt);
      if (leader) {
        run.attempted.fetch_add(1, std::memory_order_relaxed);
        if (kind == SegmentKind::kPlain) {
          // Virtual time per op is one-way: half the round trip.
          run.record((rt.t[2] - rt.t[0]) * 1e-3, (rt.v1 - rt.v0) / 2.0,
                     2.0 * static_cast<double>(size));
        } else if (kind == SegmentKind::kTraced) {
          run.send_ns.push_back(static_cast<double>(rt.t[1] - rt.t[0]));
          run.recv_ns.push_back(static_cast<double>(rt.t[2] - rt.t[1]));
          run.recv_start_ns.push_back(rt.t[1]);
          run.recv_end_ns.push_back(rt.t[2]);
        }
      } else if (kind == SegmentKind::kTraced) {
        run.peer_sent_ns.push_back(rt.t[1]);
      }
      if (!ok) run.fail(i);
    }
    std::int32_t next = 0;
    if (leader) {
      next = clock->boundary();
      MADMPI_CHECK(comm.send(&next, 1, int32, other, kControlTag).is_ok());
    } else {
      const mpi::MpiStatus got = comm.recv(&next, 1, int32, 0, kControlTag);
      MADMPI_CHECK(got.error == ErrorCode::kOk);
    }
    segment = next;
  }
}

constexpr int kAllreduceCount = 8;     // doubles
constexpr std::size_t kBcastBytes = 16 * 1024;
constexpr std::size_t kAlltoallBytes = 256;  // per peer

// One iteration: allreduce(8 doubles), bcast(16 KiB, rotating root),
// alltoall(256 B per peer). Every rank checks its results against closed
// forms: the allreduce sums base + rank over all ranks, and each bcast and
// alltoall block is a known slice of the input blob.
void coll_rank(mpi::Comm comm, Run& run) {
  const int rank = comm.rank();
  const int n = comm.size();
  const bool leader = rank == 0;
  const auto f64 = mpi::Datatype::float64();
  const auto byte = mpi::Datatype::byte();
  const auto int32 = mpi::Datatype::int32();
  const double rank_sum = 0.5 * n * (n - 1);
  const double iteration_bytes =
      kAllreduceCount * sizeof(double) + kBcastBytes +
      static_cast<double>(n) * kAlltoallBytes;

  std::array<double, kAllreduceCount> contrib{}, sums{};
  std::vector<std::byte> bcast_buf(kBcastBytes);
  std::vector<std::byte> a2a_recv(static_cast<std::size_t>(n) * kAlltoallBytes);

  std::unique_ptr<SegmentClock> clock;
  if (leader) clock = std::make_unique<SegmentClock>(run);
  std::uint64_t i = run.first_op;
  int segment = 0;
  while (segment >= 0) {
    const SegmentKind kind = run.plan[segment].kind;
    for (int k = 0; k < run.batch; ++k, ++i) {
      const Op& op = run.in.op(i);
      const int root = static_cast<int>(op.f[0] % static_cast<std::uint32_t>(n));
      const std::byte* bcast_src = run.in.at(op.f[1], kBcastBytes);
      const std::byte* a2a_base = run.in.at(
          op.f[2], static_cast<std::size_t>(n) * n * kAlltoallBytes);
      for (int j = 0; j < kAllreduceCount; ++j) {
        contrib[j] = static_cast<double>(op.f[3 + j]) + rank;
      }

      std::array<std::int64_t, kCollCalls + 1> t{};
      std::array<usec_t, kCollCalls + 1> v{};
      v[0] = comm.wtime_us();
      t[0] = wall_ns();
      const Status reduced = comm.allreduce(contrib.data(), sums.data(),
                                            kAllreduceCount, f64,
                                            mpi::Op::sum());
      t[1] = wall_ns();
      v[1] = comm.wtime_us();
      if (rank == root) {
        std::memcpy(bcast_buf.data(), bcast_src, kBcastBytes);
      } else {
        std::memset(bcast_buf.data(), 0, kBcastBytes);
      }
      const Status broadcast = comm.bcast(
          bcast_buf.data(), static_cast<int>(kBcastBytes), byte, root);
      t[2] = wall_ns();
      v[2] = comm.wtime_us();
      const std::byte* a2a_send =
          a2a_base + static_cast<std::size_t>(rank) * n * kAlltoallBytes;
      const Status exchanged = comm.alltoall(
          a2a_send, static_cast<int>(kAlltoallBytes), byte, a2a_recv.data(),
          static_cast<int>(kAlltoallBytes), byte);
      t[3] = wall_ns();
      v[3] = comm.wtime_us();

      bool ok = reduced.is_ok() && broadcast.is_ok() && exchanged.is_ok() &&
                same_bytes(bcast_buf.data(), bcast_src, kBcastBytes);
      for (int j = 0; ok && j < kAllreduceCount; ++j) {
        ok = sums[j] == static_cast<double>(op.f[3 + j]) * n + rank_sum;
      }
      for (int p = 0; ok && p < n; ++p) {
        const std::byte* expect =
            a2a_base + (static_cast<std::size_t>(p) * n + rank) * kAlltoallBytes;
        ok = same_bytes(a2a_recv.data() + p * kAlltoallBytes, expect,
                        kAlltoallBytes);
      }
      if (!ok) run.fail(i);

      if (leader) {
        run.attempted.fetch_add(1, std::memory_order_relaxed);
        if (kind == SegmentKind::kPlain) {
          run.record((t[3] - t[0]) * 1e-3, v[3] - v[0], iteration_bytes);
        } else if (kind == SegmentKind::kTraced) {
          for (int c = 0; c < kCollCalls; ++c) {
            run.coll_host_us[c].push_back((t[c + 1] - t[c]) * 1e-3);
            run.coll_virt_us[c].push_back(v[c + 1] - v[c]);
          }
        }
      }
    }
    std::int32_t next = leader ? clock->boundary() : 0;
    MADMPI_CHECK(comm.bcast(&next, 1, int32, 0).is_ok());
    segment = next;
  }
}

void run_plan(core::Session& session, Run& run) {
  run.session = &session;
  run.channels = session.madeleine().channels();
  if (run.spec.kind == Workload::kColl) {
    session.run([&run](mpi::Comm comm) { coll_rank(comm, run); });
  } else {
    session.run([&run](mpi::Comm comm) { pingpong_rank(comm, run); });
  }
}

// ---- the layer ladder ----------------------------------------------------------
//
// The same ping-pong at three layer boundaries between nodes 0 and 1 over
// SCI: the bare net transport, a raw Madeleine channel, and MPI. Each rung
// reports one-way host and virtual time per message.

struct LadderMsg {
  std::size_t size = 0;
  const std::byte* ping = nullptr;
  const std::byte* pong = nullptr;
};

struct Rung {
  std::vector<double> host_ns;
  std::vector<double> virt_us;
};

std::vector<LadderMsg> ladder_msgs(const Inputs& in, const WorkloadSpec& spec) {
  std::vector<LadderMsg> msgs;
  // The collective workload's point-to-point traffic: its three message
  // sizes, in turn.
  static constexpr std::size_t kCollSizes[] = {
      kAllreduceCount * sizeof(double), kBcastBytes, kAlltoallBytes};
  for (std::size_t i = 0; i < spec.ladder_msgs; ++i) {
    const Op& op = in.op(i);
    LadderMsg m;
    switch (spec.kind) {
      case Workload::kColl: m.size = kCollSizes[i % 3]; break;
      case Workload::kAnchor: m.size = 4; break;
      default: m.size = op.f[0]; break;
    }
    m.ping = in.at(op.f[1], m.size);
    m.pong = in.at(op.f[2], m.size);
    msgs.push_back(m);
  }
  return msgs;
}

// Drives a ping-pong between a leader side and a peer thread. `exchange`
// sends one payload and receives the reply into `into`, returning false on
// any failure; `virt_now` reads the leader's virtual clock.
template <typename Send, typename Receive, typename VirtNow>
Rung drive_rung(const std::vector<LadderMsg>& msgs, Run& run, Send send_a,
                Receive recv_a, Send send_b, Receive recv_b,
                VirtNow virt_now) {
  std::size_t max_size = 1;
  for (const auto& m : msgs) max_size = std::max(max_size, m.size);
  std::vector<std::byte> buf_a(max_size), buf_b(max_size);
  std::atomic<std::uint64_t> failures{0};

  // Message 0 doubles as the untimed warm-up round trip.
  std::thread peer([&] {
    for (std::size_t i = 0; i <= msgs.size(); ++i) {
      const LadderMsg& m = msgs[i == 0 ? 0 : i - 1];
      const bool ok = recv_b(buf_b.data(), m.size) &&
                      same_bytes(buf_b.data(), m.ping, m.size);
      if (!send_b(m.pong, m.size) || !ok) failures.fetch_add(1);
    }
  });
  Rung rung;
  for (std::size_t i = 0; i <= msgs.size(); ++i) {
    const LadderMsg& m = msgs[i == 0 ? 0 : i - 1];
    const usec_t v0 = virt_now();
    const std::int64_t t0 = wall_ns();
    const bool sent = send_a(m.ping, m.size);
    const bool got = recv_a(buf_a.data(), m.size);
    const std::int64_t t1 = wall_ns();
    const usec_t v1 = virt_now();
    if (!sent || !got || !same_bytes(buf_a.data(), m.pong, m.size)) {
      failures.fetch_add(1);
    }
    if (i == 0) continue;
    rung.host_ns.push_back(static_cast<double>(t1 - t0) / 2.0);
    rung.virt_us.push_back((v1 - v0) / 2.0);
  }
  peer.join();
  run.attempted.fetch_add(msgs.size() + 1);
  run.fail_ladder(failures.load());
  return rung;
}

Rung net_rung(core::Session& session, node_id_t a, node_id_t b,
              const std::vector<LadderMsg>& msgs, Run& run) {
  const sim::NetworkSpec& sci =
      session.cluster().networks[sci_network_index(session)];
  std::unique_ptr<net::Driver> driver = net::make_driver(sim::Protocol::kSisci);
  std::unique_ptr<net::ChannelTransport> transport = driver->open_channel(
      session.fabric(), sci, session.cluster(), "perfbench-net");
  net::Endpoint* ep_a = transport->endpoint(a);
  net::Endpoint* ep_b = transport->endpoint(b);
  MADMPI_CHECK(ep_a != nullptr && ep_b != nullptr);

  // An 8-byte header frame; payloads the driver would aggregate ride in it,
  // the others travel as one separate block, as the driver plans them.
  auto sender = [&driver](net::Endpoint& ep, node_id_t dst) {
    return [&driver, &ep, dst, control = std::vector<std::byte>()](
               const std::byte* data, std::size_t size) mutable {
      const net::BlockPlan plan = driver->plan_block(size);
      const std::uint64_t header = size;
      control.resize(sizeof header);
      std::memcpy(control.data(), &header, sizeof header);
      std::vector<net::DataBlock> blocks;
      if (plan.aggregate) {
        control.insert(control.end(), data, data + size);
      } else {
        blocks.push_back({byte_span(data, size), plan.zero_copy});
      }
      return ep.send_message(dst, byte_span(control.data(), control.size()),
                             blocks)
          .is_ok();
    };
  };
  auto receiver = [](net::Endpoint& ep) {
    return [&ep](std::byte* into, std::size_t size) {
      auto message = ep.next_message_blocking();
      if (!message.has_value()) return false;
      const byte_span control = message->control_payload();
      if (control.size() < sizeof(std::uint64_t)) return false;
      if (message->control_was_last()) {
        if (control.size() != sizeof(std::uint64_t) + size) return false;
        std::memcpy(into, control.data() + sizeof(std::uint64_t), size);
        return true;
      }
      sim::Frame frame = message->take_data_block();
      if (frame.kind != net::kDataFrame || frame.payload.size() != size) {
        return false;
      }
      std::memcpy(into, frame.payload.contiguous().data(), size);
      return true;
    };
  };
  Rung rung = drive_rung(
      msgs, run, sender(*ep_a, b), receiver(*ep_a), sender(*ep_b, a),
      receiver(*ep_b), [ep_a] { return ep_a->node().clock().now(); });
  ep_a->close();
  ep_b->close();
  return rung;
}

Rung mad_rung(core::Session& session, node_id_t a, node_id_t b,
              const std::vector<LadderMsg>& msgs, Run& run) {
  mad::Channel& channel =
      session.open_raw_channel(sci_network_index(session), "perfbench-mad");
  mad::ChannelEndpoint* side_a = channel.at(a);
  mad::ChannelEndpoint* side_b = channel.at(b);
  MADMPI_CHECK(side_a != nullptr && side_b != nullptr);
  auto sender = [](mad::ChannelEndpoint& self, node_id_t peer) {
    return [&self, peer](const std::byte* data, std::size_t size) {
      mad::Packing packing = self.begin_packing(peer);
      packing.pack(data, size, mad::SendMode::kCheaper, mad::RecvMode::kCheaper);
      return packing.end_packing().is_ok();
    };
  };
  auto receiver = [](mad::ChannelEndpoint& self) {
    return [&self](std::byte* into, std::size_t size) {
      auto incoming = self.begin_unpacking();
      if (!incoming.has_value()) return false;
      incoming->unpack(into, size, mad::SendMode::kCheaper,
                       mad::RecvMode::kCheaper);
      incoming->end_unpacking();
      return !incoming->aborted() && !incoming->truncated();
    };
  };
  Rung rung = drive_rung(
      msgs, run, sender(*side_a, b), receiver(*side_a), sender(*side_b, a),
      receiver(*side_b), [side_a] { return side_a->node().clock().now(); });
  channel.close();
  return rung;
}

Rung mpi_rung(core::Session& session, const std::vector<LadderMsg>& msgs,
              Run& run) {
  // The peer is the first rank hosted on node 1 (ranks are node-major).
  const rank_t peer = session.cluster().nodes[0].ranks;
  std::size_t max_size = 1;
  for (const auto& m : msgs) max_size = std::max(max_size, m.size);
  Rung rung;
  std::atomic<std::uint64_t> failures{0};
  session.run([&](mpi::Comm comm) {
    const bool leader = comm.rank() == 0;
    if (!leader && comm.rank() != peer) return;
    const rank_t other = leader ? peer : 0;
    std::vector<std::byte> buffer(max_size);
    // Message 0 doubles as the untimed warm-up round trip.
    for (std::size_t i = 0; i <= msgs.size(); ++i) {
      const LadderMsg& m = msgs[i == 0 ? 0 : i - 1];
      RoundTrip rt;
      if (!mpi_round_trip(comm, leader, other, m.ping, m.pong, m.size,
                          buffer.data(), rt)) {
        failures.fetch_add(1);
      }
      if (!leader || i == 0) continue;
      rung.host_ns.push_back(static_cast<double>(rt.t[2] - rt.t[0]) / 2.0);
      rung.virt_us.push_back((rt.v1 - rt.v0) / 2.0);
    }
  });
  run.attempted.fetch_add(msgs.size() + 1);
  run.fail_ladder(failures.load());
  return rung;
}

// ---- JSON output ----------------------------------------------------------------

class JsonOut {
 public:
  explicit JsonOut(std::FILE* f) : f_(f) { std::fputc('{', f_); }
  ~JsonOut() { std::fputs("}\n", f_); }
  JsonOut(const JsonOut&) = delete;
  JsonOut& operator=(const JsonOut&) = delete;

  void num(const char* key, double value) {
    this->key(key);
    std::fprintf(f_, "%.10g", value);
  }
  void str(const char* key, const std::string& value) {
    this->key(key);
    std::fprintf(f_, "\"%s\"", value.c_str());
  }
  template <typename T>
  void array(const char* key, const std::vector<T>& values) {
    this->key(key);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(f_, "%s%.10g", i == 0 ? "" : ",",
                   static_cast<double>(values[i]));
    }
    std::fputc(']', f_);
  }
  /// Opens a nested object under `key`; close it with end().
  void begin(const char* key) {
    this->key(key);
    std::fputc('{', f_);
    first_ = true;
  }
  void end() {
    std::fputc('}', f_);
    first_ = false;
  }

 private:
  void key(const char* key) {
    std::fprintf(f_, "%s\"%s\":", first_ ? "" : ",", key);
    first_ = false;
  }
  std::FILE* f_;
  bool first_ = true;
};

void write_counters(JsonOut& out, const Counters& c) {
  const DatapathSnapshot& d = c.datapath;
  out.num("bytes_copied", static_cast<double>(d.bytes_copied));
  out.num("copy_ops", static_cast<double>(d.copy_ops));
  out.num("staging_allocs", static_cast<double>(d.staging_allocs));
  out.num("slab_allocs", static_cast<double>(d.slab_allocs));
  out.num("slab_reuses", static_cast<double>(d.slab_reuses));
  out.num("slab_fallbacks", static_cast<double>(d.slab_fallbacks));
  out.num("poll_wakeups", static_cast<double>(d.poll_wakeups));
  out.num("match_attempts", static_cast<double>(d.match_attempts));
  out.num("match_probe_steps", static_cast<double>(d.match_probe_steps));
  out.num("match_rank_locks", static_cast<double>(d.match_rank_locks));
  out.num("match_posted_depth_hw", static_cast<double>(d.match_posted_depth_hw));
  out.num("match_unexpected_depth_hw",
          static_cast<double>(d.match_unexpected_depth_hw));
  out.num("eager", static_cast<double>(c.eager));
  out.num("rndv", static_cast<double>(c.rndv));
  out.num("eager_demoted", static_cast<double>(c.demoted));
  out.num("credit_stalls", static_cast<double>(c.credit_stalls));
  out.num("credit_packets", static_cast<double>(c.credit_packets));
  out.num("mad_msgs", static_cast<double>(c.traffic.messages_sent));
  out.num("mad_bytes", static_cast<double>(c.traffic.bytes_sent));
  out.num("frames_dropped", static_cast<double>(c.traffic.frames_dropped));
  out.num("retransmits", static_cast<double>(c.traffic.retransmits));
  out.num("ctx_switches", static_cast<double>(c.ctx));
}

void write_rung(JsonOut& out, const char* key, const Rung& rung) {
  out.begin(key);
  out.array("host_ns", rung.host_ns);
  out.array("virt_us", rung.virt_us);
  out.end();
}

struct Args {
  std::string workload, inputs, out;
  double seconds = 10.0;
  bool trace = false;
  int setups = 1;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--inputs") args.inputs = value;
    else if (key == "--out") args.out = value;
    else if (key == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") args.trace = std::strcmp(value, "1") == 0;
    else if (key == "--setups") args.setups = std::atoi(value);
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      std::exit(2);
    }
  }
  if (args.workload.empty() || args.inputs.empty() || args.out.empty() ||
      args.seconds < 0.0 || args.setups < 1 ||
      (args.seconds == 0.0 && args.trace)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <w> --inputs <file> "
                 "--out <file> --seconds <s> --trace 0|1 --setups <n>\n");
    std::exit(2);
  }
  return args;
}

void write_run(std::FILE* f, const Args& args, Run& run,
               const std::vector<double>& setup_s,
               const std::vector<double>& setup_ref_us,
               std::array<const Rung*, 3> ladder, std::int64_t harness_rss_kib,
               std::int64_t end_rss_kib) {
  const Rung& net = *ladder[0];
  const Rung& mad = *ladder[1];
  const Rung& mpi = *ladder[2];
  JsonOut out(f);
  out.str("workload", args.workload);
  out.str("engine", marcel::engine_kind_from_env() == marcel::EngineKind::kSharded
                        ? "sharded"
                        : "threaded");
  out.num("shards", static_cast<double>(marcel::engine_shards_from_env()));
  out.num("attempted", static_cast<double>(run.attempted.load()));
  out.num("failed", static_cast<double>(run.failures.size()));
  out.num("peak_rss_kib", static_cast<double>(end_rss_kib));
  out.num("harness_rss_kib", static_cast<double>(harness_rss_kib));
  out.num("batch", run.batch);
  out.num("virt_ops", static_cast<double>(run.spec.virt_ops));
  out.array("setup_s", setup_s);
  out.array("setup_ref_us", setup_ref_us);
  out.begin("segments");
  for (std::size_t s = 0; s < run.segments.size(); ++s) {
    const SegmentResult& r = run.segments[s];
    out.begin(std::to_string(s).c_str());
    out.str("kind", segment_name(r.kind));
    out.num("ops", static_cast<double>(r.ops));
    out.num("wall_s", r.wall_s);
    out.num("cpu_us", r.cpu_us);
    out.num("ctx_switches", static_cast<double>(r.ctx));
    out.end();
  }
  out.end();
  out.begin("ops");
  out.num("chunk_ops", static_cast<double>(kChunkOps));
  out.array("chunk_wall_s", run.chunk_wall_s);
  out.array("chunk_cpu_us", run.chunk_cpu_us);
  out.array("chunk_p50_us", run.chunk_p50);
  out.array("chunk_p99_us", run.chunk_p99);
  out.array("chunk_ref_us", run.chunk_ref_us);
  out.array("virt_us", run.op_virt_us);
  out.array("bytes", run.op_bytes);
  out.end();
  if (args.trace) {
    out.begin("trace");
    out.num("ops", static_cast<double>(run.traced_ops));
    out.array("send_ns", run.send_ns);
    out.array("recv_ns", run.recv_ns);
    // Share of each traced recv spent before the peer's pong had left its
    // send call: time waiting on the peer rather than in the local stack.
    std::vector<double> recv_wait_ns;
    const std::size_t paired =
        std::min(run.recv_start_ns.size(), run.peer_sent_ns.size());
    for (std::size_t k = 0; k < paired; ++k) {
      const std::int64_t span = run.recv_end_ns[k] - run.recv_start_ns[k];
      const std::int64_t wait = std::clamp<std::int64_t>(
          run.peer_sent_ns[k] - run.recv_start_ns[k], 0, span);
      recv_wait_ns.push_back(static_cast<double>(wait));
    }
    out.array("recv_wait_ns", recv_wait_ns);
    static constexpr const char* kCallNames[kCollCalls] = {"allreduce",
                                                           "bcast", "alltoall"};
    for (int c = 0; c < kCollCalls; ++c) {
      out.array((std::string(kCallNames[c]) + "_host_us").c_str(),
                run.coll_host_us[c]);
      out.array((std::string(kCallNames[c]) + "_virt_us").c_str(),
                run.coll_virt_us[c]);
    }
    out.begin("counters");
    write_counters(out, run.traced);
    out.end();
    out.end();
    out.begin("ladder");
    write_rung(out, "net", net);
    write_rung(out, "mad", mad);
    write_rung(out, "mpi", mpi);
    out.end();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec spec = spec_for(args.workload);
  const Inputs inputs = read_inputs(args.inputs);
  Run run(inputs, spec);

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }

  if (spec.kind == Workload::kAnchor) {
    // Calibration anchors at 4 B over SCI with the TCP poller running:
    // raw Madeleine (Table 1) and ch_mad (Fig. 9), each measured as its
    // committed bench does it: a fresh session, one warm-up round trip,
    // then the mean of a few timed ones.
    const std::vector<LadderMsg> msgs = ladder_msgs(inputs, spec);
    auto first = [&msgs](std::size_t n) {
      return std::vector<LadderMsg>(msgs.begin(), msgs.begin() + n);
    };
    Rung mad, mpi;
    {
      auto session = make_session(Workload::kEager);
      mad = mad_rung(*session, 0, 1, first(kAnchorMadReps), run);
    }
    {
      auto session = make_session(Workload::kEager);
      mpi = mpi_rung(*session, first(kAnchorMpiReps), run);
    }
    {
      JsonOut out(f);
      out.num("attempted", static_cast<double>(run.attempted.load()));
      out.num("failed", static_cast<double>(run.failures.size()));
      write_rung(out, "mad", mad);
      write_rung(out, "mpi", mpi);
    }
    return std::fclose(f) == 0 ? 0 : 2;
  }

  const bool measure = args.seconds > 0.0;
  run.chunk.reserve(kChunkOps);
  run.op_virt_us.reserve(spec.virt_ops);
  run.op_bytes.reserve(spec.virt_ops);
  Reference reference;
  // The harness's own footprint (inputs, sample stores, reference thread),
  // before any session exists: peak RSS minus this is what the library
  // added.
  const std::int64_t harness_rss_kib = peak_rss_kib();

  // Set-up: build the session and finish the first op, several times; the
  // last session goes on to the measured run. Each set-up follows the
  // median of three reference blocks, its own machine-speed sample.
  std::vector<double> setup_s, setup_ref_us;
  std::unique_ptr<core::Session> session;
  for (int k = 0; k < args.setups; ++k) {
    session.reset();
    setup_ref_us.push_back(median_of(
        {reference.block_us(), reference.block_us(), reference.block_us()}));
    const std::int64_t t0 = wall_ns();
    session = make_session(spec.kind);
    run.plan = {{SegmentKind::kWarm, 0.0, 1}};
    run.batch = 1;
    run.first_op = 0;
    run_plan(*session, run);
    setup_s.push_back((wall_ns() - t0) * 1e-9);
  }

  const std::uint64_t warm_ops =
      (spec.warm_ops + spec.batch - 1) / spec.batch * spec.batch;
  run.batch = spec.batch;
  run.first_op = 1;
  run.segments.clear();
  // A traced run compares plain and traced segments as measured, so only
  // untraced runs interleave reference blocks.
  if (!args.trace) run.reference = &reference;
  if (args.trace) {
    // Untraced and traced halves alternate so drift hits both alike.
    const double quarter = args.seconds / 4.0;
    const auto floor = static_cast<std::uint64_t>(spec.batch);
    run.plan = {{SegmentKind::kWarm, 0.0, warm_ops},
                {SegmentKind::kPlain, quarter, floor},
                {SegmentKind::kTraced, quarter, floor},
                {SegmentKind::kPlain, quarter, floor},
                {SegmentKind::kTraced, quarter, floor}};
  } else {
    run.plan = {{SegmentKind::kWarm, 0.0, warm_ops},
                {SegmentKind::kPlain, args.seconds, spec.min_ops()}};
  }
  if (measure) run_plan(*session, run);

  Rung net, mad, mpi;
  if (args.trace) {
    const auto msgs = ladder_msgs(inputs, spec);
    const node_id_t a = 0, b = 1;
    net = net_rung(*session, a, b, msgs, run);
    mad = mad_rung(*session, a, b, msgs, run);
    mpi = mpi_rung(*session, msgs, run);
  }
  session->finalize();

  write_run(f, args, run, setup_s, setup_ref_us, {&net, &mad, &mpi},
            harness_rss_kib, peak_rss_kib());
  return std::fclose(f) == 0 ? 0 : 2;
}
