// Communicators and the user-facing MPI operation set.
//
// This is the "generic part" of the MPICH structure (paper Figure 1):
// point-to-point semantics, non-blocking requests, probe, communicator
// management and the collective operations, all expressed over the ADI.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mpi/adi.hpp"
#include "mpi/coll_topo.hpp"
#include "mpi/coll_types.hpp"
#include "mpi/datatype.hpp"
#include "mpi/errhandler.hpp"
#include "mpi/group.hpp"
#include "mpi/op.hpp"
#include "mpi/request.hpp"
#include "mpi/runtime.hpp"
#include "mpi/types.hpp"

namespace madmpi::mpi {

struct Schedule;

/// Default for CollectiveConfig::fault_tolerant — the MADMPI_FT_COLLECTIVES
/// environment knob (off unless set to a truthy value, keeping the
/// fault-free fast path byte-identical to the pre-FT stack by default).
bool ft_collectives_default();
/// Default for CollectiveConfig::agree_timeout_us: one virtual second.
usec_t ft_agree_timeout_default();

struct CollectiveConfig {
  AllreduceAlgorithm allreduce = allreduce_algorithm_default();
  BcastAlgorithm bcast = bcast_algorithm_default();
  BarrierAlgorithm barrier = barrier_algorithm_default();

  /// Whether kAuto resolution may elect the modeled NIC offload (requires
  /// an offload-capable homogeneous leader fabric; MADMPI_COLL_OFFLOAD).
  bool offload = coll_offload_default();

  /// Fault-tolerant collectives: survivable trees (bcast re-routes dead
  /// subtrees through live peers) plus uniform error agreement — when a
  /// collective cannot complete, every live rank returns the same error
  /// class instead of a divergent mix of hangs, successes and failures.
  /// Must be set identically on every rank. In FT mode bcast/allreduce
  /// always use the survivable binomial tree (the algorithm selectors
  /// above apply to the fault-free mode only).
  bool fault_tolerant = ft_collectives_default();
  /// Safety-valve deadline for FT-internal receives, in virtual
  /// microseconds: the bound after which a receive the failure detector
  /// cannot prove dead is abandoned during a sustained global stall
  /// (0 = no deadline).
  usec_t agree_timeout_us = ft_agree_timeout_default();
};

class Comm {
 public:
  Comm() = default;  // invalid handle

  bool valid() const { return shared_ != nullptr; }
  int rank() const { return rank_; }
  int size() const;

  /// Global (world) rank of a communicator rank.
  rank_t global_rank_of(rank_t comm_rank) const;

  // --- Point-to-point ------------------------------------------------

  /// MPI_Send: blocking, returns when the buffer is reusable (eager) or
  /// when the transfer completed (rendezvous; mode is picked from the
  /// device's switch point, paper §4.2.2). A non-ok status means the device
  /// exhausted every route to the destination (MPI_ERR_OTHER territory);
  /// the message may have been partially delivered and was aborted on the
  /// receiving side.
  Status send(const void* buf, int count, const Datatype& type, rank_t dest,
              int tag);

  /// MPI_Ssend: completion implies a matching receive was posted (forces
  /// the rendezvous handshake regardless of size).
  Status ssend(const void* buf, int count, const Datatype& type, rank_t dest,
               int tag);

  /// MPI_Bsend: returns as soon as the message is copied into the attached
  /// buffer (buffer_attach); never blocks on the receiver. Aborts with an
  /// MPI_ERR_BUFFER-style message when the attached buffer cannot hold the
  /// message alongside the other pending buffered sends.
  void bsend(const void* buf, int count, const Datatype& type, rank_t dest,
             int tag);

  /// MPI_Buffer_attach / MPI_Buffer_detach for this rank's thread. Detach
  /// blocks until every pending buffered send has been delivered to the
  /// device.
  static void buffer_attach(std::size_t bytes);
  static void buffer_detach();

  /// Bytes needed in the attached buffer for one bsend of `bytes` payload
  /// (MPI_BSEND_OVERHEAD included).
  static std::size_t bsend_overhead() { return 64; }

  /// MPI_Recv.
  MpiStatus recv(void* buf, int count, const Datatype& type, rank_t source,
                 int tag);

  /// MPI_Isend: eager sizes complete inline; rendezvous sizes inject their
  /// request in place and complete when the device's poller pushes the
  /// data (paper §4.2.3).
  Request isend(const void* buf, int count, const Datatype& type, rank_t dest,
                int tag);

  /// MPI_Issend.
  Request issend(const void* buf, int count, const Datatype& type,
                 rank_t dest, int tag);

  /// MPI_Irecv.
  Request irecv(void* buf, int count, const Datatype& type, rank_t source,
                int tag);

  /// MPI_Sendrecv.
  MpiStatus sendrecv(const void* send_buf, int send_count,
                     const Datatype& send_type, rank_t dest, int send_tag,
                     void* recv_buf, int recv_count,
                     const Datatype& recv_type, rank_t source, int recv_tag);

  /// MPI_Probe / MPI_Iprobe.
  MpiStatus probe(rank_t source, int tag);
  bool iprobe(rank_t source, int tag, MpiStatus* status = nullptr);

  /// MPI_Mprobe: block until a matching message arrives, remove it from
  /// the unexpected queue and hand back an owning handle. The message can
  /// then only be completed through mrecv()/imrecv() with that handle —
  /// no other receive (on any thread) can steal it.
  MpiStatus mprobe(rank_t source, int tag, MatchedMessage* message);

  /// MPI_Improbe: the nonblocking flavor. Returns true (with `message`
  /// valid) when a matching message was removed, false otherwise.
  bool improbe(rank_t source, int tag, MatchedMessage* message,
               MpiStatus* status = nullptr);

  /// MPI_Mrecv / MPI_Imrecv: complete a message previously matched by
  /// mprobe()/improbe(). The handle is consumed.
  MpiStatus mrecv(void* buf, int count, const Datatype& type,
                  MatchedMessage message);
  Request imrecv(void* buf, int count, const Datatype& type,
                 MatchedMessage message);

  // --- Error handling --------------------------------------------------

  /// MPI_Comm_set_errhandler / MPI_Comm_get_errhandler, per rank. The
  /// C++ default is errors_return() — these APIs already hand back Status
  /// values (and PR 1's tests rely on that); the C compat facade installs
  /// errors_are_fatal() per the MPI standard's default.
  void set_errhandler(Errhandler handler);
  Errhandler errhandler() const;

  /// Route a failed operation through this rank's error handler: fatal
  /// aborts, custom runs the callback; either way the status is returned
  /// so Status-based callers keep composing.
  Status raise_error(const Status& status);

  // --- Collectives ----------------------------------------------------

  /// Select collective algorithms for this rank's view of the
  /// communicator. Collective semantics require every rank to set the same
  /// configuration.
  void set_collective_config(const CollectiveConfig& config);
  CollectiveConfig collective_config() const;

  /// What algorithm the next call would actually run, after kAuto
  /// resolution against the topology digest, the tuner's decision table
  /// and the FT interop rule (FT mode always resolves to the flat
  /// survivable algorithms — the explicit fallback the FT guard test
  /// pins). Introspection for tests, benches and the tuner smoke.
  BcastAlgorithm resolve_bcast(std::size_t bytes) const;
  AllreduceAlgorithm resolve_allreduce(std::size_t bytes) const;
  BarrierAlgorithm resolve_barrier() const;

  /// The communicator's topology digest (islands / clusters / reps),
  /// built lazily and cached. Exposed for tests and the tuner.
  const CollTopo& coll_topo() const;

  // Collectives report failures through the communicator's error handler,
  // then return the Status (non-ok when a hop died mid-algorithm — the
  // MPI_ERRORS_RETURN propagation path through collectives; peers of a
  // failed collective may be left waiting and rely on the progress
  // watchdog to cancel them). Ignoring the return keeps legacy callers
  // source-compatible.
  Status barrier();
  Status bcast(void* buf, int count, const Datatype& type, rank_t root);
  Status reduce(const void* send_buf, void* recv_buf, int count,
                const Datatype& type, const Op& op, rank_t root);
  Status allreduce(const void* send_buf, void* recv_buf, int count,
                   const Datatype& type, const Op& op);
  Status gather(const void* send_buf, int send_count,
                const Datatype& send_type, void* recv_buf, int recv_count,
                const Datatype& recv_type, rank_t root);
  Status gatherv(const void* send_buf, int send_count,
                 const Datatype& send_type, void* recv_buf,
                 std::span<const int> recv_counts,
                 std::span<const int> displacements,
                 const Datatype& recv_type, rank_t root);
  Status scatter(const void* send_buf, int send_count,
                 const Datatype& send_type, void* recv_buf, int recv_count,
                 const Datatype& recv_type, rank_t root);
  Status scatterv(const void* send_buf, std::span<const int> send_counts,
                  std::span<const int> displacements,
                  const Datatype& send_type, void* recv_buf, int recv_count,
                  const Datatype& recv_type, rank_t root);
  Status allgather(const void* send_buf, int send_count,
                   const Datatype& send_type, void* recv_buf, int recv_count,
                   const Datatype& recv_type);
  Status allgatherv(const void* send_buf, int send_count,
                    const Datatype& send_type, void* recv_buf,
                    std::span<const int> recv_counts,
                    std::span<const int> displacements,
                    const Datatype& recv_type);
  Status alltoall(const void* send_buf, int send_count,
                  const Datatype& send_type, void* recv_buf, int recv_count,
                  const Datatype& recv_type);
  Status alltoallv(const void* send_buf, std::span<const int> send_counts,
                   std::span<const int> send_displs,
                   const Datatype& send_type, void* recv_buf,
                   std::span<const int> recv_counts,
                   std::span<const int> recv_displs,
                   const Datatype& recv_type);
  Status scan(const void* send_buf, void* recv_buf, int count,
              const Datatype& type, const Op& op);
  Status reduce_scatter_block(const void* send_buf, void* recv_buf,
                              int count, const Datatype& type, const Op& op);

  // --- Nonblocking collectives ----------------------------------------
  //
  // Each operation runs the blocking collective's schedule generator
  // (coll_schedule.cpp) in the runner's hooked drive: the returned request
  // completes when every round has run, advanced from whatever context
  // completes the underlying transfers (a ch_mad poller, an smp sender, a
  // fiber resume) — never from a hidden blocking call. MPI_Test on the
  // request yields the shard, so spin-loops make progress on the sharded
  // engine. In FT mode the operation degrades to the blocking form, whose
  // guard runs the survivable algorithm and the agreement, at initiation
  // time (completing the request inline).
  Request ibcast(void* buf, int count, const Datatype& type, rank_t root);
  Request iallreduce(const void* send_buf, void* recv_buf, int count,
                     const Datatype& type, const Op& op);
  Request ibarrier();

  // --- ULFM-style fault tolerance --------------------------------------

  /// MPIX_Comm_revoke: mark this communicator unusable on every rank.
  /// Peers blocked in operations on it are cancelled with kRevoked; any
  /// later operation raises kRevoked through the errhandler. shrink() and
  /// agree() remain usable on a revoked communicator (they are the
  /// recovery path).
  Status revoke();
  /// Whether this communicator has been revoked.
  bool revoked() const;

  /// MPIX_Comm_shrink: collectively agree on the set of failed ranks and
  /// return a new communicator over the survivors. In an asymmetric
  /// partition each side shrinks to its own partition (distinct derived
  /// contexts keep them from cross-talking); a rank the group agreed is
  /// failed gets an invalid Comm and a kProcFailed through its
  /// errhandler.
  Comm shrink();

  /// MPIX_Comm_agree: uniform agreement on the bitwise AND of `flag`
  /// across all live ranks. Returns kProcFailed (through the errhandler)
  /// on every live rank when any participant is known failed, with *flag
  /// still set to the AND over the live contributions.
  Status agree(int* flag);

  // --- Communicator management ----------------------------------------

  Comm dup();
  /// MPI_Comm_split; color == -1 (the MPI_UNDEFINED sentinel) returns an
  /// invalid Comm. Any other negative color is an argument error raised
  /// through the errhandler layer (MPI_ERR_ARG), also yielding an invalid
  /// Comm when the handler returns.
  Comm split(int color, int key);

  /// MPI_Comm_group: this communicator's membership in world ranks.
  Group group() const;

  /// MPI_Comm_create: collective over this communicator; callers inside
  /// `subset` (which must be identical everywhere and a subgroup of this
  /// communicator) receive the new communicator, others an invalid one.
  Comm create(const Group& subset);

  /// MPI_Wtime: the hosting node's virtual clock, in seconds.
  double wtime() const;
  /// Same clock in microseconds (native unit of the simulation).
  usec_t wtime_us() const;

  /// Charge local computation time to this rank's virtual clock —
  /// simulation-aware applications model their compute phases with this
  /// (host flops are free; only charged time shapes the schedule).
  void compute_us(usec_t us);

  int context() const;

  /// Build the world communicator handle for `rank` (used by the session).
  static Comm world(Runtime* runtime, rank_t rank, int world_context = 0);

 private:
  struct Shared;
  // One-sided windows live beside the communicator and need its runtime
  // plumbing (device dispatch, context registry, id derivation).
  friend class Win;
  // The hooked drive of the collective schedule runner (coll_schedule.cpp)
  // issues the private coll_isend/coll_post_recv primitives from completion
  // hooks.
  friend class IcollSchedule;
  // The session-setup auto-tuner (coll_tuner.cpp) installs its decision
  // table on the communicator's runtime.
  friend void tune_collectives(Comm world);
  Comm(std::shared_ptr<Shared> shared, rank_t rank)
      : shared_(std::move(shared)), rank_(rank) {}

  /// The one blocking send on the collective context: envelope (tag
  /// remapped under FT capture; the FT ranges pass through), then
  /// send_core.
  Status coll_try_send(const void* buf, std::size_t bytes, rank_t dest,
                       int tag);
  /// coll_try_send with the algorithms' failure policy: under FT capture a
  /// hop the detector already proves dead is skipped, and any failure is
  /// recorded; outside capture a failure throws CollAbort.
  void coll_send(const void* buf, std::size_t bytes, rank_t dest, int tag);
  /// Fan the same payload out to every listed child concurrently and wait
  /// for all (a blocking tree node would otherwise serialize one full
  /// rendezvous handshake per child). Falls back to serialized coll_send
  /// under FT capture, where the per-hop verdict logic lives.
  void coll_send_multi(const std::vector<rank_t>& children, const void* buf,
                       std::size_t bytes, int tag);
  /// The one receive post on the collective context. `ft_timeout_us` > 0
  /// gives the receive an FT deadline that far past its post. A wildcard
  /// `source` (kAnySource) names no sender for the watchdog to check.
  std::shared_ptr<RequestState> coll_post_recv(void* buf, std::size_t bytes,
                                               rank_t source, int tag,
                                               usec_t ft_timeout_us);

  /// Nonblocking send on the collective context. Never blocks the caller
  /// — eager completes inline, rendezvous detaches — so it is safe to
  /// issue from completion hooks.
  Request coll_isend(const void* buf, std::size_t bytes, rank_t dest,
                     int tag);

  /// The inline drive of the collective schedule runner
  /// (coll_schedule.cpp): run `schedule` on this rank, sending from `in`
  /// and landing receives in `out` (the same buffer for the in-place
  /// shapes) or a scratch buffer it owns, folding Reduce steps into `out`
  /// with `op` over `type` elements. A failed hop unwinds to here and is
  /// raised through the error handler.
  Status run_schedule(const Schedule& schedule, const std::byte* in,
                      std::byte* out, const Datatype& type = Datatype::byte(),
                      const Op* op = nullptr);

  Envelope make_envelope(rank_t dest, int tag, std::uint64_t bytes,
                         bool synchronous) const;

  /// How send_core() finishes a send, and what a rendezvous payload is.
  enum class SendKind {
    kBlocking,  // return once locally complete; the payload is borrowed
    kBorrowed,  // return at once; the caller keeps the payload valid until
                // the request completes (collective schedules)
    kStaged,    // return at once; a rendezvous payload is first copied,
                // charged as a host copy, and MPI_Cancel can detach it
    kParked,    // bsend: copied like kStaged but not charged here; the
                // caller charged the copy in both modes, before admission
  };

  /// What send_core() did: finished the send in the call with `status`,
  /// or handed a nonblocking rendezvous to the device, which completes
  /// `detached`.
  struct SendOutcome {
    Status status = Status::ok();
    std::shared_ptr<RequestState> detached;
  };

  /// The one send path from every entry point to the device (paper §2.2:
  /// the generic layer picks the mode, the device moves the bytes). A
  /// point-to-point send on a revoked communicator fails with kRevoked
  /// before it admits anything. Then flow-control admission picks the
  /// mode; eager and blocking sends finish in the call, and a failed eager
  /// send hands its store reservation back. A nonblocking rendezvous is
  /// handed to the device with a request made for it.
  SendOutcome send_core(rank_t dest, const Envelope& env, byte_span packed,
                        SendKind kind);
  /// The request a nonblocking send returns: the detached rendezvous's, or
  /// one completed now with the outcome of a send that finished in the
  /// call.
  Request send_request(const Envelope& env, SendOutcome sent);

  /// Flow-control admission (tentpole of the robustness layer): picks the
  /// transfer mode, then asks the *receiver's* unexpected store and the
  /// device's credit window for an eager slot. Either refusal demotes the
  /// transfer to rendezvous, which buffers nothing until the receive
  /// posts. Self-sends skip admission (ch_self must stay eager: a
  /// single-threaded rendezvous with oneself would deadlock).
  TransferMode admit_or_demote(Device& device, rank_t dst_global,
                               const Envelope& env);

  Device& device_to(rank_t dest) const;
  sim::Node& my_node() const;
  RankContext& my_context() const;

  // --- Fault-tolerant collectives (ft_collectives.cpp) -----------------

  /// Agreed outcome of the flooding protocol: err_bits is OR-merged (any
  /// rank's failure verdict), and_bits AND-merged (MPIX_Comm_agree), dead
  /// OR-merged from the ranks' *input* failure views only — failures
  /// observed during the agreement itself exclude a peer locally but
  /// never enter the decided value, so a last-round detection cannot
  /// split the decision.
  struct FtOutcome {
    std::uint32_t err_bits = 0;
    std::uint32_t and_bits = 0xffffffffu;
    std::vector<std::uint8_t> dead;
  };

  /// Directional failure detector in communicator ranks.
  bool rank_unreachable(rank_t from_comm, rank_t to_comm) const;
  /// Non-ok (kRevoked) when this communicator has been revoked.
  Status ft_entry_check() const;
  /// Whether a public collective should take the FT path (FT configured,
  /// more than one rank, and not already inside a captured FT body).
  bool ft_should_wrap() const;
  /// The guard of every blocking collective (collectives.cpp), the only
  /// place that knows about FT mode: raise an entry error (revoked
  /// communicator); outside FT mode run `body` as is; in FT mode run it
  /// once in capture mode (p2p failures are recorded, not thrown), then
  /// agree uniformly on the outcome and raise an agreed failure.
  template <class Body>
  Status ft_guard(Body&& body);
  /// The nonblocking entry points' prologue (coll_schedule.cpp): the
  /// request decided at initiation, or none when the schedule should run.
  /// An entry error completes it with that error; a single rank or FT
  /// mode runs `blocking`, the blocking form, and completes it with that
  /// outcome.
  template <class Blocking>
  std::optional<Request> icoll_decided(Blocking&& blocking);
  /// The survivable binomial multicast: wildcard witness receives,
  /// subtree adoption on dead edges, relay through a live adopted member.
  /// bcast runs it in place of its binomial tree under FT capture.
  void ft_bcast_tree(std::byte* wire, std::size_t bytes, rank_t root);
  /// N-round flooding agreement (FloodSet over the epoch-tagged
  /// collective context).
  FtOutcome ft_agree_internal(int epoch, std::uint32_t err_bits,
                              std::uint32_t and_bits,
                              const std::vector<std::uint8_t>& dead_in);

  /// Pack the send buffer if needed; returns a span over either the user
  /// buffer (contiguous) or `staging`.
  byte_span pack_for_send(const void* buf, int count, const Datatype& type,
                          std::vector<std::byte>& staging) const;

  std::shared_ptr<Shared> shared_;
  rank_t rank_ = kInvalidRank;
};

/// Session-setup auto-tuner (MADMPI_COLL_TUNE): collectively micro-probe
/// the candidate algorithms on `world`, elect winners per collective per
/// size class and install the decision table on the runtime. Must be
/// called by every world rank (it is a collective). coll_tuner.cpp.
void tune_collectives(Comm world);

}  // namespace madmpi::mpi
