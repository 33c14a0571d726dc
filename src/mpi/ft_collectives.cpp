// Fault-tolerant collectives: survivable multicast, uniform error
// agreement, and the ULFM-flavored revoke/shrink/agree recovery API.
//
// Three layers (DESIGN.md §9):
//
//  1. Survivable algorithms — the FT bcast runs an "adoption" binomial
//     tree: every non-root posts a wildcard receive (witnessed by the
//     root, deadline-bounded), and a sender whose edge to a child is dead
//     serves the child's whole subtree directly, asking the first
//     reachable adopted member to relay the payload to the child itself.
//     A dead rank or link re-routes the data through live peers; latency
//     degrades, correctness does not.
//
//  2. Uniform error agreement — after the (captured) data phase, every
//     rank floods its local verdict for size() rounds (FloodSet). The
//     decision ORs the *data-phase* verdicts only; failures observed
//     during the agreement exclude a peer from further receives but never
//     enter the decided value, so a detection in the last round cannot
//     split the outcome. With the fault-plan oracle as a perfect monotone
//     detector for kills, every live rank decides the same value; the
//     receive deadlines bound the remaining adversarial schedules.
//
//  3. Recovery — revoke() poisons the communicator everywhere and cancels
//     blocked peers; shrink() agrees on the dead set and rebuilds a
//     communicator over the survivors; agree() is the uniform AND.
#include <cstring>
#include <string>

#include "common/env.hpp"
#include "marcel/engine.hpp"
#include "mpi/comm.hpp"
#include "mpi/comm_shared.hpp"
#include "mpi/ft_internal.hpp"

namespace madmpi::mpi {

namespace ft {

namespace {

// Tag ranges, disjoint from the classic per-algorithm tags (1..8) and
// from each other. Epochs wrap within each range; a collision needs a
// straggler surviving thousands of collectives, which the unexpected
// store does not.
constexpr int kFtTagFloor = 1 << 20;
constexpr int kClassicBase = 1 << 20;   // + (epoch % 4096) * 16 + tag
constexpr int kBcastBase = 1 << 21;     // + (epoch % 4096)
constexpr int kAgreeBase = 1 << 22;     // + (epoch % 4096) * 256 + round

struct CaptureState {
  bool active = false;
  ErrorCode first = ErrorCode::kOk;
  int epoch = 0;
};

thread_local CaptureState t_capture;

void destroy_capture_state(void* p) { delete static_cast<CaptureState*>(p); }

// Per-rank capture state: a thread_local under the threaded engine, the
// fiber's local slot under the sharded one — fibers from several ranks
// share each shard worker's OS thread, so a plain thread_local would mix
// one rank's captured verdicts (and epoch) into another's agreement.
CaptureState& capture() {
  if (void** slot = marcel::fiber_local_slot(marcel::kFiberSlotFtCapture,
                                             &destroy_capture_state)) {
    if (*slot == nullptr) *slot = new CaptureState{};
    return *static_cast<CaptureState*>(*slot);
  }
  return t_capture;
}

}  // namespace

bool capture_active() { return capture().active; }

void begin_capture(int epoch) {
  CaptureState& state = capture();
  state.active = true;
  state.first = ErrorCode::kOk;
  state.epoch = epoch;
}

ErrorCode end_capture() {
  CaptureState& state = capture();
  const ErrorCode first = state.first;
  state = CaptureState{};
  return first;
}

void record(ErrorCode code) {
  CaptureState& state = capture();
  if (state.active && code != ErrorCode::kOk &&
      state.first == ErrorCode::kOk) {
    state.first = code;
  }
}

int capture_epoch() { return capture().epoch; }

int remap_tag(int tag) {
  const CaptureState& state = capture();
  if (!state.active || tag >= kFtTagFloor) return tag;
  return kClassicBase + (state.epoch & 0xfff) * 16 + tag;
}

int bcast_tag(int epoch) { return kBcastBase + (epoch & 0xfff); }

int agree_tag(int epoch, int round) {
  return kAgreeBase + (epoch & 0xfff) * 256 + round;
}

}  // namespace ft

bool ft_collectives_default() {
  static const bool value = env_flag("MADMPI_FT_COLLECTIVES", false);
  return value;
}

usec_t ft_agree_timeout_default() { return 1.0e6; }

namespace {

// Survivable-bcast frame: [mode u8][pad u8 x3][relay target u32 LE]
// followed by the payload. Serialized explicitly so heterogeneous nodes
// agree on the layout.
constexpr std::size_t kBcastHeader = 8;

enum FtBcastMode : std::uint8_t {
  kModeData = 1,          // forward to your subtree per the binomial tree
  kModeLeaf = 2,          // adopted: your subtree is already served
  kModeLeafAndRelay = 3,  // adopted, and forward a kModeLeaf copy to target
};

void put_u32le(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

std::uint32_t get_u32le(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

// Agreement frame:
//   [err_bits u32 LE][and_bits u32 LE][flags u8][dead u8 x n]
// flags bit 0: the sender's previous round was *complete and clean* — it
// received an input frame from every peer (nothing excluded, no receive
// errors) and the merged state carried no error or death evidence. The
// bit drives early termination (see ft_agree_internal).
constexpr std::size_t kAgreeHeader = 9;
constexpr std::uint8_t kFlagPrevRoundClean = 0x1;

}  // namespace

bool Comm::rank_unreachable(rank_t from_comm, rank_t to_comm) const {
  if (from_comm == to_comm) return false;
  return shared_->runtime->peer_unreachable(global_rank_of(from_comm),
                                            global_rank_of(to_comm));
}

Status Comm::ft_entry_check() const {
  if (shared_->runtime->context_revoked(shared_->context)) {
    return Status(ErrorCode::kRevoked, "communicator has been revoked");
  }
  return Status::ok();
}

bool Comm::ft_should_wrap() const {
  return size() > 1 && !ft::capture_active() &&
         collective_config().fault_tolerant;
}

void Comm::ft_bcast_tree(std::byte* wire, std::size_t bytes, rank_t root) {
  const int n = size();
  const int vrank = (rank_ - root + n) % n;
  const int tag = ft::bcast_tag(ft::capture_epoch());
  const usec_t timeout = collective_config().agree_timeout_us;
  auto to_rank = [&](int v) { return static_cast<rank_t>((v + root) % n); };

  std::vector<std::byte> frame(kBcastHeader + bytes);
  // A hop counts as sent only while the detector shows its edge live both
  // before the send (never start a rendezvous handshake with a peer that
  // provably cannot answer) and after it: eager frames are fire-and-
  // forget, so a link killed *while the frame was departing* eats it
  // without any error status. Reporting such a send failed lets the
  // sender re-route; a duplicate delivery (the frame actually made it) is
  // harmless, since adoption is idempotent under the mode byte and
  // stragglers are quarantined by the epoch tag.
  auto send_frame = [&](int v) {
    const rank_t dest = to_rank(v);
    return !rank_unreachable(rank_, dest) &&
           coll_try_send(frame.data(), frame.size(), dest, tag).is_ok() &&
           !rank_unreachable(rank_, dest);
  };

  int mask = 1;
  if (vrank != 0) {
    while (mask < n && !(vrank & mask)) mask <<= 1;

    // Wildcard receive: the data normally comes from the tree parent but
    // adoption may deliver it from any ancestor (or a relaying sibling) —
    // so no witness is set even though the data originates at the root: a
    // dead root->me *link* does not doom this receive while a relay route
    // lives. Only the deadline bounds the wait (a truly dead root stalls
    // the whole session, which is exactly what arms the deadline sweep).
    const MpiStatus status =
        coll_post_recv(frame.data(), frame.size(), kAnySource, tag, timeout)
            ->wait();
    if (status.error != ErrorCode::kOk) {
      // No data reached this rank: the only recv-side verdict of the
      // tree (send-side failures are either covered by adoption or
      // reported by the unserved rank itself — this path).
      ft::record(ErrorCode::kProcFailed);
      return;
    }
    const auto mode = std::to_integer<std::uint8_t>(frame[0]);
    std::memcpy(wire, frame.data() + kBcastHeader, bytes);
    if (mode == kModeLeafAndRelay) {
      const int target_v = static_cast<int>(get_u32le(frame.data() + 4));
      frame[0] = static_cast<std::byte>(kModeLeaf);
      put_u32le(frame.data() + 4, 0);
      // Relay failure is not our verdict: the target is either dead
      // (nothing to report) or will report itself via its deadline.
      send_frame(target_v);
    }
    if (mode != kModeData) return;  // adopted: subtree already served
  } else {
    while (mask < n) mask <<= 1;
  }

  put_u32le(frame.data(), 0);
  put_u32le(frame.data() + 4, 0);
  std::memcpy(frame.data() + kBcastHeader, wire, bytes);

  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vrank + mask >= n) continue;
    const int child_v = vrank + mask;
    frame[0] = static_cast<std::byte>(kModeData);
    put_u32le(frame.data() + 4, 0);
    if (send_frame(child_v)) continue;
    // Dead edge: adopt the child's subtree — every descendant is served
    // directly with kModeLeaf (their own children are also descendants,
    // so nothing further forwards) — and the first member reached is
    // asked to relay the payload to the child itself over its own,
    // possibly live, route.
    const int subtree_end = std::min(child_v + mask, n);
    bool relay_placed = false;
    for (int member_v = child_v + 1; member_v < subtree_end; ++member_v) {
      const bool with_relay = !relay_placed;
      frame[0] = static_cast<std::byte>(with_relay ? kModeLeafAndRelay
                                                   : kModeLeaf);
      put_u32le(frame.data() + 4,
                with_relay ? static_cast<std::uint32_t>(child_v) : 0);
      if (send_frame(member_v) && with_relay) relay_placed = true;
    }
    // No verdict recorded here: a live unserved rank reports itself
    // (witness cancel or deadline), and a dead one has nothing to say —
    // so a bcast that re-routed around a dead rank still *succeeds* on
    // every live rank.
  }
}

Comm::FtOutcome Comm::ft_agree_internal(
    int epoch, std::uint32_t err_bits, std::uint32_t and_bits,
    const std::vector<std::uint8_t>& dead_in) {
  const int n = size();
  MADMPI_CHECK_MSG(n <= 256, "FT agreement supports up to 256 ranks");

  FtOutcome state;
  state.err_bits = err_bits;
  state.and_bits = and_bits;
  state.dead.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < dead_in.size() && i < state.dead.size(); ++i) {
    state.dead[i] = dead_in[i];
  }
  if (n == 1) return state;

  const usec_t timeout = collective_config().agree_timeout_us;
  const std::size_t frame_bytes =
      kAgreeHeader + static_cast<std::size_t>(n);
  std::vector<std::byte> out_frame(frame_bytes);
  std::vector<std::vector<std::byte>> in_frames(
      static_cast<std::size_t>(n));
  std::vector<std::shared_ptr<RequestState>> waits(
      static_cast<std::size_t>(n));
  // Local-only exclusion: peers the detector or a failed agreement
  // receive disqualified. Never merged into the decided dead set.
  std::vector<std::uint8_t> excluded(static_cast<std::size_t>(n), 0);

  // Early termination ("fast agreement"): a round is *complete and clean*
  // when every peer's frame arrived (no exclusions, no receive errors)
  // and the merged state holds no error or death evidence. Each frame of
  // round k reports whether the sender's round k-1 was complete and
  // clean; if my round 1 was, and every round-2 frame arrived carrying
  // the bit, then all n ranks received all n inputs and the inputs were
  // unanimously clean — every rank's merged state is already identical,
  // so rounds 3..n cannot change anything and everyone can stop after
  // round 2. The stopping rule itself is uniform: unclean evidence
  // originates in some round-1 frame, and by round 2 it either reached a
  // rank or made that rank exclude its carrier — both veto the stop.
  // Fault-free this caps the protocol at two small-message rounds
  // regardless of n; any evidence of trouble falls back to the full
  // n-round flood.
  bool prev_round_clean = false;
  for (int round = 0; round < n; ++round) {
    const int tag = ft::agree_tag(epoch, round);
    bool round_complete = true;

    for (int p = 0; p < n; ++p) {
      waits[static_cast<std::size_t>(p)] = nullptr;
      if (p == rank_) continue;
      if (excluded[static_cast<std::size_t>(p)]) {
        round_complete = false;
        continue;
      }
      if (rank_unreachable(p, rank_)) {
        excluded[static_cast<std::size_t>(p)] = 1;
        round_complete = false;
        continue;
      }
      auto& buf = in_frames[static_cast<std::size_t>(p)];
      buf.assign(frame_bytes, std::byte{0});
      waits[static_cast<std::size_t>(p)] = coll_post_recv(
          buf.data(), frame_bytes, static_cast<rank_t>(p), tag, timeout);
    }

    put_u32le(out_frame.data(), state.err_bits);
    put_u32le(out_frame.data() + 4, state.and_bits);
    out_frame[8] =
        static_cast<std::byte>(prev_round_clean ? kFlagPrevRoundClean : 0);
    for (int i = 0; i < n; ++i) {
      out_frame[kAgreeHeader + static_cast<std::size_t>(i)] =
          static_cast<std::byte>(state.dead[static_cast<std::size_t>(i)]);
    }
    // Send to every peer, excluded ones included: exclusion is a local
    // guess, the frame is tiny, and an extra delivery only speeds
    // convergence on the other side. A send the detector proves doomed is
    // skipped; any other failure shows on the peer's side as a missing
    // frame.
    for (int p = 0; p < n; ++p) {
      if (p == rank_ || rank_unreachable(rank_, p)) continue;
      coll_try_send(out_frame.data(), frame_bytes, static_cast<rank_t>(p),
                    tag);
    }

    bool peers_prev_clean = true;
    for (int p = 0; p < n; ++p) {
      auto& wait_state = waits[static_cast<std::size_t>(p)];
      if (!wait_state) continue;
      const MpiStatus status = wait_state->wait();
      if (status.error != ErrorCode::kOk) {
        excluded[static_cast<std::size_t>(p)] = 1;
        round_complete = false;
        continue;
      }
      const auto& buf = in_frames[static_cast<std::size_t>(p)];
      state.err_bits |= get_u32le(buf.data());
      state.and_bits &= get_u32le(buf.data() + 4);
      if (!(std::to_integer<std::uint8_t>(buf[8]) & kFlagPrevRoundClean)) {
        peers_prev_clean = false;
      }
      for (int i = 0; i < n; ++i) {
        state.dead[static_cast<std::size_t>(i)] |=
            std::to_integer<std::uint8_t>(
                buf[kAgreeHeader + static_cast<std::size_t>(i)]);
      }
    }

    bool state_clean = state.err_bits == 0;
    for (int i = 0; i < n && state_clean; ++i) {
      state_clean = state.dead[static_cast<std::size_t>(i)] == 0;
    }
    const bool this_round_clean = round_complete && state_clean;
    // The stop is *lenient* about round-2 exclusions: after a complete
    // and clean round 1 this rank already merged every input, so its
    // decided state equals the full-set value whether or not some peer's
    // round-2 frame arrived — and a peer whose round 1 went wrong says
    // so in the frames it DID deliver (unclean flag), which vetoes the
    // stop. Waiting out an excluded peer here would strand this rank in
    // rounds nobody else runs.
    if (round == 1 && prev_round_clean && state_clean && peers_prev_clean) {
      return state;
    }
    prev_round_clean = this_round_clean;
  }
  return state;
}

// --- ULFM recovery API -------------------------------------------------

Status Comm::revoke() {
  Runtime* runtime = shared_->runtime;
  runtime->revoke_context(shared_->context);
  // Interrupt peers blocked in operations on the revoked communicator
  // (both its p2p and collective contexts); later operations are caught
  // by the entry check.
  for (rank_t p = 0; p < size(); ++p) {
    RankContext& context = runtime->context_of(global_rank_of(p));
    context.cancel_context(shared_->context, ErrorCode::kRevoked);
    context.cancel_context(shared_->context + 1, ErrorCode::kRevoked);
    context.notify_waiters();
  }
  return Status::ok();
}

bool Comm::revoked() const {
  return shared_->runtime->context_revoked(shared_->context);
}

Comm Comm::shrink() {
  const int n = size();
  const int epoch = shared_->next_epoch(rank_);

  // Input view: ranks this one cannot exchange data with, either way.
  std::vector<std::uint8_t> dead(static_cast<std::size_t>(n), 0);
  for (int p = 0; p < n; ++p) {
    if (p == rank_) continue;
    if (rank_unreachable(p, rank_) || rank_unreachable(rank_, p)) {
      dead[static_cast<std::size_t>(p)] = 1;
    }
  }
  const FtOutcome agreed =
      ft_agree_internal(epoch, 0u, 0xffffffffu, dead);

  if (agreed.dead[static_cast<std::size_t>(rank_)]) {
    // The group agreed *this* rank is unreachable (asymmetric partition):
    // it cannot join the survivors' communicator.
    raise_error(Status(ErrorCode::kProcFailed,
                       "shrink: this rank was agreed failed"));
    return Comm();
  }

  std::vector<rank_t> survivors;
  std::uint32_t digest = 2166136261u;  // FNV-1a over the agreed dead set
  rank_t my_new_rank = kInvalidRank;
  for (int p = 0; p < n; ++p) {
    digest = (digest ^ agreed.dead[static_cast<std::size_t>(p)]) *
             16777619u;
    if (!agreed.dead[static_cast<std::size_t>(p)]) {
      if (p == rank_) my_new_rank = static_cast<rank_t>(survivors.size());
      survivors.push_back(shared_->group[static_cast<std::size_t>(p)]);
    }
  }
  MADMPI_CHECK(my_new_rank != kInvalidRank);

  // Every survivor derives the same context (same dead set => same
  // digest; the sequence counters advance in lockstep) — a partition's
  // two sides derive different ones and can never cross-talk.
  const int seq = shared_->next_seq(rank_);
  const std::int64_t key =
      (static_cast<std::int64_t>(seq) << 32) |
      static_cast<std::int64_t>(digest & 0x7fffffffu);
  auto shared = std::make_shared<Shared>();
  shared->runtime = shared_->runtime;
  shared->context = shared_->runtime->derive_context_id(shared_->context,
                                                        key);
  shared->group = std::move(survivors);
  shared->collectives.assign(shared->group.size(), collective_config());
  shared->creation_seq.assign(shared->group.size(), 0);
  shared->errhandlers.assign(shared->group.size(), errhandler());
  return Comm(std::move(shared), my_new_rank);
}

Status Comm::agree(int* flag) {
  MADMPI_CHECK(flag != nullptr);
  const int n = size();
  const int epoch = shared_->next_epoch(rank_);

  std::vector<std::uint8_t> dead(static_cast<std::size_t>(n), 0);
  for (int p = 0; p < n; ++p) {
    if (p == rank_) continue;
    if (rank_unreachable(p, rank_) || rank_unreachable(rank_, p)) {
      dead[static_cast<std::size_t>(p)] = 1;
    }
  }
  const FtOutcome agreed = ft_agree_internal(
      epoch, 0u, static_cast<std::uint32_t>(*flag), dead);
  *flag = static_cast<int>(agreed.and_bits);

  bool any_dead = false;
  for (const std::uint8_t d : agreed.dead) any_dead = any_dead || d != 0;
  if (agreed.err_bits != 0 || any_dead) {
    return raise_error(Status(ErrorCode::kProcFailed,
                              "agree: a participant has failed"));
  }
  return Status::ok();
}

}  // namespace madmpi::mpi
