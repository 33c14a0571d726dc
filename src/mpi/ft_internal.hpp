// Internal: per-rank capture state of the fault-tolerant collectives.
// Included by collectives.cpp, coll_schedule.cpp and ft_collectives.cpp
// only.
//
// While a rank runs a collective body in capture mode, the collective p2p
// helpers record the first failure and *continue* instead of unwinding —
// every planned send is attempted and every receive either matches, is
// cancelled by the watchdog (dead peer) or gives up at its deadline. No
// rank aborts the algorithm early, so no peer is left waiting on a hop
// that will never be posted; the recorded verdicts then feed the uniform
// agreement protocol.
#pragma once

#include "common/status.hpp"

namespace madmpi::mpi::ft {

/// True while the current rank runs a captured collective body.
bool capture_active();
/// Enter capture mode for the collective epoch `epoch`.
void begin_capture(int epoch);
/// Leave capture mode; returns the first recorded failure (kOk if clean).
ErrorCode end_capture();
/// Record a failure (first one wins; no-op outside capture mode).
void record(ErrorCode code);
/// Epoch of the active capture (undefined outside capture mode).
int capture_epoch();

/// Epoch-unique retagging of the classic collective tags while capturing:
/// stragglers of a failed collective (messages a rank skipped receiving)
/// can then never match the next collective's receives — they age out in
/// the unexpected store instead (a small bounded leak under faults).
/// Tags at or above the FT ranges pass through unchanged.
int remap_tag(int tag);

/// Tag of the survivable bcast's data messages for `epoch`.
int bcast_tag(int epoch);
/// Tag of agreement round `round` for `epoch`.
int agree_tag(int epoch, int round);

}  // namespace madmpi::mpi::ft
