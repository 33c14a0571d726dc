// MPI-level vocabulary: wildcards, message envelopes, status objects.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "common/types.hpp"

namespace madmpi::mpi {

/// Wildcards (values chosen to never collide with valid ranks/tags).
inline constexpr rank_t kAnySource = -2;
inline constexpr int kAnyTag = -1;

/// Highest tag value the implementation guarantees (MPI_TAG_UB).
inline constexpr int kTagUpperBound = (1 << 22) - 1;

/// The message envelope: what matching operates on. `src`/`dst` are ranks
/// within the communicator identified by `context`.
struct Envelope {
  int context = 0;
  rank_t src = kInvalidRank;
  rank_t dst = kInvalidRank;
  int tag = 0;
  std::uint64_t bytes = 0;     // payload size after datatype packing
  bool synchronous = false;    // MPI_Ssend: completion needs the rendezvous
  /// Wire byte order: true when the sender transmits big-endian data. The
  /// receiver converts when its own order differs (receiver-makes-right).
  bool sender_big_endian = false;
};

/// MPI_Get_count semantics, shared by MpiStatus::count() and the C facade
/// so both layers agree on the edge cases: an empty message always counts
/// zero elements — even of a zero-size (empty derived) datatype — while a
/// non-empty message that does not divide into whole elements is
/// MPI_UNDEFINED, returned here as -1.
constexpr std::int64_t element_count(std::uint64_t bytes,
                                     std::size_t type_size) {
  if (bytes == 0) return 0;
  if (type_size == 0 || bytes % type_size != 0) return -1;
  return static_cast<std::int64_t>(bytes / type_size);
}

/// Result of a completed receive (MPI_Status equivalent).
struct MpiStatus {
  rank_t source = kInvalidRank;
  int tag = kAnyTag;
  std::uint64_t bytes = 0;

  /// Per-operation error (MPI_Status.MPI_ERROR equivalent). kTruncated
  /// when the message was longer than the posted buffer and only a prefix
  /// was delivered; `bytes` then counts the delivered prefix.
  ErrorCode error = ErrorCode::kOk;

  /// MPI_Get_count: number of `type_size`-byte elements, or -1
  /// (MPI_UNDEFINED) when the byte count does not divide into whole
  /// elements (element_count holds the shared edge-case rules).
  std::int64_t count(std::size_t type_size) const {
    return element_count(bytes, type_size);
  }

  /// A send's completion status: peer and tag from its envelope, never
  /// truncation (that is receiver-local).
  static MpiStatus of_send(const Envelope& env, ErrorCode error) {
    return {env.dst, env.tag, env.bytes, error};
  }
};

/// Transfer protocol selected by the ADI for one message (paper §2.2.1:
/// short/eager/rendez-vous; ch_mad merges short into eager, §4.2.1).
enum class TransferMode {
  kEager,       // data travels immediately, bounce copy on the receiver
  kRendezvous,  // request/ack handshake, zero-copy data
};

}  // namespace madmpi::mpi
