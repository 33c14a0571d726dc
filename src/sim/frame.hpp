// Wire frames exchanged over simulated circuits.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/slab_pool.hpp"
#include "common/types.hpp"

namespace madmpi::sim {

/// One block of a message as it travels the simulated wire. Drivers may
/// aggregate several user blocks into one frame (TCP) or send one frame per
/// block (zero-copy paths on SISCI/BIP).
struct Frame {
  node_id_t src_node = kInvalidNode;
  node_id_t dst_node = kInvalidNode;

  /// Circuit-local sequence number (debugging / ordering assertions).
  std::uint64_t seq = 0;

  /// Driver-defined frame kind (e.g. control vs data).
  std::uint16_t kind = 0;

  /// Index of the user block within its message, and whether more frames of
  /// the same message follow. Lets receivers reassemble multi-frame messages.
  std::uint16_t block_index = 0;
  bool last_of_message = true;

  /// True when the frame was DMA'd straight into a posted user buffer
  /// (receiver must not charge a bounce-copy for it).
  bool zero_copy = false;

  /// Retransmission attempt (0 = first transmission). Part of the frame
  /// identity for deterministic fault decisions: each retry is an
  /// independent drop trial under a FaultPlan.
  std::uint32_t attempt = 0;

  /// Virtual timestamps stamped by the sending driver / the link.
  usec_t depart_time = 0.0;
  usec_t arrival_time = 0.0;

  /// Scatter-gather payload: refcounted chunk views into pooled slabs.
  /// Copying a frame (retransmission under fault injection) bumps slab
  /// refcounts instead of duplicating bytes.
  ChunkList payload;
};

/// FIFO queue of frames on a ring that keeps its storage: a frame queue in
/// steady state costs no heap allocation per frame (a std::deque churns a
/// node per few frames). Capacity doubles when full and never shrinks.
/// pop_front() moves the frame out and empties the slot's payload at once,
/// so a taken frame's chunk references live exactly as long as the taken
/// frame, never until the slot is reused. Not synchronized: the owner's
/// lock guards it.
class FrameRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  const Frame& front() const { return slots_[head_]; }

  void push_back(Frame frame) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(frame);
    ++count_;
  }

  Frame pop_front() {
    Frame& slot = slots_[head_];
    Frame frame = std::move(slot);
    slot.payload.clear();
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return frame;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  // Re-lays the frames out in order at the start of a ring twice the size
  // (a power of two, so the index wrap is a mask).
  void grow() {
    std::vector<Frame> bigger(slots_.empty() ? kInitialCapacity
                                             : 2 * slots_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Frame> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace madmpi::sim
