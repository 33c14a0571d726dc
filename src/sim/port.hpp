// Receive endpoints of the simulated fabric.
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>

#include "sim/frame.hpp"

namespace madmpi::sim {

/// A Port is an addressable receive queue on a node. Drivers allocate one
/// port per Madeleine channel (or per baseline-device endpoint); all remote
/// peers of that channel deliver into the same port, which preserves
/// per-connection FIFO order (a single queue cannot reorder a source).
class Port {
 public:
  Port() = default;
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Deliver a frame (called by WirePath::transmit).
  void deliver(Frame frame) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      frames_.push_back(std::move(frame));
    }
    available_.notify_all();
  }

  /// Non-blocking take (used by polling loops).
  std::optional<Frame> try_take() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (frames_.empty()) return std::nullopt;
    return frames_.pop_front();
  }

  /// Blocking take; empty optional means the port was closed and drained.
  std::optional<Frame> take_blocking() {
    std::unique_lock<std::mutex> lock(mutex_);
    available_.wait(lock, [this] { return closed_ || !frames_.empty(); });
    if (frames_.empty()) return std::nullopt;
    return frames_.pop_front();
  }

  bool has_frame() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return !frames_.empty();
  }

  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_.size();
  }

  /// Wakes blocked receivers; they drain remaining frames then observe EOF.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    available_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable available_;
  FrameRing frames_;
  bool closed_ = false;
};

}  // namespace madmpi::sim
