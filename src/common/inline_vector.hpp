// A vector whose first N elements live inside the object: the common short
// case costs no heap block, and a longer run moves into one heap vector
// whole, so the elements always read as one contiguous span.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace madmpi {

template <typename T, std::size_t N>
class InlineVector {
 public:
  InlineVector() = default;
  InlineVector(InlineVector&& other) noexcept
      : count_(other.count_), spill_(std::move(other.spill_)) {
    if (spill_.empty()) {
      for (std::size_t i = 0; i < count_; ++i) {
        inline_[i] = std::move(other.inline_[i]);
      }
    }
    other.count_ = 0;
    other.spill_.clear();
  }
  InlineVector& operator=(InlineVector&&) = delete;
  InlineVector(const InlineVector&) = delete;
  InlineVector& operator=(const InlineVector&) = delete;

  void push_back(T value) {
    if (spill_.empty() && count_ < N) {
      inline_[count_++] = std::move(value);
      return;
    }
    if (spill_.empty()) {
      spill_.reserve(2 * N);
      for (std::size_t i = 0; i < count_; ++i) {
        spill_.push_back(std::move(inline_[i]));
        inline_[i] = T{};
      }
    }
    spill_.push_back(std::move(value));
    ++count_;
  }

  std::size_t size() const { return count_; }
  std::span<const T> span() const {
    if (!spill_.empty()) return spill_;
    return {inline_.data(), count_};
  }

 private:
  std::array<T, N> inline_{};
  std::size_t count_ = 0;
  std::vector<T> spill_;
};

}  // namespace madmpi
