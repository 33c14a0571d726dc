// Pooled slab allocator and refcounted chunk views: the zero-copy
// datapath's memory subsystem.
//
// A Slab is one heap allocation drawn from a size-classed pool; a ChunkRef
// is a refcounted [offset, length) view of a slab that layers hand to each
// other without copying. A sim::Frame carries a ChunkList (scatter-gather
// list of ChunkRefs, iovec-style), so an eager message's EXPRESS header
// and CHEAPER body travel as two references to the same pooled slab
// instead of three successive vector copies. Refcounts are what make the
// fault/retransmit path safe: a frame may be re-sent after its sender has
// moved on, and every copy of the frame just bumps the slab refcount.
//
// A *lent* chunk (ChunkRef::lend) views caller memory instead of a pooled
// slab: the pool never frees it, and a release hook tells the lender when
// the last reference dropped. The rendezvous data push lends the sender's
// buffer to the wire this way and completes the send from that hook.
//
// A released pooled slab always goes back to its class's free list, so a
// class never caches more slabs than it once had outstanding at the same
// time, plus the spares of its last refill; trim() hands the cache back to
// the heap.
//
// Env knob (read once, at pool construction):
//   MADMPI_SLAB_DISABLE=1      every acquire is a one-off heap allocation
//                              (fallback path; pooling off, for debugging)
// The largest pooled slab (256 KB; bigger requests fall back to one-off
// heap allocations that are never cached) and the slabs carved per cache
// miss (8) are Options fields only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace madmpi {

class SlabPool;

namespace detail {
struct SlabPoolCore;
}

/// One pooled (or one-off fallback, or lent) buffer. Refcounted; reaching
/// zero returns the slab to its pool's free list (or frees it, for fallback
/// slabs, or runs the lender's hook, for lent memory).
/// Slabs outlive their SlabPool object: each live pooled slab keeps the
/// pool core alive via a shared_ptr.
class Slab {
 public:
  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t capacity() const { return capacity_; }

  void add_ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  /// Drop one reference; recycles or frees the slab at zero. The caller's
  /// pointer is dead after this call.
  void release();

  std::uint32_t refs() const { return refs_.load(std::memory_order_relaxed); }
  /// True for one-off heap slabs (pool disabled or oversize request).
  bool fallback() const { return size_class_ == kFallbackClass; }
  /// True for caller memory lent through ChunkRef::lend.
  bool lent() const { return size_class_ == kLentClass; }

 private:
  friend struct detail::SlabPoolCore;
  friend class ChunkRef;
  static constexpr int kFallbackClass = -1;
  static constexpr int kLentClass = -2;

  Slab(std::size_t capacity, int size_class);
  Slab(byte_span lent, std::function<void()> on_release);

  std::unique_ptr<std::byte[]> mem_;  // null for lent memory
  std::byte* data_;
  std::size_t capacity_;
  int size_class_;  // negative = never cached (fallback or lent)
  std::atomic<std::uint32_t> refs_;
  std::shared_ptr<detail::SlabPoolCore> core_;  // null while cached/fallback
  std::function<void()> on_release_;            // lent memory only
};

/// A refcounted view of `length` bytes at `offset` inside a slab. Copying a
/// ChunkRef bumps the slab refcount; destroying it releases. The default
/// constructed ref is empty (no slab, zero length).
class ChunkRef {
 public:
  ChunkRef() = default;
  /// View over an existing reference: bumps the refcount.
  ChunkRef(Slab* slab, std::size_t offset, std::size_t length)
      : slab_(slab), offset_(offset), length_(length) {
    if (slab_ != nullptr) slab_->add_ref();
  }
  /// Takes ownership of one reference the caller already holds (no bump).
  static ChunkRef adopt(Slab* slab, std::size_t offset, std::size_t length) {
    ChunkRef ref;
    ref.slab_ = slab;
    ref.offset_ = offset;
    ref.length_ = length;
    return ref;
  }
  /// Lend caller memory to the datapath without copying it. Copies and
  /// subchunks share it like any slab; nothing ever frees or writes it.
  /// `on_release` runs exactly once, on whichever thread drops the last
  /// reference; the memory must stay valid and unchanged until then. The
  /// ref is non-null even for zero bytes, so the hook always runs.
  static ChunkRef lend(byte_span bytes, std::function<void()> on_release);

  ChunkRef(const ChunkRef& other)
      : slab_(other.slab_), offset_(other.offset_), length_(other.length_) {
    if (slab_ != nullptr) slab_->add_ref();
  }
  ChunkRef(ChunkRef&& other) noexcept
      : slab_(other.slab_), offset_(other.offset_), length_(other.length_) {
    other.slab_ = nullptr;
    other.length_ = 0;
  }
  ChunkRef& operator=(const ChunkRef& other) {
    if (this != &other) {
      if (other.slab_ != nullptr) other.slab_->add_ref();
      reset();
      slab_ = other.slab_;
      offset_ = other.offset_;
      length_ = other.length_;
    }
    return *this;
  }
  ChunkRef& operator=(ChunkRef&& other) noexcept {
    if (this != &other) {
      reset();
      slab_ = other.slab_;
      offset_ = other.offset_;
      length_ = other.length_;
      other.slab_ = nullptr;
      other.length_ = 0;
    }
    return *this;
  }
  ~ChunkRef() { reset(); }

  void reset() {
    if (slab_ != nullptr) slab_->release();
    slab_ = nullptr;
    offset_ = 0;
    length_ = 0;
  }

  explicit operator bool() const { return slab_ != nullptr; }
  bool empty() const { return length_ == 0; }
  std::size_t size() const { return length_; }
  const std::byte* data() const {
    return slab_ == nullptr ? nullptr : slab_->data() + offset_;
  }
  /// Mutable access: only sound while the caller knows no other reference
  /// reads these bytes concurrently (e.g. the delivered copy of a frame).
  /// Never for lent memory, which belongs to the lender.
  std::byte* mutable_data() {
    if (slab_ == nullptr) return nullptr;
    MADMPI_CHECK_MSG(!slab_->lent(), "write into lent memory");
    return slab_->data() + offset_;
  }
  byte_span span() const { return {data(), length_}; }

  /// A view of a sub-range (bumps the refcount).
  ChunkRef subchunk(std::size_t offset, std::size_t length) const {
    MADMPI_CHECK_MSG(offset + length <= length_, "subchunk out of range");
    return ChunkRef(slab_, offset_ + offset, length);
  }

  Slab* slab() const { return slab_; }
  std::size_t offset() const { return offset_; }

 private:
  Slab* slab_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t length_ = 0;
};

/// Pool counters (per pool; DatapathStats aggregates globally).
struct SlabPoolStats {
  std::uint64_t fresh_allocs = 0;  // new heap slabs carved
  std::uint64_t reuses = 0;        // acquisitions served from the cache
  std::uint64_t fallbacks = 0;     // one-off allocations (disabled/oversize)
  std::size_t outstanding_bytes = 0;   // pooled bytes currently referenced
  std::size_t high_water_bytes = 0;    // max of outstanding_bytes ever seen
  std::size_t cached_slabs = 0;        // free slabs parked across classes
};

/// Size-classed slab pool. Classes are 64 << k bytes; requests above the
/// largest class (or with pooling disabled) fall back to one-off heap
/// slabs. Thread-safe; chunks may outlive the pool object.
class SlabPool {
 public:
  struct Options {
    bool disabled = false;
    std::size_t max_slab_bytes = 256 * 1024;
    /// Slabs carved per cache miss (1 handed out, the rest cached): keeps
    /// concurrency spikes off the heap after the class's first touch.
    std::size_t refill_batch = 8;
    static Options from_env();
  };

  explicit SlabPool(Options options = Options::from_env());
  ~SlabPool();
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// A slab of at least `min_bytes` capacity with one reference held by the
  /// caller (pair with Slab::release() or wrap via ChunkRef::adopt).
  Slab* acquire(std::size_t min_bytes);

  /// An exact-length chunk (uninitialized bytes).
  ChunkRef allocate(std::size_t bytes);

  /// Allocate + copy: stages caller bytes into a pooled chunk. This is a
  /// real staging copy, so it is charged to the bytes-copied metric.
  ChunkRef stage(const void* data, std::size_t bytes);
  ChunkRef stage(byte_span data) { return stage(data.data(), data.size()); }

  SlabPoolStats stats() const;
  const Options& options() const;
  /// Drop every cached free slab (outstanding chunks are unaffected).
  void trim();

  /// Process-wide pool used by compat paths and layers without a channel.
  static SlabPool& global();

 private:
  std::shared_ptr<detail::SlabPoolCore> core_;
};

/// Scatter-gather payload: an ordered list of chunk references (iovec
/// style). Small inline capacity covers the common header+body pair
/// without a heap node. Also provides the small vector-compat surface
/// (resize/assign/data) legacy frame producers use — those route through
/// SlabPool::global() as a single chunk.
class ChunkList {
 public:
  ChunkList() = default;
  /// Copying bumps every segment's slab refcount (frame retransmission).
  ChunkList(const ChunkList&) = default;
  ChunkList& operator=(const ChunkList&) = default;
  ChunkList(ChunkList&& other) noexcept
      : count_(other.count_),
        spill_(std::move(other.spill_)),
        total_(other.total_) {
    for (std::size_t i = 0; i < count_; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
    other.count_ = 0;
    other.total_ = 0;
  }
  ChunkList& operator=(ChunkList&& other) noexcept {
    if (this != &other) {
      clear();
      count_ = other.count_;
      spill_ = std::move(other.spill_);
      total_ = other.total_;
      for (std::size_t i = 0; i < count_; ++i) {
        inline_[i] = std::move(other.inline_[i]);
      }
      other.count_ = 0;
      other.total_ = 0;
    }
    return *this;
  }

  void push_back(ChunkRef chunk) {
    if (chunk.empty()) return;
    total_ += chunk.size();
    if (count_ < kInline) {
      inline_[count_++] = std::move(chunk);
    } else {
      spill_.push_back(std::move(chunk));
    }
  }

  void clear() {
    for (std::size_t i = 0; i < count_; ++i) inline_[i].reset();
    count_ = 0;
    spill_.clear();
    total_ = 0;
  }

  std::size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }

  std::size_t segment_count() const { return count_ + spill_.size(); }
  const ChunkRef& segment(std::size_t i) const {
    return i < count_ ? inline_[i] : spill_[i - count_];
  }

  /// True when the segments form one unbroken run of slab memory (adjacent
  /// views of the same slab coalesce — the header+body pair case).
  bool is_contiguous() const;
  /// The joined span; aborts when not contiguous.
  byte_span contiguous() const;

  const std::byte* data() const { return contiguous().data(); }
  std::byte* data();

  /// A refcounted view of [offset, offset+length): must fall inside one
  /// contiguous run.
  ChunkRef slice(std::size_t offset, std::size_t length) const;

  // ---- vector-compat surface (single pooled chunk) ----
  void resize(std::size_t bytes);                    // zero-filled
  void assign(const void* data, std::size_t bytes);  // copy in
  template <typename It>
  void assign(It first, It last) {
    const std::size_t n = static_cast<std::size_t>(last - first);
    assign(n == 0 ? nullptr : &*first, n);
  }

 private:
  static constexpr std::size_t kInline = 2;
  ChunkRef inline_[kInline];
  std::size_t count_ = 0;
  std::vector<ChunkRef> spill_;
  std::size_t total_ = 0;
};

/// Builds a message's control region directly in one pooled slab (the
/// ByteWriter replacement for the hot path). Append-only; chunk views must
/// be taken only after the last append (a regrow-by-copy would otherwise
/// leave earlier views on the retired slab).
class ChunkWriter {
 public:
  static constexpr std::size_t kDefaultReserve = 4096;

  explicit ChunkWriter(SlabPool& pool, std::size_t reserve = kDefaultReserve)
      : pool_(&pool), reserve_(reserve == 0 ? kDefaultReserve : reserve) {}
  ~ChunkWriter() {
    if (slab_ != nullptr) slab_->release();
  }
  ChunkWriter(const ChunkWriter&) = delete;
  ChunkWriter& operator=(const ChunkWriter&) = delete;
  ChunkWriter(ChunkWriter&& other) noexcept
      : pool_(other.pool_),
        reserve_(other.reserve_),
        slab_(other.slab_),
        pos_(other.pos_) {
    other.slab_ = nullptr;
    other.pos_ = 0;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    append(&value, sizeof value);
  }

  void append(const void* data, std::size_t size);
  void append(byte_span data) { append(data.data(), data.size()); }

  std::size_t position() const { return pos_; }
  byte_span span() const {
    return {slab_ == nullptr ? nullptr : slab_->data(), pos_};
  }

  /// Refcounted view of an already-written range.
  ChunkRef chunk(std::size_t offset, std::size_t length) const {
    MADMPI_CHECK_MSG(offset + length <= pos_, "chunk range not yet written");
    return ChunkRef(slab_, offset, length);
  }
  ChunkRef take_all() const { return chunk(0, pos_); }

 private:
  void ensure(std::size_t more);

  SlabPool* pool_;
  std::size_t reserve_;
  Slab* slab_ = nullptr;
  std::size_t pos_ = 0;
};

}  // namespace madmpi
