#include "common/slab_pool.hpp"

#include <cstring>

#include "common/datapath_stats.hpp"
#include "common/env.hpp"

namespace madmpi {

namespace detail {

namespace {

std::size_t class_capacity(int size_class) {
  return std::size_t{64} << size_class;
}

int class_for(std::size_t bytes, std::size_t max_slab_bytes) {
  if (bytes > max_slab_bytes) return -1;
  int k = 0;
  while (class_capacity(k) < bytes) ++k;
  return k;
}

}  // namespace

struct SlabPoolCore {
  explicit SlabPoolCore(SlabPool::Options opts) : options(opts) {
    int classes = 0;
    while (class_capacity(classes) < options.max_slab_bytes) ++classes;
    free_lists.resize(static_cast<std::size_t>(classes) + 1);
  }

  ~SlabPoolCore() {
    for (auto& list : free_lists) {
      for (Slab* slab : list) delete slab;
    }
  }

  Slab* acquire(std::size_t min_bytes,
                const std::shared_ptr<SlabPoolCore>& self) {
    auto& dp = DatapathStats::global();
    const int cls =
        options.disabled ? -1 : class_for(min_bytes, options.max_slab_bytes);
    if (cls < 0) {
      // Exhausted the pooled classes (or pooling disabled): one-off heap
      // slab, freed on release, never cached.
      dp.count_slab_fallback();
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++stats.fallbacks;
      }
      return new Slab(min_bytes == 0 ? 1 : min_bytes, Slab::kFallbackClass);
    }
    const std::size_t capacity = class_capacity(cls);
    Slab* slab = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex);
      auto& list = free_lists[static_cast<std::size_t>(cls)];
      if (!list.empty()) {
        slab = list.back();
        list.pop_back();
        ++stats.reuses;
      } else {
        ++stats.fresh_allocs;
      }
      stats.outstanding_bytes += capacity;
      if (stats.outstanding_bytes > stats.high_water_bytes) {
        stats.high_water_bytes = stats.outstanding_bytes;
      }
    }
    if (slab == nullptr) {
      dp.count_slab_alloc();
      slab = new Slab(capacity, cls);
      // Batch refill: a cache miss means demand for this class just grew,
      // so carve a few spares into the free list now. A later concurrency
      // spike (one more slab of the class alive at once than ever before)
      // then hits the cache instead of the heap mid-run — first-touch cost
      // stays confined to warm-up.
      std::size_t extras =
          options.refill_batch > 1 ? options.refill_batch - 1 : 0;
      if (extras != 0) {
        std::lock_guard<std::mutex> lock(mutex);
        auto& list = free_lists[static_cast<std::size_t>(cls)];
        while (extras-- > 0) {
          ++stats.fresh_allocs;
          dp.count_slab_alloc();
          list.push_back(new Slab(capacity, cls));
        }
      }
    } else {
      dp.count_slab_reuse();
      slab->refs_.store(1, std::memory_order_relaxed);
    }
    slab->core_ = self;  // keeps the pool core alive while referenced
    return slab;
  }

  /// Called by Slab::release at refcount zero; `self` is the core
  /// reference the slab held (moved out before the call so a cached slab
  /// does not keep the core alive in a cycle).
  void recycle(Slab* slab) {
    std::lock_guard<std::mutex> lock(mutex);
    stats.outstanding_bytes -= std::min(stats.outstanding_bytes,
                                        slab->capacity());
    free_lists[static_cast<std::size_t>(slab->size_class_)].push_back(slab);
  }

  const SlabPool::Options options;
  std::mutex mutex;
  std::vector<std::vector<Slab*>> free_lists;
  SlabPoolStats stats;
};

}  // namespace detail

Slab::Slab(std::size_t capacity, int size_class)
    : mem_(new std::byte[capacity]),
      data_(mem_.get()),
      capacity_(capacity),
      size_class_(size_class),
      refs_(1) {}

Slab::Slab(byte_span lent, std::function<void()> on_release)
    : data_(const_cast<std::byte*>(lent.data())),
      capacity_(lent.size()),
      size_class_(kLentClass),
      refs_(1),
      on_release_(std::move(on_release)) {}

void Slab::release() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (lent()) {
    // The memory is the lender's: drop the view, then hand the memory back.
    std::function<void()> on_release = std::move(on_release_);
    delete this;
    on_release();
    return;
  }
  // Move the core reference to a local first: recycle() must not run under
  // a core the slab itself is keeping alive (destroying the last reference
  // while its mutex is held would be use-after-free).
  std::shared_ptr<detail::SlabPoolCore> core = std::move(core_);
  if (core == nullptr || fallback()) {
    delete this;
    return;
  }
  core->recycle(this);
}

SlabPool::Options SlabPool::Options::from_env() {
  Options options;
  options.disabled = env_flag("MADMPI_SLAB_DISABLE", options.disabled);
  return options;
}

SlabPool::SlabPool(Options options)
    : core_(std::make_shared<detail::SlabPoolCore>(options)) {}

SlabPool::~SlabPool() = default;  // outstanding chunks keep core_ alive

Slab* SlabPool::acquire(std::size_t min_bytes) {
  return core_->acquire(min_bytes, core_);
}

ChunkRef SlabPool::allocate(std::size_t bytes) {
  if (bytes == 0) return {};
  return ChunkRef::adopt(acquire(bytes), 0, bytes);
}

ChunkRef SlabPool::stage(const void* data, std::size_t bytes) {
  ChunkRef chunk = allocate(bytes);
  if (bytes != 0) {
    std::memcpy(chunk.mutable_data(), data, bytes);
    count_real_copy(bytes);
  }
  return chunk;
}

SlabPoolStats SlabPool::stats() const {
  std::lock_guard<std::mutex> lock(core_->mutex);
  SlabPoolStats out = core_->stats;
  out.cached_slabs = 0;
  for (const auto& list : core_->free_lists) out.cached_slabs += list.size();
  return out;
}

const SlabPool::Options& SlabPool::options() const { return core_->options; }

void SlabPool::trim() {
  std::vector<Slab*> victims;
  {
    std::lock_guard<std::mutex> lock(core_->mutex);
    for (auto& list : core_->free_lists) {
      victims.insert(victims.end(), list.begin(), list.end());
      list.clear();
    }
  }
  for (Slab* slab : victims) delete slab;
}

SlabPool& SlabPool::global() {
  static SlabPool* pool = new SlabPool();  // leaked: outlives all users
  return *pool;
}

ChunkRef ChunkRef::lend(byte_span bytes, std::function<void()> on_release) {
  MADMPI_CHECK_MSG(on_release != nullptr, "lent memory needs a release hook");
  return adopt(new Slab(bytes, std::move(on_release)), 0, bytes.size());
}

// ------------------------------------------------------------- ChunkList

bool ChunkList::is_contiguous() const {
  const std::size_t segments = segment_count();
  for (std::size_t i = 1; i < segments; ++i) {
    const ChunkRef& prev = segment(i - 1);
    const ChunkRef& cur = segment(i);
    if (cur.slab() != prev.slab() ||
        cur.offset() != prev.offset() + prev.size()) {
      return false;
    }
  }
  return true;
}

byte_span ChunkList::contiguous() const {
  if (segment_count() == 0) return {};
  MADMPI_CHECK_MSG(is_contiguous(),
                   "scatter-gather payload read as a flat span");
  return {segment(0).data(), total_};
}

std::byte* ChunkList::data() {
  if (segment_count() == 0) return nullptr;
  MADMPI_CHECK_MSG(is_contiguous(),
                   "scatter-gather payload read as a flat span");
  return inline_[0].mutable_data();
}

ChunkRef ChunkList::slice(std::size_t offset, std::size_t length) const {
  MADMPI_CHECK_MSG(offset + length <= total_, "payload slice out of range");
  if (length == 0) return {};
  // Find the segment holding `offset`, then extend across the coalesced
  // run (adjacent views of the same slab are one region of memory).
  const std::size_t segments = segment_count();
  std::size_t base = 0;
  for (std::size_t i = 0; i < segments; ++i) {
    const ChunkRef& seg = segment(i);
    if (offset < base + seg.size()) {
      std::size_t run = seg.size() - (offset - base);
      for (std::size_t j = i + 1; j < segments && run < length; ++j) {
        const ChunkRef& next = segment(j);
        const ChunkRef& prev = segment(j - 1);
        if (next.slab() != prev.slab() ||
            next.offset() != prev.offset() + prev.size()) {
          break;
        }
        run += next.size();
      }
      MADMPI_CHECK_MSG(length <= run,
                       "payload slice crosses a scatter-gather break");
      return ChunkRef(seg.slab(), seg.offset() + (offset - base), length);
    }
    base += seg.size();
  }
  return {};
}

void ChunkList::resize(std::size_t bytes) {
  clear();
  if (bytes == 0) return;
  ChunkRef chunk = SlabPool::global().allocate(bytes);
  std::memset(chunk.mutable_data(), 0, bytes);
  push_back(std::move(chunk));
}

void ChunkList::assign(const void* data, std::size_t bytes) {
  clear();
  if (bytes == 0) return;
  push_back(SlabPool::global().stage(data, bytes));
}

// ------------------------------------------------------------ ChunkWriter

void ChunkWriter::ensure(std::size_t more) {
  if (slab_ != nullptr && pos_ + more <= slab_->capacity()) return;
  std::size_t want = pos_ + more;
  if (want < reserve_) want = reserve_;
  if (slab_ != nullptr && want < slab_->capacity() * 2) {
    want = slab_->capacity() * 2;
  }
  Slab* bigger = pool_->acquire(want);
  if (slab_ != nullptr) {
    // Regrow by copy. Rare by construction (the reserve covers control
    // frames); counted, since it is a real staging copy.
    if (pos_ != 0) {
      std::memcpy(bigger->data(), slab_->data(), pos_);
      count_real_copy(pos_);
    }
    slab_->release();
  }
  slab_ = bigger;
}

void ChunkWriter::append(const void* data, std::size_t size) {
  if (size == 0) return;
  ensure(size);
  std::memcpy(slab_->data() + pos_, data, size);
  pos_ += size;
}

}  // namespace madmpi
