// Bounded lock-free single-producer / single-consumer ring buffer — the
// ingest path between a stream's producer thread and its shard worker.
// Classic Lamport queue with cached indices: each side keeps a local copy
// of the other side's index and refreshes it only when the queue looks
// full/empty, so the steady-state cost per element is one relaxed load and
// one release store on one cache line.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/contracts.h"

namespace canids::engine {

/// Smallest power of two >= n (and >= 2, so capacity-1 masks work).
[[nodiscard]] constexpr std::size_t ceil_pow2(std::size_t n) noexcept {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

/// Bounded SPSC FIFO. Exactly one thread may call the push side and one
/// (other) thread the pop side; no locks, no allocation after construction.
/// One slot is sacrificed to distinguish full from empty, so the usable
/// capacity is `capacity() - 1`.
///
/// The slots are raw storage: the producer constructs each element before
/// the consumer can see it, so construction writes nothing to the ring and
/// its pages are first touched by the producer, not by whoever opens the
/// stream (a 16k-slot ring is 256 KiB).
template <typename T>
class SpscQueue {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "slots are overwritten in place and never destroyed");

 public:
  /// `min_capacity` is rounded up to a power of two.
  explicit SpscQueue(std::size_t min_capacity = 1024)
      : capacity_(ceil_pow2(min_capacity + 1)),
        slots_(std::allocator<T>().allocate(capacity_)),
        mask_(capacity_ - 1) {}
  ~SpscQueue() { std::allocator<T>().deallocate(slots_, capacity_); }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Producer side: enqueue up to `count` elements from `values` with one
  /// index publish. Returns how many fit (0 when full).
  std::size_t try_push_batch(const T* values, std::size_t count) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = (head_cache_ + capacity_ - 1 - tail) & mask_;
    if (free < count) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = (head_cache_ + capacity_ - 1 - tail) & mask_;
    }
    const std::size_t pushed = std::min(free, count);
    for (std::size_t i = 0; i < pushed; ++i) {
      std::construct_at(slots_ + ((tail + i) & mask_), values[i]);
    }
    if (pushed > 0) {
      tail_.store((tail + pushed) & mask_, std::memory_order_release);
    }
    return pushed;
  }

  /// Consumer side: move up to `max` elements into `out` (appended), with a
  /// single index publish — amortizes the release store over the batch.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    CANIDS_EXPECTS(max > 0);
    std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t tail = tail_cache_;
    if (((tail - head) & mask_) < max) {
      // The cached tail can't fill the batch — refresh it.
      tail = tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail) return 0;
    }
    std::size_t popped = 0;
    while (head != tail && popped < max) {
      out.push_back(slots_[head]);
      head = (head + 1) & mask_;
      ++popped;
    }
    head_.store(head, std::memory_order_release);
    return popped;
  }

  /// Either side: a snapshot of the element count (racy, for diagnostics).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return (tail - head) & mask_;
  }

 private:
  std::size_t capacity_;
  T* slots_;
  std::size_t mask_;

  alignas(64) std::atomic<std::size_t> head_{0};  // next slot to pop
  alignas(64) std::size_t tail_cache_ = 0;        // consumer's view of tail_
  alignas(64) std::atomic<std::size_t> tail_{0};  // next slot to fill
  alignas(64) std::size_t head_cache_ = 0;        // producer's view of head_
};

}  // namespace canids::engine
