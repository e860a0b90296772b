// Riptide's ingest queue: a bounded lock-free MPSC ring of FrameEvents.
//
// Capture threads (live Sniffer cards, or the pcap feed in real-time mode)
// push decoded events; one shard worker pops them. The implementation is the
// Vyukov bounded MPMC queue — per-slot sequence counters instead of a single
// head/tail lock — restricted here to many producers and one consumer. All
// cross-thread state is std::atomic with acquire/release pairing, so the ring
// is clean under ThreadSanitizer (the CI tsan job runs the MPSC stress test).
//
// Backpressure is explicit: try_push never blocks and never overwrites — when
// the ring is full it returns false and the *caller* decides the drop policy
// (count and discard the newest event, or spin until space; see
// LiveTrackerConfig::drop_policy). Every outcome is counted: pushed and
// dropped exactly, and a sampled occupancy high-water mark, so a sizing
// mistake shows up in the `mmctl live` stats table instead of as silent loss.
//
// Besides the slot it claims, a push reads nothing the consumer writes: the
// consumer cursor, which the worker writes on every pop, is loaded only for
// the high-water sample on every 64th slot claimed. A refused push marks the
// ring as having been full.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>

#include "capture/frame_event.h"
#include "util/counters.h"

namespace mm::pipeline {

/// What push_with_policy does when the ring is full.
enum class DropPolicy : std::uint8_t {
  kDropNewest,  ///< discard the incoming event, count it (bounded-latency mode)
  kBlock,       ///< spin-yield until space (lossless mode; replay/testing)
};

class FrameRing {
 public:
  /// Destructive-interference stride; fixed rather than taken from
  /// std::hardware_destructive_interference_size so the layout (and ABI) is
  /// identical across the compilers CI builds with.
  static constexpr std::size_t kCacheLine = 64;

  /// The high-water mark is sampled on the push that claims every
  /// kHighWaterStride-th slot.
  static constexpr std::uint64_t kHighWaterStride = 64;

  /// The largest power of two a size_t holds: the largest capacity.
  static constexpr std::size_t kMaxCapacity =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);

  /// Capacity is rounded up to a power of two, minimum 2. One above
  /// kMaxCapacity has no power of two to round up to: std::length_error.
  explicit FrameRing(std::size_t capacity) {
    if (capacity > kMaxCapacity) {
      throw std::length_error("FrameRing: no power of two holds the capacity");
    }
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  FrameRing(const FrameRing&) = delete;
  FrameRing& operator=(const FrameRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Multi-producer push. Returns false when the ring is full; the event is
  /// NOT enqueued and neither pushed() nor dropped() moves (the high-water
  /// mark goes to the capacity) — call count_drop() if the caller's policy is
  /// to discard.
  bool try_push(const capture::FrameEvent& event) noexcept {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    Cell* cell = nullptr;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        // The slot still holds an unconsumed event: full.
        update_high_water(capacity());
        return false;
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->event = event;
    cell->seq.store(pos + 1, std::memory_order_release);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    if (pos % kHighWaterStride == 0) {
      update_high_water(pos + 1 - dequeue_pos_.load(std::memory_order_relaxed));
    }
    return true;
  }

  /// Single-consumer pop (the owning shard worker). False when empty.
  bool try_pop(capture::FrameEvent& out) noexcept {
    const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    const auto dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
    if (dif < 0) return false;  // producer has not published this slot yet
    out = cell.event;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Saturating: a multi-day soak pinned at max still reads as "dropping",
  /// never wraps back to a healthy-looking zero (util/counters.h).
  void count_drop() noexcept { util::sat_fetch_add(dropped_); }

  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Sampled peak occupancy: the capacity once any push has been refused;
  /// otherwise the highest occupancy seen by the pushes that claimed every
  /// kHighWaterStride-th slot (the first push included), so a peak between
  /// samples can read up to kHighWaterStride - 1 low. Never exceeds
  /// capacity(). pushed() and dropped() stay exact.
  [[nodiscard]] std::uint64_t high_water_mark() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }
  /// Approximate occupancy right now.
  [[nodiscard]] std::uint64_t size() const noexcept {
    const std::uint64_t enq = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    return enq >= deq ? enq - deq : 0;
  }

 private:
  struct alignas(kCacheLine) Cell {
    std::atomic<std::uint64_t> seq{0};
    capture::FrameEvent event;
  };

  void update_high_water(std::uint64_t occupancy) noexcept {
    // The consumer cursor is sampled relaxed and may be stale, which can only
    // overestimate; true occupancy is bounded by the capacity, so clamp.
    occupancy = std::min(occupancy, mask_ + 1);
    std::uint64_t seen = high_water_.load(std::memory_order_relaxed);
    while (occupancy > seen &&
           !high_water_.compare_exchange_weak(seen, occupancy,
                                              std::memory_order_relaxed)) {
    }
  }

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> dequeue_pos_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> high_water_{0};
};

}  // namespace mm::pipeline
