// Riptide's query surface: per-device published positions readable from any
// thread without ever blocking ingest.
//
// Each tracked device owns one SeqlockSlot. The owning shard worker is the
// only writer; queries (mmctl live's snapshot table, the locate() API) are
// wait-free-for-the-writer readers that retry on a torn read. The payload is
// stored as plain 64-bit atomic words with relaxed ordering fenced by the
// sequence counter (the standard "seqlocks in C++ atomics" construction), so
// readers can never observe a half-written position and ThreadSanitizer sees
// only atomic accesses.
//
// The slot owner index is a fixed-capacity open-addressing table keyed by the
// 48-bit MAC (tagged with bit 48 so the zero word can serve as the empty
// sentinel). It is insert-only: shard workers claim slots with a CAS on the
// key word, and a claimed slot is never removed or reused, which is what
// makes lock-free probing safe without hazard pointers or epochs.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net80211/mac_address.h"
#include "util/hash.h"

namespace mm::pipeline {

/// The per-device tracking state Riptide publishes: the current M-Loc
/// estimate plus enough context to interpret it. Encoded to fixed 64-bit
/// words so it can cross the seqlock torn-free.
struct LivePosition {
  static constexpr std::size_t kWords = 5;

  double x_m = 0.0;
  double y_m = 0.0;
  /// The newest first-contact instant (ApContact::first_seen) among the
  /// known APs behind the estimate: a function of the shard's store, so a
  /// recovered shard republishes the value the uninterrupted run published,
  /// whatever order the contacts arrived in.
  double updated_at_s = 0.0;
  std::uint32_t gamma_size = 0;   ///< known-AP Gamma cardinality behind the estimate
  std::uint8_t ok = 0;            ///< LocalizationResult::ok
  std::uint8_t used_fallback = 0; ///< degraded: centroid-of-APs fallback
  std::uint16_t discs_rejected = 0;  ///< degraded: outlier discs removed
  std::uint64_t updates = 0;      ///< publishes: one per known AP in Gamma (monotone)
  /// Degraded: the owning shard is circuit-broken (Phoenix supervision), so
  /// this position is the last word before the partition went down. Stamped
  /// at *query* time by LiveTracker::locate()/snapshot() — deliberately NOT
  /// part of the seqlock encoding, because the flag belongs to the shard,
  /// not to any single publish, and must appear on positions published long
  /// before the breaker tripped.
  std::uint8_t shard_degraded = 0;

  [[nodiscard]] std::array<std::uint64_t, kWords> encode() const noexcept {
    return {std::bit_cast<std::uint64_t>(x_m), std::bit_cast<std::uint64_t>(y_m),
            std::bit_cast<std::uint64_t>(updated_at_s),
            static_cast<std::uint64_t>(gamma_size) |
                (static_cast<std::uint64_t>(ok) << 32) |
                (static_cast<std::uint64_t>(used_fallback) << 40) |
                (static_cast<std::uint64_t>(discs_rejected) << 48),
            updates};
  }

  [[nodiscard]] static LivePosition decode(
      const std::array<std::uint64_t, kWords>& w) noexcept {
    LivePosition p;
    p.x_m = std::bit_cast<double>(w[0]);
    p.y_m = std::bit_cast<double>(w[1]);
    p.updated_at_s = std::bit_cast<double>(w[2]);
    p.gamma_size = static_cast<std::uint32_t>(w[3] & 0xffffffffULL);
    p.ok = static_cast<std::uint8_t>((w[3] >> 32) & 0xff);
    p.used_fallback = static_cast<std::uint8_t>((w[3] >> 40) & 0xff);
    p.discs_rejected = static_cast<std::uint16_t>(w[3] >> 48);
    p.updates = w[4];
    return p;
  }
};

/// Single-writer seqlock over LivePosition::kWords atomic words.
class SeqlockSlot {
 public:
  /// Writer side (the owning shard worker only).
  void publish(const LivePosition& value) noexcept {
    const auto words = value.encode();
    const std::uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);  // odd: write in progress
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < LivePosition::kWords; ++i) {
      words_[i].store(words[i], std::memory_order_relaxed);
    }
    seq_.store(s + 2, std::memory_order_release);
  }

  /// Reader side: retries across concurrent writes; returns false only when
  /// nothing was ever published.
  [[nodiscard]] bool read(LivePosition& out) const noexcept {
    for (;;) {
      const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
      if (s1 == 0) return false;   // never published
      if (s1 & 1) continue;        // write in flight, retry
      std::array<std::uint64_t, LivePosition::kWords> words;
      for (std::size_t i = 0; i < LivePosition::kWords; ++i) {
        words[i] = words_[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) {
        out = LivePosition::decode(words);
        return true;
      }
    }
  }

 private:
  std::atomic<std::uint64_t> seq_{0};
  std::array<std::atomic<std::uint64_t>, LivePosition::kWords> words_{};
};

/// Insert-only lock-free MAC -> SeqlockSlot index shared by all shards.
/// Writers are the shard workers (each device is claimed exactly once, by the
/// shard the partitioner assigned it to); readers are query threads.
class DeviceDirectory {
 public:
  /// Capacity is rounded up to a power of two. The table refuses inserts at
  /// ~7/8 load (probing stays short); overflow is counted, not fatal.
  explicit DeviceDirectory(std::size_t capacity) {
    std::size_t cap = 16;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    limit_ = cap - cap / 8;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  DeviceDirectory(const DeviceDirectory&) = delete;
  DeviceDirectory& operator=(const DeviceDirectory&) = delete;

  /// Finds or claims the slot for `mac`. Returns nullptr when the table is
  /// at its load limit (the caller counts the overflow).
  SeqlockSlot* insert(const net80211::MacAddress& mac) noexcept {
    const std::uint64_t key = tag(mac);
    std::size_t idx = util::mix64(key) & mask_;
    for (std::size_t probes = 0; probes <= mask_; ++probes, idx = (idx + 1) & mask_) {
      std::uint64_t seen = slots_[idx].key.load(std::memory_order_acquire);
      if (seen == key) return &slots_[idx].value;
      if (seen == 0) {
        if (size_.load(std::memory_order_relaxed) >= limit_) return nullptr;
        if (slots_[idx].key.compare_exchange_strong(seen, key,
                                                    std::memory_order_acq_rel)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          return &slots_[idx].value;
        }
        if (seen == key) return &slots_[idx].value;  // lost the race to ourselves
      }
    }
    return nullptr;
  }

  [[nodiscard]] const SeqlockSlot* find(const net80211::MacAddress& mac) const noexcept {
    const std::uint64_t key = tag(mac);
    std::size_t idx = util::mix64(key) & mask_;
    for (std::size_t probes = 0; probes <= mask_; ++probes, idx = (idx + 1) & mask_) {
      const std::uint64_t seen = slots_[idx].key.load(std::memory_order_acquire);
      if (seen == key) return &slots_[idx].value;
      if (seen == 0) return nullptr;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Consistent-per-slot snapshot of every published position (each entry is
  /// torn-free; the set as a whole is whatever had been claimed when the
  /// scan passed it).
  [[nodiscard]] std::vector<std::pair<net80211::MacAddress, LivePosition>> snapshot()
      const {
    std::vector<std::pair<net80211::MacAddress, LivePosition>> out;
    out.reserve(size());
    for (std::size_t idx = 0; idx <= mask_; ++idx) {
      const std::uint64_t key = slots_[idx].key.load(std::memory_order_acquire);
      if (key == 0) continue;
      LivePosition pos;
      if (slots_[idx].value.read(pos)) {
        out.emplace_back(net80211::MacAddress::from_u64(key & kMacMask), pos);
      }
    }
    return out;
  }

 private:
  /// Bit 48 marks "occupied" so the all-zero MAC is still representable.
  static constexpr std::uint64_t kOccupiedBit = 1ULL << 48;
  static constexpr std::uint64_t kMacMask = kOccupiedBit - 1;

  static std::uint64_t tag(const net80211::MacAddress& mac) noexcept {
    return mac.to_u64() | kOccupiedBit;
  }

  struct Slot {
    std::atomic<std::uint64_t> key{0};
    SeqlockSlot value;
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::size_t limit_ = 0;
  std::atomic<std::size_t> size_{0};
};

}  // namespace mm::pipeline
