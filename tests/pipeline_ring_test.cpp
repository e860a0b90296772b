// Riptide concurrency primitives: FrameRing (bounded lock-free MPSC),
// SeqlockSlot (torn-free position publishing), and DeviceDirectory
// (insert-only lock-free MAC index). The single-threaded tests pin the FIFO /
// capacity / counter contracts; the multi-threaded stress tests assert the
// interleaving invariants (per-producer order, torn-read detection, exact
// accounting) and double as the ThreadSanitizer workload in CI's tsan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pipeline/frame_ring.h"
#include "pipeline/seqlock.h"

namespace mm::pipeline {
namespace {

net80211::MacAddress mac_of(std::uint64_t id) {
  return net80211::MacAddress::from_u64(id);
}

capture::FrameEvent make_event(std::uint64_t producer, std::uint64_t seq) {
  capture::FrameEvent ev;
  ev.kind = capture::FrameEventKind::kContact;
  ev.device = mac_of(producer + 1);
  ev.ap = mac_of(0xa90000 + seq);
  ev.time_s = static_cast<double>(seq);
  return ev;
}

TEST(FrameRing, SingleProducerFifoAndCapacity) {
  FrameRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);

  // Fill to capacity; the next push must refuse without losing anything.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_push(make_event(0, i))) << i;
  }
  EXPECT_FALSE(ring.try_push(make_event(0, 99)));
  ring.count_drop();
  EXPECT_EQ(ring.pushed(), 8u);
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_EQ(ring.high_water_mark(), 8u);
  EXPECT_EQ(ring.size(), 8u);

  // FIFO order, exactly once.
  capture::FrameEvent out;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out.time_s, static_cast<double>(i));
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(ring.size(), 0u);

  // Slots are reusable after wrap-around.
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(make_event(0, i)));
    for (std::uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out.time_s, static_cast<double>(i));
    }
  }
}

// The high-water mark is sampled on every kHighWaterStride-th push, so it
// never reads above the true peak or the capacity and at most
// kHighWaterStride - 1 below the peak; a refused push pins it at the
// capacity. pushed() and dropped() stay exact throughout.
TEST(FrameRing, HighWaterIsSampledAndRefusalReadsCapacity) {
  FrameRing ring(1024);
  capture::FrameEvent out;
  std::uint64_t peak = 0;
  std::uint64_t pushed = 0;
  for (std::uint64_t i = 0; i < 900; ++i) {
    ASSERT_TRUE(ring.try_push(make_event(0, i)));
    ++pushed;
    peak = std::max(peak, ring.size());
    if (i % 3 == 0) {
      ASSERT_TRUE(ring.try_pop(out));  // occupancy climbs slowly
    }
    ASSERT_LE(ring.high_water_mark(), peak) << i;
    ASSERT_GE(ring.high_water_mark() + FrameRing::kHighWaterStride - 1, peak) << i;
  }
  EXPECT_LT(ring.high_water_mark(), ring.capacity());

  while (ring.try_push(make_event(0, pushed))) ++pushed;
  EXPECT_EQ(ring.size(), ring.capacity());
  EXPECT_EQ(ring.high_water_mark(), ring.capacity());
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(ring.try_push(make_event(0, 0)));
    ring.count_drop();
  }
  EXPECT_EQ(ring.pushed(), pushed);
  EXPECT_EQ(ring.dropped(), 5u);
  EXPECT_EQ(ring.high_water_mark(), ring.capacity());

  // The mark is a peak: draining never lowers it.
  while (ring.try_pop(out)) {
  }
  EXPECT_EQ(ring.high_water_mark(), ring.capacity());
}

TEST(FrameRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FrameRing(1).capacity(), 2u);
  EXPECT_EQ(FrameRing(3).capacity(), 4u);
  EXPECT_EQ(FrameRing(1000).capacity(), 1024u);
}

// Past the top power of two the rounding loop would wrap to 0 and spin: the
// ring refuses such a capacity before it allocates anything.
TEST(FrameRing, RefusesCapacityItCannotRoundUp) {
  EXPECT_THROW((void)FrameRing(FrameRing::kMaxCapacity + 1), std::length_error);
  EXPECT_THROW((void)FrameRing(std::numeric_limits<std::size_t>::max()), std::length_error);
}

// Four producers race into one small ring while a consumer drains it. The
// asserts pin the MPSC contract: nothing lost, nothing duplicated, and each
// producer's events arrive in its own push order (per-key FIFO is what makes
// live results reproducible).
TEST(FrameRing, MultiProducerStressKeepsPerProducerOrderAndCounts) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  FrameRing ring(256);  // small on purpose: force full-ring interleavings

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!ring.try_push(make_event(p, i))) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  capture::FrameEvent out;
  while (received < kProducers * kPerProducer) {
    if (!ring.try_pop(out)) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t p = out.device.to_u64() - 1;
    ASSERT_LT(p, kProducers);
    // Interleaving assert: this producer's events arrive in push order.
    EXPECT_EQ(out.time_s, static_cast<double>(next_seq[p]));
    ++next_seq[p];
    ++received;
  }
  for (auto& t : producers) t.join();

  for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
  EXPECT_FALSE(ring.try_pop(out));
  // Accounting: every offered event was pushed exactly once (block mode).
  EXPECT_EQ(ring.pushed(), kProducers * kPerProducer);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_GE(ring.high_water_mark(), 1u);
  EXPECT_LE(ring.high_water_mark(), ring.capacity());
}

// Drop-policy accounting under pressure: producers never retry, so
// pushed + dropped must equal exactly what was offered.
TEST(FrameRing, DropNewestAccountingIsExact) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  FrameRing ring(64);
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        if (!ring.try_push(make_event(p, i))) ring.count_drop();
      }
    });
  }
  std::uint64_t popped = 0;
  std::thread consumer([&] {
    capture::FrameEvent out;
    for (;;) {
      if (ring.try_pop(out)) {
        ++popped;
        continue;
      }
      if (done.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
  });
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  capture::FrameEvent out;
  while (ring.try_pop(out)) ++popped;

  EXPECT_EQ(ring.pushed() + ring.dropped(), kProducers * kPerProducer);
  EXPECT_EQ(popped, ring.pushed());
}

TEST(Seqlock, NeverPublishedReadsFalse) {
  SeqlockSlot slot;
  LivePosition out;
  EXPECT_FALSE(slot.read(out));
}

TEST(Seqlock, RoundTripsEveryField) {
  SeqlockSlot slot;
  LivePosition in;
  in.x_m = -123.456;
  in.y_m = 789.25;
  in.updated_at_s = 42.125;
  in.gamma_size = 17;
  in.ok = 1;
  in.used_fallback = 1;
  in.discs_rejected = 3;
  in.updates = 9001;
  slot.publish(in);
  LivePosition out;
  ASSERT_TRUE(slot.read(out));
  EXPECT_EQ(out.x_m, in.x_m);
  EXPECT_EQ(out.y_m, in.y_m);
  EXPECT_EQ(out.updated_at_s, in.updated_at_s);
  EXPECT_EQ(out.gamma_size, in.gamma_size);
  EXPECT_EQ(out.ok, in.ok);
  EXPECT_EQ(out.used_fallback, in.used_fallback);
  EXPECT_EQ(out.discs_rejected, in.discs_rejected);
  EXPECT_EQ(out.updates, in.updates);
}

// One writer republishes correlated payloads while readers hammer the slot:
// any torn read breaks the y == 2x / updates == x cross-field invariant.
TEST(Seqlock, ReadersNeverObserveTornWrites) {
  SeqlockSlot slot;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      LivePosition out;
      std::uint64_t last_update = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (!slot.read(out)) continue;
        ASSERT_EQ(out.y_m, 2.0 * out.x_m);
        ASSERT_EQ(out.updates, static_cast<std::uint64_t>(out.x_m));
        // Publishes are monotone for a single writer.
        ASSERT_GE(out.updates, last_update);
        last_update = out.updates;
      }
    });
  }
  for (std::uint64_t k = 1; k <= 200000; ++k) {
    LivePosition p;
    p.x_m = static_cast<double>(k);
    p.y_m = 2.0 * static_cast<double>(k);
    p.updates = k;
    slot.publish(p);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
}

TEST(DeviceDirectory, InsertFindAndSnapshot) {
  DeviceDirectory dir(64);
  EXPECT_EQ(dir.find(mac_of(1)), nullptr);

  SeqlockSlot* slot = dir.insert(mac_of(1));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(dir.insert(mac_of(1)), slot);  // idempotent
  EXPECT_EQ(dir.find(mac_of(1)), slot);
  EXPECT_EQ(dir.size(), 1u);

  // The all-zero MAC is a valid key (the tag bit distinguishes it from an
  // empty slot).
  ASSERT_NE(dir.insert(mac_of(0)), nullptr);
  EXPECT_NE(dir.find(mac_of(0)), nullptr);
  EXPECT_EQ(dir.size(), 2u);

  LivePosition p;
  p.x_m = 5.0;
  p.updates = 1;
  slot->publish(p);
  const auto snap = dir.snapshot();  // only published slots appear
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, mac_of(1));
  EXPECT_EQ(snap[0].second.x_m, 5.0);
}

TEST(DeviceDirectory, RefusesInsertsAtLoadLimit) {
  DeviceDirectory dir(16);
  std::size_t inserted = 0;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    if (dir.insert(mac_of(i)) != nullptr) ++inserted;
  }
  EXPECT_EQ(inserted, dir.size());
  EXPECT_LT(dir.size(), dir.capacity());  // never fills completely
  EXPECT_GE(dir.size(), dir.capacity() / 2);
  // Existing keys still resolve at the limit.
  EXPECT_NE(dir.find(mac_of(1)), nullptr);
}

TEST(DeviceDirectory, ConcurrentInsertsClaimEachKeyOnce) {
  constexpr std::uint64_t kKeys = 512;
  DeviceDirectory dir(2048);
  std::vector<std::atomic<SeqlockSlot*>> claimed(kKeys);
  for (auto& c : claimed) c.store(nullptr);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        SeqlockSlot* slot = dir.insert(mac_of(k));
        ASSERT_NE(slot, nullptr);
        SeqlockSlot* expected = nullptr;
        if (!claimed[k].compare_exchange_strong(expected, slot)) {
          // Another thread claimed first: every thread must see one slot.
          ASSERT_EQ(expected, slot);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(dir.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(dir.find(mac_of(k)), claimed[k].load());
  }
}

}  // namespace
}  // namespace mm::pipeline
