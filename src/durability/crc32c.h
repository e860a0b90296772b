// CRC-32C (Castagnoli, poly 0x1EDC6F41 reflected to 0x82F63B78) — the WAL's
// record checksum. Chosen over the 802.11 FCS CRC-32 (net80211/crc32.h)
// deliberately: the two polynomials detect different error patterns, so a
// frame whose FCS was damaged in a way CRC-32 misses still has an independent
// chance of tripping the WAL framing check, and the distinct constants make
// it impossible to confuse an on-air checksum with an on-disk one.
//
// The WAL checksums every record on the ingest hot path, so this is tuned:
// SSE4.2 `crc32` instructions when the CPU has them (picked once at startup),
// otherwise the shared slice-by-8 table walk (util/crc32_slice8.h). Both
// produce identical values; the RFC 3720 vector in durability_wal_test pins
// the polynomial either way, and util_crc_test checks both paths against a
// bit-at-a-time reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/crc32_slice8.h"

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define MM_CRC32C_HW 1
#endif

namespace mm::durability {

namespace detail {

/// The portable path: the shared slice-by-8 kernel on the Castagnoli
/// polynomial.
[[nodiscard]] inline std::uint32_t crc32c_sw(const std::uint8_t* data,
                                             std::size_t size) noexcept {
  return util::crc32_slice8<0x82F63B78u>(data, size);
}

#ifdef MM_CRC32C_HW
[[nodiscard]] __attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    const std::uint8_t* data, std::size_t size) noexcept {
  std::uint64_t crc = 0xFFFFFFFFu;
  while (size >= 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, data, 8);
    crc = _mm_crc32_u64(crc, chunk);
    data += 8;
    size -= 8;
  }
  std::uint32_t crc32 = static_cast<std::uint32_t>(crc);
  while (size-- > 0) crc32 = _mm_crc32_u8(crc32, *data++);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = std::uint32_t (*)(const std::uint8_t*, std::size_t) noexcept;

[[nodiscard]] inline Crc32cFn pick_crc32c() noexcept {
#ifdef MM_CRC32C_HW
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_hw;
#endif
  return &crc32c_sw;
}

inline const Crc32cFn kCrc32c = pick_crc32c();

}  // namespace detail

/// CRC-32C over the buffer (init/final XOR 0xFFFFFFFF).
[[nodiscard]] inline std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept {
  return detail::kCrc32c(data.data(), data.size());
}

}  // namespace mm::durability
