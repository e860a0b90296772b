// The one table-driven CRC-32 kernel: reflected polynomials, eight input
// bytes per step (slice-by-8). Both checksums the project computes run on
// it — the 802.11 FCS (net80211/crc32.h, CRC-32) and the software path of
// the WAL's CRC-32C (durability/crc32c.h) — with the polynomial as a
// template parameter, so each instantiation gets its own compile-time
// tables.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mm::util {

namespace detail {

using Slice8Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table; tables[k] advances a byte
/// through k more zero bytes, letting the loop fold 8 input bytes per
/// iteration with independent lookups.
template <std::uint32_t ReflectedPoly>
constexpr Slice8Tables make_slice8_tables() {
  Slice8Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ ReflectedPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      crc = (crc >> 8) ^ tables[0][crc & 0xFFu];
      tables[k][i] = crc;
    }
  }
  return tables;
}

template <std::uint32_t ReflectedPoly>
inline constexpr Slice8Tables kSlice8Tables = make_slice8_tables<ReflectedPoly>();

}  // namespace detail

/// CRC over [data, data + size) with the reflected polynomial, init and
/// final XOR 0xFFFFFFFF.
template <std::uint32_t ReflectedPoly>
[[nodiscard]] inline std::uint32_t crc32_slice8(const std::uint8_t* data,
                                                std::size_t size) noexcept {
  static_assert(std::endian::native == std::endian::little,
                "the 8-byte fold XORs the CRC into the first four bytes of a "
                "little-endian load");
  const auto& t = detail::kSlice8Tables<ReflectedPoly>;
  std::uint32_t crc = 0xFFFFFFFFu;
  while (size >= 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, data, 8);
    chunk ^= crc;
    crc = t[7][chunk & 0xFFu] ^ t[6][(chunk >> 8) & 0xFFu] ^
          t[5][(chunk >> 16) & 0xFFu] ^ t[4][(chunk >> 24) & 0xFFu] ^
          t[3][(chunk >> 32) & 0xFFu] ^ t[2][(chunk >> 40) & 0xFFu] ^
          t[1][(chunk >> 48) & 0xFFu] ^ t[0][(chunk >> 56) & 0xFFu];
    data += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data++) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace mm::util
