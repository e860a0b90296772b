// Little-endian fixed-width fields over byte buffers: the one set of
// helpers behind every on-disk and on-wire format in the repo (WAL
// segments, Lattice wire frames, WPS snapshots and queries, 802.11 frames,
// pcap headers).
//
// Loads and stores go through memcpy, so each compiles to one plain
// (unaligned) move. f64 fields are the IEEE-754 bit pattern in a u64 field.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace mm::util {

// The formats are little-endian and the helpers copy host bytes; the WPS
// service also reads whole snapshot records by memcpy.
static_assert(std::endian::native == std::endian::little,
              "the on-disk and on-wire formats are read as host-order bytes");

namespace detail {

template <typename U>
[[nodiscard]] inline U load(const std::uint8_t* p) noexcept {
  U v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename U>
inline void store(std::uint8_t* p, U v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

template <typename U>
inline void append(std::vector<std::uint8_t>& out, U v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof v);
  store(out.data() + at, v);
}

}  // namespace detail

[[nodiscard]] inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  return detail::load<std::uint16_t>(p);
}
[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return detail::load<std::uint32_t>(p);
}
[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return detail::load<std::uint64_t>(p);
}
[[nodiscard]] inline double load_f64(const std::uint8_t* p) noexcept {
  return std::bit_cast<double>(load_u64(p));
}

inline void store_u16(std::uint8_t* p, std::uint16_t v) noexcept { detail::store(p, v); }
inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept { detail::store(p, v); }
inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept { detail::store(p, v); }
inline void store_f64(std::uint8_t* p, double v) noexcept {
  store_u64(p, std::bit_cast<std::uint64_t>(v));
}

inline void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) { detail::append(out, v); }
inline void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) { detail::append(out, v); }
inline void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) { detail::append(out, v); }
inline void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

}  // namespace mm::util
