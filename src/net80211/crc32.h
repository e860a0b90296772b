// IEEE 802.3 CRC-32 (the 802.11 frame check sequence).
#pragma once

#include <cstdint>
#include <span>

#include "util/crc32_slice8.h"

namespace mm::net80211 {

/// CRC-32 over the buffer (reflected, poly 0xEDB88320, init/final 0xFFFFFFFF)
/// — the FCS appended to every 802.11 frame.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return util::crc32_slice8<0xEDB88320u>(data.data(), data.size());
}

}  // namespace mm::net80211
