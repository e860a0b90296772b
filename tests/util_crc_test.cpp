// The shared slice-by-8 kernel against a bit-at-a-time reference, through
// every entry point that uses it: the 802.11 FCS (CRC-32) and both CRC-32C
// paths. The software CRC-32C walk is called directly: on x86 the startup
// pick always selects SSE4.2, so nothing else would ever run it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "durability/crc32c.h"
#include "net80211/crc32.h"
#include "util/rng.h"

namespace mm {
namespace {

std::uint32_t bitwise_crc(std::uint32_t reflected_poly, const std::uint8_t* data,
                          std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1u) != 0 ? reflected_poly : 0u);
  }
  return crc ^ 0xFFFFFFFFu;
}

constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

/// Every length 0..64 from every start offset 0..7, so the 8-byte fold sees
/// each alignment and each tail length.
template <typename Fn>
void sweep(std::uint32_t reflected_poly, Fn&& crc) {
  util::Rng rng(reflected_poly);
  std::vector<std::uint8_t> buffer(64 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* data = buffer.data() + start;
      ASSERT_EQ(crc(data, len), bitwise_crc(reflected_poly, data, len))
          << "start " << start << " length " << len;
    }
  }
}

TEST(Crc, Crc32MatchesBitwiseReference) {
  sweep(kCrc32Poly, [](const std::uint8_t* data, std::size_t len) {
    return net80211::crc32({data, len});
  });
}

TEST(Crc, Crc32cSoftwarePathMatchesBitwiseReference) {
  sweep(kCrc32cPoly, [](const std::uint8_t* data, std::size_t len) {
    return durability::detail::crc32c_sw(data, len);
  });
}

TEST(Crc, Crc32cHardwarePathMatchesBitwiseReference) {
#ifdef MM_CRC32C_HW
  if (!__builtin_cpu_supports("sse4.2")) GTEST_SKIP() << "no SSE4.2 on this CPU";
  sweep(kCrc32cPoly, [](const std::uint8_t* data, std::size_t len) {
    return durability::detail::crc32c_hw(data, len);
  });
#else
  GTEST_SKIP() << "no hardware CRC-32C path on this architecture";
#endif
}

TEST(Crc, StandardCheckValues) {
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(net80211::crc32(digits), 0xCBF43926u);
  EXPECT_EQ(durability::detail::crc32c_sw(digits, sizeof(digits)), 0xE3069283u);
  EXPECT_EQ(durability::crc32c(digits), 0xE3069283u);
}

}  // namespace
}  // namespace mm
