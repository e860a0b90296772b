#include "net80211/radiotap.h"

#include "util/bytes.h"

namespace mm::net80211 {

namespace {
constexpr std::uint32_t kPresentChannel = 1u << 3;
constexpr std::uint32_t kPresentSignal = 1u << 5;
constexpr std::uint32_t kPresentNoise = 1u << 6;
constexpr std::uint32_t kPresentMask = kPresentChannel | kPresentSignal | kPresentNoise;
constexpr std::size_t kHeaderLen = 8 + 4 + 1 + 1;  // base + channel + signal + noise
}  // namespace

std::vector<std::uint8_t> Radiotap::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderLen);
  out.push_back(0);  // version
  out.push_back(0);  // pad
  util::append_u16(out, static_cast<std::uint16_t>(kHeaderLen));
  util::append_u32(out, kPresentMask);
  util::append_u16(out, channel_freq_mhz);
  util::append_u16(out, channel_flags);
  out.push_back(static_cast<std::uint8_t>(antenna_signal_dbm));
  out.push_back(static_cast<std::uint8_t>(antenna_noise_dbm));
  return out;
}

util::Result<Radiotap::Parsed> Radiotap::parse(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) return util::Result<Parsed>::failure("radiotap: too short");
  if (bytes[0] != 0) return util::Result<Parsed>::failure("radiotap: unknown version");
  const std::size_t length = util::load_u16(bytes.data() + 2);
  if (length < 8 || length > bytes.size()) {
    return util::Result<Parsed>::failure("radiotap: bad header length");
  }
  const std::uint32_t present = util::load_u32(bytes.data() + 4);
  if (present & ~kPresentMask) {
    return util::Result<Parsed>::failure("radiotap: unsupported present fields");
  }

  Parsed parsed;
  parsed.header_length = length;
  std::size_t pos = 8;
  auto need = [&](std::size_t n) { return pos + n <= length; };
  if (present & kPresentChannel) {
    pos = (pos + 1) & ~std::size_t{1};  // 2-byte alignment
    if (!need(4)) return util::Result<Parsed>::failure("radiotap: truncated channel");
    parsed.header.channel_freq_mhz = util::load_u16(bytes.data() + pos);
    parsed.header.channel_flags = util::load_u16(bytes.data() + pos + 2);
    pos += 4;
  }
  if (present & kPresentSignal) {
    if (!need(1)) return util::Result<Parsed>::failure("radiotap: truncated signal");
    parsed.header.antenna_signal_dbm = static_cast<std::int8_t>(bytes[pos++]);
  }
  if (present & kPresentNoise) {
    if (!need(1)) return util::Result<Parsed>::failure("radiotap: truncated noise");
    parsed.header.antenna_noise_dbm = static_cast<std::int8_t>(bytes[pos++]);
  }
  return parsed;
}

}  // namespace mm::net80211
