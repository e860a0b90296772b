#include "net80211/pcap.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/bytes.h"

namespace mm::net80211 {

namespace {
constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kMagicUsecSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4d;

constexpr std::size_t kGlobalHeaderBytes = 24;
constexpr std::size_t kRecordHeaderBytes = 16;

}  // namespace

PcapWriter::PcapWriter(const std::filesystem::path& path, std::uint32_t linktype,
                       std::uint32_t snaplen)
    : out_(path, std::ios::binary), snaplen_(snaplen) {
  if (!out_) {
    error_ = "pcap: cannot create " + path.string();
    return;
  }
  std::array<std::uint8_t, kGlobalHeaderBytes> header{};  // thiszone, sigfigs: 0
  util::store_u32(header.data(), kMagicUsec);
  util::store_u16(header.data() + 4, 2);  // version major
  util::store_u16(header.data() + 6, 4);  // version minor
  util::store_u32(header.data() + 16, snaplen_);
  util::store_u32(header.data() + 20, linktype);
  out_.write(reinterpret_cast<const char*>(header.data()), header.size());
  if (!out_) error_ = "pcap: failed to write global header to " + path.string();
}

bool PcapWriter::write(std::uint64_t timestamp_us, std::span<const std::uint8_t> frame) {
  if (!ok()) {
    ++write_failures_;
    return false;
  }
  const std::size_t incl = std::min<std::size_t>(frame.size(), snaplen_);
  std::array<std::uint8_t, kRecordHeaderBytes> header{};
  util::store_u32(header.data(), static_cast<std::uint32_t>(timestamp_us / 1000000));
  util::store_u32(header.data() + 4, static_cast<std::uint32_t>(timestamp_us % 1000000));
  util::store_u32(header.data() + 8, static_cast<std::uint32_t>(incl));
  util::store_u32(header.data() + 12, static_cast<std::uint32_t>(frame.size()));
  out_.write(reinterpret_cast<const char*>(header.data()), header.size());
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(incl));
  if (!out_) {
    error_ = "pcap: record write failed";
    ++write_failures_;
    return false;
  }
  ++records_;
  return true;
}

PcapReader::PcapReader(const std::filesystem::path& path)
    : in_(path, std::ios::binary), buf_(kPcapReadBlockBytes) {
  if (!in_) {
    error_ = "pcap: cannot open " + path.string();
    return;
  }
  const bool whole = fill(kGlobalHeaderBytes);
  if (unread() < 4) {
    error_ = "pcap: missing global header";
    return;
  }
  const std::uint8_t* header = buf_.data() + pos_;
  const std::uint32_t magic = util::load_u32(header);
  if (magic == kMagicUsecSwapped) {
    error_ = "pcap: big-endian capture files are not supported";
    return;
  }
  if (magic == kMagicNsec) {
    error_ = "pcap: nanosecond-resolution captures are not supported";
    return;
  }
  if (magic != kMagicUsec) {
    error_ = "pcap: bad magic number";
    return;
  }
  if (!whole) {
    error_ = "pcap: truncated global header";
    return;
  }
  // header + 8: thiszone and sigfigs, unused.
  const std::uint16_t major = util::load_u16(header + 4);
  snaplen_ = util::load_u32(header + 16);
  linktype_ = util::load_u32(header + 20);
  pos_ += kGlobalHeaderBytes;
  if (major != 2) error_ = "pcap: unsupported version";
}

bool PcapReader::fill(std::size_t n) {
  if (unread() >= n) return true;
  if (eof_) return false;
  std::memmove(buf_.data(), buf_.data() + pos_, unread());
  end_ -= pos_;
  pos_ = 0;
  if (buf_.size() < n) buf_.resize(n);
  while (end_ < n && !eof_) {
    in_.read(reinterpret_cast<char*>(buf_.data() + end_),
             static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    // A short read is the end of the file (a read error ends it the same
    // way: whatever was read is all there is).
    if (!in_) eof_ = true;
  }
  return end_ >= n;
}

std::optional<PcapRecordView> PcapReader::next() {
  if (!ok() || done_) return std::nullopt;
  if (!fill(kRecordHeaderBytes)) {
    // A clean end leaves no byte behind; even one stray byte is a record
    // header the file lost the rest of.
    truncated_ = unread() > 0;
    done_ = true;
    return std::nullopt;
  }
  const std::uint8_t* header = buf_.data() + pos_;
  const std::uint32_t ts_sec = util::load_u32(header);
  const std::uint32_t ts_usec = util::load_u32(header + 4);
  const std::uint32_t incl_len = util::load_u32(header + 8);
  if (incl_len > kMaxSaneRecordBytes) {
    // Corrupt framing: the length field itself is damaged, and without it
    // there is no way to find the next record boundary. Quarantine and end
    // iteration rather than trusting a multi-gigabyte allocation.
    ++quarantined_;
    done_ = true;
    return std::nullopt;
  }
  if (!fill(kRecordHeaderBytes + incl_len)) {
    done_ = truncated_ = true;
    return std::nullopt;
  }
  // fill() may have moved the buffer: take the payload address afterwards.
  const PcapRecordView record{static_cast<std::uint64_t>(ts_sec) * 1000000 + ts_usec,
                              {buf_.data() + pos_ + kRecordHeaderBytes, incl_len}};
  pos_ += kRecordHeaderBytes + incl_len;
  return record;
}

std::vector<PcapRecord> PcapReader::read_all() {
  std::vector<PcapRecord> records;
  while (const auto record = next()) {
    records.push_back({record->timestamp_us, {record->data.begin(), record->data.end()}});
  }
  return records;
}

}  // namespace mm::net80211
