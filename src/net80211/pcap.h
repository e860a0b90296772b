// From-scratch pcap file format support (the libpcap substitute). Classic
// microsecond-resolution little-endian pcap: 24-byte global header followed
// by 16-byte-headed records. The capture layer writes radiotap-framed
// monitor-mode captures (linktype 127) that Wireshark can open.
//
// Both ends report failure as state, not exceptions: an unattended capture
// rig must keep its already-collected evidence when a disk fills up, and an
// analysis pass over a real-world (possibly damaged) capture must consume
// as much of the file as is intact. Check ok() after construction.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mm::net80211 {

/// LINKTYPE_IEEE802_11_RADIOTAP.
inline constexpr std::uint32_t kLinktypeRadiotap = 127;
/// LINKTYPE_IEEE802_11 (bare frames).
inline constexpr std::uint32_t kLinktype80211 = 105;

/// Upper bound on a sane record length: no 802.11 frame plus capture header
/// comes near this, so a bigger incl_len is corrupt framing, not data. The
/// reader quarantines such records instead of allocating gigabytes.
inline constexpr std::uint32_t kMaxSaneRecordBytes = 1u << 20;

/// Bytes the reader asks its stream for per refill: records are cut out of
/// this buffer instead of being read one field at a time.
inline constexpr std::size_t kPcapReadBlockBytes = std::size_t{1} << 20;

struct PcapRecord {
  std::uint64_t timestamp_us = 0;
  std::vector<std::uint8_t> data;

  bool operator==(const PcapRecord&) const = default;
};

/// A record as PcapReader::next() hands it out: `data` points into the
/// reader's buffer and stays valid only until the next call to next() (or
/// the reader's destruction). Copy the bytes to keep them.
struct PcapRecordView {
  std::uint64_t timestamp_us = 0;
  std::span<const std::uint8_t> data;
};

/// Streaming pcap writer. Never throws: a failed open or write latches into
/// ok()/error() and is counted, so a capture loop can keep its in-memory
/// evidence (and keep trying) when the disk misbehaves. Flushes on
/// destruction (RAII).
class PcapWriter {
 public:
  explicit PcapWriter(const std::filesystem::path& path,
                      std::uint32_t linktype = kLinktypeRadiotap,
                      std::uint32_t snaplen = 65535);

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Appends one record; returns false (and counts the failure) when the
  /// stream is broken. Safe to keep calling after a failure.
  bool write(std::uint64_t timestamp_us, std::span<const std::uint8_t> frame);
  [[nodiscard]] std::size_t records_written() const noexcept { return records_; }
  [[nodiscard]] std::uint64_t write_failures() const noexcept { return write_failures_; }

 private:
  std::ofstream out_;
  std::uint32_t snaplen_;
  std::size_t records_ = 0;
  std::uint64_t write_failures_ = 0;
  std::string error_;
};

/// Pcap reader. Open/magic failures latch into ok()/error() instead of
/// throwing; a file that ends anywhere but on a record boundary (even 1 byte
/// into a record header) terminates iteration and sets truncated(); a
/// record whose length field is corrupt is quarantined (the stream cannot
/// be re-synchronized past it, so iteration stops there too).
///
/// The file is read in blocks of kPcapReadBlockBytes into one buffer, which
/// grows only when a single record needs more (at most 16 +
/// kMaxSaneRecordBytes), and records are handed out as views into it: no
/// per-record allocation.
class PcapReader {
 public:
  explicit PcapReader(const std::filesystem::path& path);

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  [[nodiscard]] std::uint32_t linktype() const noexcept { return linktype_; }
  [[nodiscard]] std::uint32_t snaplen() const noexcept { return snaplen_; }
  /// Next record, or nullopt at end-of-file (or on truncation/quarantine).
  /// The view is invalidated by the next call.
  [[nodiscard]] std::optional<PcapRecordView> next();
  /// True if the file ended mid-record.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }
  /// Records rejected for corrupt framing (insane length field).
  [[nodiscard]] std::uint64_t quarantined() const noexcept { return quarantined_; }
  /// Every remaining record, copied out of the buffer.
  [[nodiscard]] std::vector<PcapRecord> read_all();

 private:
  /// Makes at least `n` unread bytes available, moving the unread tail to
  /// the front of the buffer and reading more; false if the file ends first.
  bool fill(std::size_t n);
  [[nodiscard]] std::size_t unread() const noexcept { return end_ - pos_; }

  std::ifstream in_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< first unread byte of buf_
  std::size_t end_ = 0;  ///< one past the last byte read into buf_
  bool eof_ = false;     ///< the stream has nothing more to give
  std::uint32_t linktype_ = 0;
  std::uint32_t snaplen_ = 0;
  bool done_ = false;  ///< iteration latched closed (truncation or quarantine)
  bool truncated_ = false;
  std::uint64_t quarantined_ = 0;
  std::string error_;
};

}  // namespace mm::net80211
