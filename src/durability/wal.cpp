#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>

#include "durability/crc32c.h"
#include "fault/fault_injector.h"
#include "net80211/mac_address.h"
#include "util/bytes.h"
#include "util/counters.h"

namespace mm::durability {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'M', 'M', 'W', 'A', 'L', 'S', 'E', 'G'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4;  // magic, ver, shard, seq, crc
constexpr std::size_t kFrameHeaderBytes = 8;             // len + crc per record

std::string segment_name(std::uint64_t first_seq) {
  std::string digits = std::to_string(first_seq);
  return "seg-" + std::string(20 - std::min<std::size_t>(20, digits.size()), '0') +
         digits + ".wal";
}

/// First sequence from a segment file name; false when the name is foreign.
bool parse_segment_name(const std::filesystem::path& path, std::uint64_t& first_seq) {
  const std::string name = path.filename().string();
  if (name.size() != 28 || name.rfind("seg-", 0) != 0 ||
      name.compare(24, 4, ".wal") != 0) {
    return false;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = 4; i < 24; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  first_seq = seq;
  return true;
}

/// Full write loop over a POSIX fd; false on any error.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) noexcept {
  std::size_t done = 0;
  while (done < size) {
    const ::ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void encode_wal_payload(const WalRecord& record, std::uint8_t* out) noexcept {
  encode_wal_payload(record.seq, record.event, out);
}

void encode_wal_payload(std::uint64_t seq, const capture::FrameEvent& e,
                        std::uint8_t* out) noexcept {
  util::store_u64(out, seq);
  out[8] = static_cast<std::uint8_t>(e.kind);
  util::store_u64(out + 9, e.device.to_u64());
  util::store_u64(out + 17, e.ap.to_u64());
  util::store_f64(out + 25, e.time_s);
  util::store_f64(out + 33, e.rssi_dbm);
  util::store_u16(out + 41, static_cast<std::uint16_t>(e.channel));
  out[43] = e.has_ssid ? 1 : 0;
  out[44] = e.ssid_len;
  std::memcpy(out + 45, e.ssid, capture::FrameEvent::kMaxSsid);
  util::store_u32(out + 77, static_cast<std::uint32_t>(e.device_seq));
}

bool decode_wal_payload(std::span<const std::uint8_t> payload, WalRecord& out) noexcept {
  if (payload.size() != kWalPayloadBytes) return false;
  const std::uint8_t* p = payload.data();
  const std::uint8_t kind = p[8];
  if (kind > static_cast<std::uint8_t>(capture::FrameEventKind::kBeacon)) return false;
  const std::uint8_t has_ssid = p[43];
  const std::uint8_t ssid_len = p[44];
  if (has_ssid > 1 || ssid_len > capture::FrameEvent::kMaxSsid) return false;
  const std::uint32_t device_seq = util::load_u32(p + 77);
  // device_seq is either "none" (-1) or a 12-bit on-air sequence number.
  if (device_seq != 0xFFFFFFFFu && device_seq > 0x0FFF) return false;
  out.seq = util::load_u64(p);
  capture::FrameEvent& e = out.event;
  e.kind = static_cast<capture::FrameEventKind>(kind);
  e.device = net80211::MacAddress::from_u64(util::load_u64(p + 9));
  e.ap = net80211::MacAddress::from_u64(util::load_u64(p + 17));
  e.time_s = util::load_f64(p + 25);
  e.rssi_dbm = util::load_f64(p + 33);
  e.channel = static_cast<std::int16_t>(util::load_u16(p + 41));
  e.has_ssid = has_ssid != 0;
  e.ssid_len = ssid_len;
  std::memcpy(e.ssid, p + 45, capture::FrameEvent::kMaxSsid);
  e.device_seq = static_cast<std::int32_t>(device_seq);
  e.stream_seq = out.seq;
  return true;
}

WalWriter::WalWriter(std::filesystem::path dir, std::uint32_t shard,
                     WalWriterOptions options)
    : dir_(std::move(dir)), shard_(shard), options_(options) {
  if (options_.commit_every_records == 0) options_.commit_every_records = 1;
  buffer_.reserve(options_.commit_every_records *
                  (kFrameHeaderBytes + kWalPayloadBytes));
}

WalWriter::~WalWriter() {
  (void)seal();
  close_fd();
}

void WalWriter::close_fd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<bool> WalWriter::open_segment(std::uint64_t first_seq) {
  using R = util::Result<bool>;
  segment_path_ = dir_ / segment_name(first_seq);
  fd_ = ::open(segment_path_.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd_ < 0) {
    failed_ = true;
    return R::failure("wal: cannot create " + segment_path_.string());
  }
  std::array<std::uint8_t, kHeaderBytes> header{};
  std::memcpy(header.data(), kMagic.data(), kMagic.size());
  util::store_u32(header.data() + 8, kVersion);
  util::store_u32(header.data() + 12, shard_);
  util::store_u64(header.data() + 16, first_seq);
  util::store_u32(header.data() + 24, crc32c({header.data(), kHeaderBytes - 4}));
  if (!write_all(fd_, header.data(), header.size())) {
    failed_ = true;
    close_fd();
    return R::failure("wal: header write failed on " + segment_path_.string());
  }
  segment_committed_bytes_ = header.size();
  util::sat_inc(stats_.segments_opened);
  return true;
}

util::Result<bool> WalWriter::append(const WalRecord& record) {
  return append(record.seq, record.event);
}

util::Result<bool> WalWriter::append(std::uint64_t seq,
                                     const capture::FrameEvent& event) {
  using R = util::Result<bool>;
  if (failed_) {
    util::sat_inc(stats_.append_failures);
    return R::failure("wal: writer is dead after a previous failure");
  }
  if (fd_ < 0) {
    // Lazy open: the segment is named by the first sequence it holds, which
    // is only known now.
    if (auto opened = open_segment(seq); !opened.ok()) return opened;
  }
  // Encode straight into the commit buffer: frame header, then payload, then
  // the CRC back-patched over the payload just written. One pass, no staging.
  const std::size_t base = buffer_.size();
  buffer_.resize(base + kFrameHeaderBytes + kWalPayloadBytes);
  std::uint8_t* frame = buffer_.data() + base;
  std::uint8_t* payload = frame + kFrameHeaderBytes;
  encode_wal_payload(seq, event, payload);
  util::store_u32(frame, static_cast<std::uint32_t>(kWalPayloadBytes));
  util::store_u32(frame + 4, crc32c({payload, kWalPayloadBytes}));
  ++buffered_records_;
  buffered_last_seq_ = seq;
  util::sat_inc(stats_.records);
  if (buffered_records_ >= options_.commit_every_records) {
    if (auto committed = commit(); !committed.ok()) return committed;
    if (segment_committed_bytes_ >= options_.segment_bytes) return seal();
  }
  return true;
}

util::Result<bool> WalWriter::commit() {
  using R = util::Result<bool>;
  if (failed_) return R::failure("wal: writer is dead after a previous failure");
  if (buffer_.empty()) return true;
  if (fd_ < 0) return R::failure("wal: commit with no open segment");
  if (!write_all(fd_, buffer_.data(), buffer_.size())) {
    failed_ = true;
    util::sat_inc(stats_.append_failures);
    return R::failure("wal: write failed on " + segment_path_.string());
  }
  if (options_.injector != nullptr && options_.injector->should_tear_write()) {
    // Simulated crash mid-commit: the tail of the segment is chopped at a
    // random byte and the writer "dies" — recovery must truncate there.
    close_fd();
    options_.injector->tear_file(segment_path_);
    failed_ = true;
    util::sat_inc(stats_.append_failures);
    return R::failure("wal: torn write (crash mid-commit) on " +
                      segment_path_.string());
  }
  if (options_.fsync_on_commit) {
    if (::fsync(fd_) != 0) {
      failed_ = true;
      return R::failure("wal: fsync failed on " + segment_path_.string());
    }
    util::sat_inc(stats_.fsyncs);
  }
  segment_committed_bytes_ += buffer_.size();
  util::sat_inc(stats_.committed_bytes, buffer_.size());
  util::sat_inc(stats_.commits);
  stats_.last_committed_seq = buffered_last_seq_;
  buffer_.clear();
  buffered_records_ = 0;
  return true;
}

util::Result<bool> WalWriter::seal() {
  if (fd_ < 0 && buffer_.empty()) return true;
  if (auto committed = commit(); !committed.ok()) {
    close_fd();
    return committed;
  }
  if (fd_ >= 0 && !options_.fsync_on_commit) {
    // A sealed segment is a durability boundary even when per-commit fsync
    // is off (rotation is rare; this is cheap).
    if (::fsync(fd_) == 0) util::sat_inc(stats_.fsyncs);
  }
  close_fd();
  return true;
}

SegmentReadResult read_wal_segment_bytes(std::span<const std::uint8_t> bytes) {
  SegmentReadResult out;
  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0 ||
      util::load_u32(bytes.data() + 8) != kVersion ||
      util::load_u32(bytes.data() + 24) != crc32c({bytes.data(), kHeaderBytes - 4})) {
    out.torn = bytes.size() > 0;
    out.discarded_bytes = bytes.size();
    return out;
  }
  out.header_ok = true;
  out.shard = util::load_u32(bytes.data() + 12);
  out.first_seq = util::load_u64(bytes.data() + 16);

  std::size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < kFrameHeaderBytes) break;  // torn mid-frame-header
    const std::uint32_t len = util::load_u32(bytes.data() + pos);
    if (len == 0 || len > kWalMaxPayloadBytes || remaining - kFrameHeaderBytes < len) {
      break;  // nonsense length or torn mid-payload
    }
    const std::span<const std::uint8_t> payload{bytes.data() + pos + kFrameHeaderBytes,
                                                len};
    if (util::load_u32(bytes.data() + pos + 4) != crc32c(payload)) break;
    WalRecord record;
    if (!decode_wal_payload(payload, record)) break;
    out.records.push_back(record);
    pos += kFrameHeaderBytes + len;
  }
  if (pos < bytes.size()) {
    out.torn = true;
    out.discarded_bytes = bytes.size() - pos;
    // At least one frame was lost; the exact count inside the torn bytes is
    // unknowable once framing is gone.
    out.discarded_records = 1;
  }
  return out;
}

util::Result<SegmentReadResult> read_wal_segment(const std::filesystem::path& path) {
  using R = util::Result<SegmentReadResult>;
  std::ifstream in(path, std::ios::binary);
  if (!in) return R::failure("wal: cannot open " + path.string());
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (in.bad()) return R::failure("wal: read failed on " + path.string());
  return read_wal_segment_bytes(bytes);
}

std::vector<std::filesystem::path> list_wal_segments(const std::filesystem::path& dir) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t first_seq = 0;
    if (entry.is_regular_file(ec) && parse_segment_name(entry.path(), first_seq)) {
      found.emplace_back(first_seq, entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::filesystem::path> out;
  out.reserve(found.size());
  for (auto& [seq, path] : found) out.push_back(std::move(path));
  return out;
}

util::Result<WalReplayStats> replay_wal(
    const std::filesystem::path& dir, std::uint64_t from_seq,
    const std::function<void(const WalRecord&)>& apply) {
  using R = util::Result<WalReplayStats>;
  WalReplayStats stats;
  stats.max_seq = from_seq;
  const std::vector<std::filesystem::path> segments = list_wal_segments(dir);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    auto read = read_wal_segment(segments[i]);
    if (!read.ok()) return R::failure(read.error());
    const SegmentReadResult& seg = read.value();
    ++stats.segments_read;
    util::sat_inc(stats.discarded_bytes, seg.discarded_bytes);
    util::sat_inc(stats.discarded_records, seg.discarded_records);
    for (const WalRecord& record : seg.records) {
      ++stats.records_seen;
      if (record.seq <= stats.max_seq) {
        // Covered by the checkpoint (or a duplicate from a superseded
        // writer): already part of the recovered state.
        ++stats.records_skipped;
        continue;
      }
      apply(record);
      ++stats.records_replayed;
      stats.max_seq = record.seq;
    }
    if (seg.torn || !seg.header_ok) {
      ++stats.torn_tails;
      if (i + 1 < segments.size()) {
        // A hole in the middle of the log: later segments would replay out
        // of order across missing records. Abandon them, loudly.
        stats.segments_abandoned = segments.size() - i - 1;
        break;
      }
    }
  }
  return stats;
}

std::size_t reclaim_wal_segments(const std::filesystem::path& dir,
                                 std::uint64_t applied_seq) {
  const std::vector<std::filesystem::path> segments = list_wal_segments(dir);
  std::size_t reclaimed = 0;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    std::uint64_t next_first = 0;
    if (!parse_segment_name(segments[i + 1], next_first)) break;
    // Every record in segment i has seq < next_first; covered iff that whole
    // range is at or below the checkpoint.
    if (next_first == 0 || next_first - 1 > applied_seq) break;
    std::error_code ec;
    if (std::filesystem::remove(segments[i], ec)) ++reclaimed;
  }
  return reclaimed;
}

}  // namespace mm::durability
