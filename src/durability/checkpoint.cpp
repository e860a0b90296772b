#include "durability/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "capture/persistence.h"
#include "durability/crc32c.h"

namespace mm::durability {

namespace {

constexpr std::string_view kPrefix = "ckpt-";
constexpr std::string_view kSuffix = ".ckpt";
constexpr std::size_t kSeqDigits = 20;
/// v1 was the retired .meta/.obs pair.
constexpr std::uint32_t kFormatVersion = 2;
/// "crc=" + 8 hex digits + '\n'.
constexpr std::size_t kTrailerBytes = 13;

std::filesystem::path checkpoint_path(const std::filesystem::path& dir,
                                      std::uint64_t seq) {
  const std::string digits = std::to_string(seq);
  return dir / (std::string(kPrefix) + std::string(kSeqDigits - digits.size(), '0') +
                digits + std::string(kSuffix));
}

bool parse_checkpoint_name(const std::filesystem::path& path, std::uint64_t& seq) {
  const std::string name = path.filename().string();
  if (name.size() != kPrefix.size() + kSeqDigits + kSuffix.size() ||
      !name.starts_with(kPrefix) || !name.ends_with(kSuffix)) {
    return false;
  }
  const char* digits = name.data() + kPrefix.size();
  const auto [ptr, ec] = std::from_chars(digits, digits + kSeqDigits, seq);
  return ec == std::errc{} && ptr == digits + kSeqDigits;
}

std::string render_header(const CheckpointMeta& meta) {
  return "mmckpt v" + std::to_string(kFormatVersion) +
         " shard=" + std::to_string(meta.shard) +
         " shard_count=" + std::to_string(meta.shard_count) +
         " applied_seq=" + std::to_string(meta.applied_seq) +
         " frames=" + std::to_string(meta.frames) +
         " contacts=" + std::to_string(meta.contacts) +
         " publishes=" + std::to_string(meta.publishes) + "\n";
}

bool parse_header(std::string_view line, CheckpointMeta& out) {
  const auto field = [&line](std::string_view key, auto& value) {
    if (!line.starts_with(key)) return false;
    line.remove_prefix(key.size());
    const auto [ptr, ec] = std::from_chars(line.data(), line.data() + line.size(), value);
    line.remove_prefix(static_cast<std::size_t>(ptr - line.data()));
    return ec == std::errc{};
  };
  std::uint32_t version = 0;
  return field("mmckpt v", version) && version == kFormatVersion &&
         field(" shard=", out.shard) && field(" shard_count=", out.shard_count) &&
         field(" applied_seq=", out.applied_seq) && field(" frames=", out.frames) &&
         field(" contacts=", out.contacts) && field(" publishes=", out.publishes) &&
         line.empty();
}

/// The trailer line that vouches for `covered`.
std::string crc_trailer(std::string_view covered) {
  char line[kTrailerBytes + 1];
  std::snprintf(line, sizeof(line), "crc=%08x\n",
                crc32c({reinterpret_cast<const std::uint8_t*>(covered.data()),
                        covered.size()}));
  return std::string(line, kTrailerBytes);
}

/// One checkpoint file, whole or not at all: nullopt on a bad trailer,
/// header or name, or on any row the parser quarantines.
std::optional<LoadedCheckpoint> load_checkpoint(
    const std::filesystem::path& path,
    const capture::ObservationStoreOptions& store_options) {
  std::ifstream file(path, std::ios::binary);
  std::string text{std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>()};
  if (!file || text.size() < kTrailerBytes) return std::nullopt;
  const std::size_t covered = text.size() - kTrailerBytes;
  if (text.compare(covered, kTrailerBytes,
                   crc_trailer(std::string_view(text).substr(0, covered))) != 0) {
    return std::nullopt;
  }
  text.resize(covered);
  std::istringstream in(std::move(text));
  std::string header;
  LoadedCheckpoint out;
  std::uint64_t named_seq = 0;
  if (!std::getline(in, header) || !parse_header(header, out.meta) ||
      !parse_checkpoint_name(path, named_seq) || named_seq != out.meta.applied_seq) {
    return std::nullopt;
  }
  capture::LoadResult parsed = capture::parse_observations(in, store_options);
  if (parsed.stats.quarantined != 0) return std::nullopt;
  out.store = std::move(parsed.store);
  return out;
}

/// Whether `dir` holds a commit marker of the retired two-file format.
bool holds_retired_pair(const std::filesystem::path& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(kPrefix) && name.ends_with(".meta")) return true;
  }
  return false;
}

}  // namespace

util::Result<bool> write_file_atomic(const std::filesystem::path& path,
                                     std::span<const std::byte> bytes, bool do_fsync) {
  using R = util::Result<bool>;
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return R::failure("cannot create " + tmp.string());
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      ::close(fd);
      return R::failure("write failed on " + tmp.string());
    }
    done += static_cast<std::size_t>(n);
  }
  if (do_fsync && ::fsync(fd) != 0) {
    ::close(fd);
    return R::failure("fsync failed on " + tmp.string());
  }
  ::close(fd);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return R::failure("rename failed on " + path.string());
  return true;
}

std::vector<std::filesystem::path> list_checkpoints(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (entry.is_regular_file(ec) && parse_checkpoint_name(entry.path(), seq)) {
      out.push_back(entry.path());
    }
  }
  // Names are zero-padded to one width, so name order is sequence order.
  std::sort(out.begin(), out.end());
  return out;
}

util::Result<std::uint64_t> write_checkpoint(const std::filesystem::path& dir,
                                             const CheckpointMeta& meta,
                                             const capture::ObservationStore& store) {
  using R = util::Result<std::uint64_t>;
  std::string text = render_header(meta);
  capture::observations_csv(store, text);
  text += crc_trailer(text);
  auto written = write_file_atomic(checkpoint_path(dir, meta.applied_seq),
                                   std::as_bytes(std::span(text)), /*do_fsync=*/true);
  if (!written.ok()) return R::failure("checkpoint: " + written.error());
  // Prune all but the newest kCheckpointsKept. The first one that stays
  // (a failed removal stays too) is the oldest recovery may fall back to.
  const std::vector<std::filesystem::path> listed = list_checkpoints(dir);
  std::uint64_t oldest_kept = meta.applied_seq;
  for (std::size_t i = 0; i < listed.size(); ++i) {
    std::error_code ec;
    if (i + kCheckpointsKept < listed.size() && std::filesystem::remove(listed[i], ec)) {
      continue;
    }
    parse_checkpoint_name(listed[i], oldest_kept);
    break;
  }
  return oldest_kept;
}

util::Result<std::optional<LoadedCheckpoint>> load_latest_checkpoint(
    const std::filesystem::path& dir,
    const capture::ObservationStoreOptions& store_options) {
  using R = util::Result<std::optional<LoadedCheckpoint>>;
  const std::vector<std::filesystem::path> listed = list_checkpoints(dir);
  for (auto it = listed.rbegin(); it != listed.rend(); ++it) {
    std::optional<LoadedCheckpoint> loaded = load_checkpoint(*it, store_options);
    if (!loaded) continue;
    // The newer files are damaged. Set them aside (best effort), so prune
    // no longer counts them and keeps this one as the next fallback.
    for (auto newer = listed.rbegin(); newer != it; ++newer) {
      std::error_code ec;
      std::filesystem::rename(*newer, newer->string() + ".damaged", ec);
    }
    loaded->damaged_skipped = static_cast<std::size_t>(it - listed.rbegin());
    return R(std::move(loaded));
  }
  // The WAL below the oldest checkpoint is reclaimed: replaying it from zero
  // would restore a partial store without a word.
  if (!listed.empty()) {
    return R::failure("no intact checkpoint in " + dir.string() + " (" +
                      std::to_string(listed.size()) + " damaged)");
  }
  if (holds_retired_pair(dir)) {
    return R::failure(dir.string() + " holds checkpoints in the retired .meta/.obs format");
  }
  return R(std::optional<LoadedCheckpoint>{});
}

}  // namespace mm::durability
