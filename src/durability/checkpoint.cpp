#include "durability/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "durability/crc32c.h"

namespace mm::durability {

namespace {

std::string seq_digits(std::uint64_t seq) {
  std::string digits = std::to_string(seq);
  return std::string(20 - std::min<std::size_t>(20, digits.size()), '0') + digits;
}

std::filesystem::path obs_path(const std::filesystem::path& dir, std::uint64_t seq) {
  return dir / ("ckpt-" + seq_digits(seq) + ".obs");
}

std::filesystem::path meta_path(const std::filesystem::path& dir, std::uint64_t seq) {
  return dir / ("ckpt-" + seq_digits(seq) + ".meta");
}

bool parse_meta_name(const std::filesystem::path& path, std::uint64_t& seq) {
  const std::string name = path.filename().string();
  if (name.size() != 30 || name.rfind("ckpt-", 0) != 0 ||
      name.compare(25, 5, ".meta") != 0) {
    return false;
  }
  std::uint64_t out = 0;
  for (std::size_t i = 5; i < 25; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  seq = out;
  return true;
}

std::string render_meta(const CheckpointMeta& meta) {
  std::ostringstream body;
  body << "mmckpt v1\n"
       << "shard=" << meta.shard << "\n"
       << "shard_count=" << meta.shard_count << "\n"
       << "applied_seq=" << meta.applied_seq << "\n"
       << "frames=" << meta.frames << "\n"
       << "contacts=" << meta.contacts << "\n"
       << "publishes=" << meta.publishes << "\n";
  std::string text = body.str();
  const std::uint32_t crc = crc32c(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
  char tail[32];
  std::snprintf(tail, sizeof(tail), "crc=%08x\n", crc);
  return text + tail;
}

bool parse_u64_field(const std::string& line, const char* key, std::uint64_t& out) {
  const std::size_t key_len = std::strlen(key);
  if (line.compare(0, key_len, key) != 0 || line.size() <= key_len ||
      line[key_len] != '=') {
    return false;
  }
  const char* begin = line.data() + key_len + 1;
  const char* end = line.data() + line.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_meta_text(const std::string& text, CheckpointMeta& out) {
  // The crc line guards everything above it.
  const std::size_t crc_at = text.rfind("crc=");
  if (crc_at == std::string::npos || text.size() - crc_at != 13 ||
      text.back() != '\n') {
    return false;
  }
  std::uint32_t stated = 0;
  {
    const std::string hex = text.substr(crc_at + 4, 8);
    auto [ptr, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), stated, 16);
    if (ec != std::errc{} || ptr != hex.data() + hex.size()) return false;
  }
  if (crc32c({reinterpret_cast<const std::uint8_t*>(text.data()), crc_at}) != stated) {
    return false;
  }
  std::istringstream lines(text.substr(0, crc_at));
  std::string line;
  if (!std::getline(lines, line) || line != "mmckpt v1") return false;
  std::uint64_t shard = 0;
  std::uint64_t shard_count = 0;
  bool ok = std::getline(lines, line) && parse_u64_field(line, "shard", shard);
  ok = ok && std::getline(lines, line) &&
       parse_u64_field(line, "shard_count", shard_count);
  ok = ok && std::getline(lines, line) &&
       parse_u64_field(line, "applied_seq", out.applied_seq);
  ok = ok && std::getline(lines, line) && parse_u64_field(line, "frames", out.frames);
  ok = ok && std::getline(lines, line) &&
       parse_u64_field(line, "contacts", out.contacts);
  ok = ok && std::getline(lines, line) &&
       parse_u64_field(line, "publishes", out.publishes);
  if (!ok || shard > 0xFFFFFFFFull || shard_count > 0xFFFFFFFFull) return false;
  out.shard = static_cast<std::uint32_t>(shard);
  out.shard_count = static_cast<std::uint32_t>(shard_count);
  return true;
}

void prune_checkpoints(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> metas = list_checkpoint_metas(dir);
  if (metas.size() <= kCheckpointsKept) return;
  for (std::size_t i = 0; i + kCheckpointsKept < metas.size(); ++i) {
    std::uint64_t seq = 0;
    if (!parse_meta_name(metas[i], seq)) continue;
    std::error_code ec;
    // Meta first: once it is gone the obs file is an ignorable orphan, so a
    // crash between the two removals cannot leave a meta without its obs.
    std::filesystem::remove(metas[i], ec);
    std::filesystem::remove(obs_path(dir, seq), ec);
  }
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

std::vector<std::filesystem::path> list_checkpoint_metas(
    const std::filesystem::path& dir) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (entry.is_regular_file(ec) && parse_meta_name(entry.path(), seq)) {
      found.emplace_back(seq, entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::filesystem::path> out;
  out.reserve(found.size());
  for (auto& [seq, path] : found) out.push_back(std::move(path));
  return out;
}

util::Result<bool> write_checkpoint(const std::filesystem::path& dir,
                                    const CheckpointMeta& meta,
                                    const capture::ObservationStore& store,
                                    const capture::SaveOptions& save_options) {
  using R = util::Result<bool>;
  auto saved = capture::save_observations(store, obs_path(dir, meta.applied_seq),
                                          save_options);
  if (!saved.ok()) return R::failure(saved.error());
  // The meta is the commit marker, written without save_observations' retry
  // machinery: the caller retries at the checkpoint cadence anyway.
  const std::string meta_text = render_meta(meta);
  auto marked = write_file_atomic(meta_path(dir, meta.applied_seq),
                                  std::as_bytes(std::span(meta_text)), save_options.fsync);
  if (!marked.ok()) return R::failure("checkpoint: " + marked.error());
  prune_checkpoints(dir);
  return true;
}

util::Result<std::optional<LoadedCheckpoint>> load_latest_checkpoint(
    const std::filesystem::path& dir,
    const capture::ObservationStoreOptions& store_options) {
  using R = util::Result<std::optional<LoadedCheckpoint>>;
  std::vector<std::filesystem::path> metas = list_checkpoint_metas(dir);
  std::size_t damaged = 0;
  for (auto it = metas.rbegin(); it != metas.rend(); ++it) {
    std::ifstream in(*it, std::ios::binary);
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    CheckpointMeta meta;
    if (!in || !parse_meta_text(text, meta)) {
      ++damaged;
      continue;
    }
    std::uint64_t named_seq = 0;
    if (!parse_meta_name(*it, named_seq) || named_seq != meta.applied_seq) {
      ++damaged;
      continue;
    }
    auto loaded =
        capture::load_observations(obs_path(dir, meta.applied_seq), store_options);
    if (!loaded.ok()) {
      ++damaged;
      continue;
    }
    capture::LoadResult result = std::move(loaded).value();
    LoadedCheckpoint out;
    out.meta = meta;
    out.store = std::move(result.store);
    out.load_stats = std::move(result.stats);
    out.damaged_skipped = damaged;
    return R(std::optional<LoadedCheckpoint>(std::move(out)));
  }
  return R(std::optional<LoadedCheckpoint>{});
}

}  // namespace mm::durability
