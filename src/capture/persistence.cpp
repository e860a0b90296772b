#include "capture/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <fstream>
#include <system_error>
#include <thread>

#include "fault/fault_injector.h"
#include "util/counters.h"
#include "util/csv.h"

namespace mm::capture {

namespace {

std::string fmt(double value) {
  // Shortest round-trip form: to_chars guarantees the loader's stod gets the
  // exact same double back, and it is orders of magnitude faster than
  // stream formatting — checkpoints serialize every contact timestamp, so
  // this sits on the Phoenix checkpoint path.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  std::size_t begin = 0;
  while (true) {
    const auto end = text.find(sep, begin);
    out.push_back(text.substr(begin, end - begin));
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

std::vector<util::CsvRow> serialize_store(const ObservationStore& store) {
  std::vector<util::CsvRow> rows;
  for (const auto& mac : store.devices()) {
    const DeviceRecord* rec = store.device(mac);
    rows.push_back({"device", mac.to_string(), fmt(rec->first_seen), fmt(rec->last_seen),
                    std::to_string(rec->probe_requests), join(rec->directed_ssids, '|'),
                    std::to_string(rec->seq_frames), std::to_string(rec->first_seq),
                    fmt(rec->first_seq_time), std::to_string(rec->last_seq),
                    fmt(rec->last_seq_time)});
    for (const auto& [ap, contact] : rec->contacts) {
      std::vector<std::string> times;
      times.reserve(contact.times.size());
      for (const sim::SimTime t : contact.times) times.push_back(fmt(t));
      rows.push_back({"contact", mac.to_string(), ap.to_string(), fmt(contact.first_seen),
                      fmt(contact.last_seen), std::to_string(contact.count),
                      fmt(contact.last_rssi_dbm), join(times, ';')});
    }
  }
  for (const ApSighting& sighting : store.ap_sightings()) {
    rows.push_back({"sighting", sighting.bssid.to_string(), sighting.ssid,
                    std::to_string(sighting.channel), std::to_string(sighting.beacons),
                    fmt(sighting.last_rssi_dbm)});
  }
  return rows;
}

/// Writes rows to `tmp` and fsyncs; returns an error message or "".
std::string write_and_sync(const std::filesystem::path& tmp,
                           const std::vector<util::CsvRow>& rows, bool do_fsync) {
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot create " + tmp.string();
    // One buffered pass: join into a text block and hand the stream large
    // writes instead of one formatted write per row.
    std::string block;
    block.reserve(1u << 16);
    for (const util::CsvRow& row : rows) {
      block += util::csv_join(row);
      block += '\n';
      if (block.size() >= (1u << 16)) {
        out.write(block.data(), static_cast<std::streamsize>(block.size()));
        block.clear();
      }
    }
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
    out.flush();
    if (!out) return "write failed on " + tmp.string();
  }
  if (do_fsync) {
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd < 0) return "cannot reopen " + tmp.string() + " for fsync";
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return "fsync failed on " + tmp.string();
  }
  return "";
}

bool parse_u64_field(const std::string& text, std::uint64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoull(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_int_field(const std::string& text, int& out) {
  try {
    std::size_t used = 0;
    out = std::stoi(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

void quarantine(LoadStats& stats, std::size_t row, const std::string& reason) {
  util::sat_inc(stats.quarantined);
  if (stats.sample_errors.size() < 8) {
    stats.sample_errors.push_back("row " + std::to_string(row) + ": " + reason);
  }
}

}  // namespace

util::Result<SaveStats> save_observations(const ObservationStore& store,
                                          const std::filesystem::path& path,
                                          const SaveOptions& options) {
  using R = util::Result<SaveStats>;
  const std::vector<util::CsvRow> rows = serialize_store(store);
  const std::filesystem::path tmp = path.string() + ".tmp";

  std::string last_error;
  const int attempts = std::max(1, options.max_attempts);
  double backoff = options.backoff_s;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last_error = write_and_sync(tmp, rows, options.fsync);
    if (last_error.empty() && options.injector != nullptr &&
        options.injector->should_tear_write()) {
      // Simulated crash: the temp file is chopped mid-byte and the process
      // "dies" before rename — the previous snapshot at `path` survives.
      options.injector->tear_file(tmp);
      return R::failure("save_observations: torn write (crash before rename) on " +
                        tmp.string());
    }
    if (last_error.empty()) {
      std::error_code ec;
      std::filesystem::rename(tmp, path, ec);
      if (!ec) return SaveStats{rows.size(), attempt};
      last_error = "rename to " + path.string() + " failed: " + ec.message();
    }
    if (attempt < attempts) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff *= 2.0;
    }
  }
  return R::failure("save_observations: " + last_error + " after " +
                    std::to_string(attempts) + " attempts");
}

util::Result<LoadResult> load_observations(const std::filesystem::path& path,
                                           const ObservationStoreOptions& store_options) {
  using R = util::Result<LoadResult>;
  std::ifstream in(path);
  if (!in) return R::failure("load_observations: cannot open " + path.string());

  // Parse line-by-line (rather than whole-file) so one damaged line — e.g.
  // the torn tail of an interrupted write — quarantines that line only.
  std::vector<util::CsvRow> rows;
  std::string line;
  LoadResult result;
  result.store = ObservationStore(store_options);
  LoadStats& stats = result.stats;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    try {
      rows.push_back(util::csv_parse_line(line));
    } catch (const std::exception& e) {
      rows.push_back({});  // placeholder keeps row numbering stable
      quarantine(stats, rows.size() - 1, e.what());
    }
  }
  stats.rows_total = rows.size();

  // Two passes: devices first so contacts can attach to them.
  std::map<net80211::MacAddress, DeviceRecord> devices;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.empty() || row[0] != "device") continue;
    if (row.size() < 6) {
      quarantine(stats, i, "short device row");
      continue;
    }
    const auto mac = net80211::MacAddress::parse(row[1]);
    DeviceRecord rec;
    if (!mac || !util::parse_double_field(row[2], rec.first_seen) ||
        !util::parse_double_field(row[3], rec.last_seen) ||
        !parse_u64_field(row[4], rec.probe_requests)) {
      quarantine(stats, i, "malformed device row");
      continue;
    }
    rec.mac = *mac;
    rec.directed_ssids = split(row[5], '|');
    // Sequence-trace columns (Chimera). Absent on pre-Chimera snapshots —
    // an old save restores with no seq evidence rather than quarantining.
    if (row.size() >= 11) {
      std::uint64_t first_seq = 0;
      std::uint64_t last_seq = 0;
      if (!parse_u64_field(row[6], rec.seq_frames) || !parse_u64_field(row[7], first_seq) ||
          !util::parse_double_field(row[8], rec.first_seq_time) ||
          !parse_u64_field(row[9], last_seq) ||
          !util::parse_double_field(row[10], rec.last_seq_time) || first_seq > 0x0FFF ||
          last_seq > 0x0FFF) {
        quarantine(stats, i, "malformed device seq trace");
        continue;
      }
      rec.first_seq = static_cast<std::uint16_t>(first_seq);
      rec.last_seq = static_cast<std::uint16_t>(last_seq);
    }
    devices[rec.mac] = std::move(rec);
    ++stats.rows_loaded;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.empty()) continue;
    if (row[0] == "device") continue;
    if (row[0] == "contact") {
      if (row.size() < 8) {
        quarantine(stats, i, "short contact row");
        continue;
      }
      const auto device = net80211::MacAddress::parse(row[1]);
      const auto ap = net80211::MacAddress::parse(row[2]);
      if (!device || !ap) {
        quarantine(stats, i, "bad MAC in contact row");
        continue;
      }
      const auto it = devices.find(*device);
      if (it == devices.end()) {
        // The device row was itself lost/damaged: the contact has nothing
        // to attach to. Quarantine it rather than fail the whole load.
        quarantine(stats, i, "contact for unknown device " + device->to_string());
        continue;
      }
      ApContact contact;
      if (!util::parse_double_field(row[3], contact.first_seen) ||
          !util::parse_double_field(row[4], contact.last_seen) ||
          !parse_u64_field(row[5], contact.count) ||
          !util::parse_double_field(row[6], contact.last_rssi_dbm)) {
        quarantine(stats, i, "malformed contact row");
        continue;
      }
      bool times_ok = true;
      for (const std::string& t : split(row[7], ';')) {
        double value = 0.0;
        if (!util::parse_double_field(t, value)) {
          times_ok = false;
          break;
        }
        contact.times.push_back(value);
      }
      if (!times_ok) {
        quarantine(stats, i, "malformed contact timeline");
        continue;
      }
      it->second.contacts[*ap] = std::move(contact);
      ++stats.rows_loaded;
    } else if (row[0] == "sighting") {
      if (row.size() < 6) {
        quarantine(stats, i, "short sighting row");
        continue;
      }
      const auto bssid = net80211::MacAddress::parse(row[1]);
      ApSighting sighting;
      if (!bssid || !parse_int_field(row[3], sighting.channel) ||
          !parse_u64_field(row[4], sighting.beacons) ||
          !util::parse_double_field(row[5], sighting.last_rssi_dbm)) {
        quarantine(stats, i, "malformed sighting row");
        continue;
      }
      sighting.bssid = *bssid;
      sighting.ssid = row[2];
      result.store.restore_sighting(std::move(sighting));
      ++stats.rows_loaded;
    } else {
      quarantine(stats, i, "unknown row tag '" + row[0] + "'");
    }
  }
  for (auto& [mac, rec] : devices) result.store.restore_device(std::move(rec));
  return result;
}

ObservationCheckpointer::ObservationCheckpointer(const ObservationStore* store,
                                                 std::filesystem::path path,
                                                 double interval_s, SaveOptions options)
    : store_(store), path_(std::move(path)), interval_s_(interval_s),
      options_(options) {}

bool ObservationCheckpointer::maybe_checkpoint(double now) {
  if (!anchored_) {
    anchored_ = true;
    last_ = now;
    return false;
  }
  if (now - last_ < interval_s_) return false;
  last_ = now;  // advance even on failure so a broken disk isn't hammered
  const auto result = checkpoint_now();
  return result.ok();
}

util::Result<SaveStats> ObservationCheckpointer::checkpoint_now() {
  auto result = save_observations(*store_, path_, options_);
  if (result.ok()) {
    ++written_;
  } else {
    ++failures_;
  }
  return result;
}

}  // namespace mm::capture
