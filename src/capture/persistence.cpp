#include "capture/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <system_error>
#include <thread>
#include <type_traits>

#include "fault/fault_injector.h"
#include "util/counters.h"
#include "util/csv.h"

namespace mm::capture {

namespace {

// Doubles in shortest round-trip form: to_chars guarantees the loader's stod
// gets the exact same double back, and it is orders of magnitude faster than
// stream formatting — checkpoints serialize every contact timestamp, so this
// sits on the Phoenix checkpoint path. 32 bytes hold any double or integer.
template <typename T>
  requires std::is_arithmetic_v<T>
void append_field(std::string& out, T value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// Text fields (MACs and SSIDs; an SSID is raw over-the-air bytes): control
// bytes and , " % | are written as %XX, so a field needs no quotes, a row
// stays one line, and a directed list splits back into the SSIDs it joined.
void append_field(std::string& out, const std::string& text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte == 0x7F || c == ',' || c == '"' || c == '%' || c == '|') {
      out += {'%', kHex[byte >> 4], kHex[byte & 0x0F]};
    } else {
      out += c;
    }
  }
}

/// A device's directed SSIDs, '|'-separated in one field.
void append_field(std::string& out, const std::vector<std::string>& ssids) {
  for (std::size_t i = 0; i < ssids.size(); ++i) {
    if (i != 0) out += '|';
    append_field(out, ssids[i]);
  }
}

/// A contact's instants, ';'-separated in one field.
void append_field(std::string& out, const std::vector<sim::SimTime>& times) {
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (i != 0) out += ';';
    append_field(out, times[i]);
  }
}

template <typename... Fields>
void append_row(std::string& out, const char* tag, const Fields&... fields) {
  out += tag;
  ((out += ',', append_field(out, fields)), ...);
  out += '\n';
}

/// Inverse of the text-field escape. A '%' without two hex digits after it
/// stays as it is: files written before the escape carry it bare.
std::string unescape_text(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    unsigned char byte = 0;
    const char* hex = text.data() + i + 1;
    if (text[i] == '%' && i + 2 < text.size() &&
        std::from_chars(hex, hex + 2, byte, 16).ptr == hex + 2) {
      out += static_cast<char>(byte);
      i += 2;
    } else {
      out += text[i];
    }
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

/// Writes `text` to `tmp` and fsyncs; returns an error message or "".
std::string write_and_sync(const std::filesystem::path& tmp, const std::string& text) {
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot create " + tmp.string();
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) return "write failed on " + tmp.string();
  }
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0) return "cannot reopen " + tmp.string() + " for fsync";
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return "fsync failed on " + tmp.string();
  return "";
}

void quarantine(LoadStats& stats, std::size_t row, const std::string& reason) {
  util::sat_inc(stats.quarantined);
  if (stats.sample_errors.size() < 8) {
    stats.sample_errors.push_back("row " + std::to_string(row) + ": " + reason);
  }
}

}  // namespace

void observations_csv(const ObservationStore& store, std::string& out) {
  for (const auto& mac : store.devices()) {
    const DeviceRecord* rec = store.device(mac);
    append_row(out, "device", mac.to_string(), rec->first_seen, rec->last_seen,
               rec->probe_requests, rec->directed_ssids, rec->seq_frames,
               rec->first_seq, rec->first_seq_time, rec->last_seq, rec->last_seq_time);
    for (const auto& [ap, contact] : rec->contacts) {
      append_row(out, "contact", mac.to_string(), ap.to_string(), contact.first_seen,
                 contact.last_seen, contact.count, contact.last_rssi_dbm, contact.times);
    }
  }
  for (const ApSighting& sighting : store.ap_sightings()) {
    append_row(out, "sighting", sighting.bssid.to_string(), sighting.ssid,
               sighting.channel, sighting.beacons, sighting.last_rssi_dbm);
  }
}

util::Result<SaveStats> save_observations(const ObservationStore& store,
                                          const std::filesystem::path& path,
                                          const SaveOptions& options) {
  using R = util::Result<SaveStats>;
  std::string text;
  observations_csv(store, text);
  const std::filesystem::path tmp = path.string() + ".tmp";

  std::string last_error;
  const int attempts = std::max(1, options.max_attempts);
  double backoff = options.backoff_s;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last_error = write_and_sync(tmp, text);
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
      if (!ec) return SaveStats{attempt};
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
  return parse_observations(in, store_options);
}

LoadResult parse_observations(std::istream& in,
                              const ObservationStoreOptions& store_options) {
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
        !util::parse_int_field(row[4], rec.probe_requests)) {
      quarantine(stats, i, "malformed device row");
      continue;
    }
    rec.mac = *mac;
    for (const std::string& ssid : split(row[5], '|')) {
      rec.directed_ssids.push_back(unescape_text(ssid));
    }
    // Sequence-trace columns (Chimera). Absent on pre-Chimera snapshots —
    // an old save restores with no seq evidence rather than quarantining.
    if (row.size() >= 11 &&
        (!util::parse_int_field(row[6], rec.seq_frames) ||
         !util::parse_int_field(row[7], rec.first_seq) ||
         !util::parse_double_field(row[8], rec.first_seq_time) ||
         !util::parse_int_field(row[9], rec.last_seq) ||
         !util::parse_double_field(row[10], rec.last_seq_time) || rec.first_seq > 0x0FFF ||
         rec.last_seq > 0x0FFF)) {
      quarantine(stats, i, "malformed device seq trace");
      continue;
    }
    devices[rec.mac] = std::move(rec);
    ++stats.rows_loaded;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.empty() || row[0] == "device") continue;
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
          !util::parse_int_field(row[5], contact.count) ||
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
      if (!bssid || !util::parse_int_field(row[3], sighting.channel) ||
          !util::parse_int_field(row[4], sighting.beacons) ||
          !util::parse_double_field(row[5], sighting.last_rssi_dbm)) {
        quarantine(stats, i, "malformed sighting row");
        continue;
      }
      sighting.bssid = *bssid;
      sighting.ssid = unescape_text(row[2]);
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
                                                 SaveOptions options)
    : store_(store), path_(std::move(path)), options_(options) {}

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
