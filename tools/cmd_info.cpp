#include <iostream>
#include <map>

#include "capture/replay.h"
#include "commands.h"
#include "util/table.h"

namespace mm::tools {

int cmd_info(const util::Flags& flags) {
  const std::string pcap_path = flags.get("pcap", "");
  if (pcap_path.empty()) {
    std::cerr << "mmctl info: --pcap <capture.pcap> is required\n";
    return 2;
  }
  capture::ObservationStore store;
  const auto replayed = capture::replay_pcap(pcap_path, store);
  if (!replayed.ok()) {
    std::cerr << "mmctl info: " << replayed.error() << "\n";
    return 1;
  }
  const capture::ReplayStats& stats = replayed.value();

  util::Table summary({"metric", "value"});
  summary.add_row({"pcap records", std::to_string(stats.records)});
  summary.add_row({"malformed", std::to_string(stats.malformed)});
  summary.add_row({"framing quarantined", std::to_string(stats.framing_quarantined)});
  summary.add_row({"truncated tail", std::string(stats.truncated_tail ? "yes" : "no")});
  summary.add_row({"probe requests", std::to_string(stats.probe_requests)});
  summary.add_row({"probe responses", std::to_string(stats.probe_responses)});
  summary.add_row({"beacons", std::to_string(stats.beacons)});
  summary.add_row({"devices seen", std::to_string(store.device_count())});
  summary.add_row({"probing devices", std::to_string(store.probing_device_count())});
  summary.add_row({"APs sighted (beacons)", std::to_string(store.ap_sightings().size())});
  summary.print(std::cout);

  if (!store.ap_sightings().empty()) {
    std::map<int, int> channels;
    for (const capture::ApSighting& sighting : store.ap_sightings()) channels[sighting.channel]++;
    std::cout << "\nAP channel distribution:\n";
    util::Table dist({"channel", "APs"});
    for (const auto& [channel, count] : channels) {
      dist.add_row({std::to_string(channel), std::to_string(count)});
    }
    dist.print(std::cout);
  }

  std::cout << "\ntop devices by Gamma size:\n";
  util::Table devices({"mac", "|Gamma|", "probe requests", "directed SSIDs"});
  std::vector<std::pair<std::size_t, net80211::MacAddress>> ranked;
  for (const auto& mac : store.devices()) {
    ranked.emplace_back(store.gamma(mac).size(), mac);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(10, ranked.size()); ++i) {
    const capture::DeviceRecord* rec = store.device(ranked[i].second);
    std::string ssids;
    for (const auto& s : rec->directed_ssids) ssids += s + " ";
    devices.add_row({ranked[i].second.to_string(), std::to_string(ranked[i].first),
                     std::to_string(rec->probe_requests), ssids});
  }
  devices.print(std::cout);
  return 0;
}

}  // namespace mm::tools
