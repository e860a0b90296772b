#include "pipeline/live_feed.h"

#include "net80211/pcap.h"
#include "util/counters.h"

namespace mm::pipeline {

util::Result<LiveFeedStats> feed_pcap(const std::filesystem::path& path,
                                      LiveTracker& tracker,
                                      const LiveFeedOptions& options) {
  net80211::PcapReader reader(path);
  if (const auto error = capture::radiotap_error(reader)) {
    return util::Result<LiveFeedStats>::failure("feed_pcap: " + *error);
  }
  capture::RecordFaults faults(options.fault_plan);
  sim::ReplayClock clock(options.speed);
  LiveFeedStats stats;
  std::uint64_t next_seq = 0;
  stats.interrupted = capture::replay_records(
      reader, faults, stats.replay,
      [&](const capture::FrameEvent& decoded) {
        clock.wait_until(decoded.time_s);
        // Sequences are consumed per *event*, dropped or not (a full ring
        // must not shift the numbering of everything behind it), and each
        // injected duplicate gets its own — the dedup cursor must not
        // confuse the two deliveries.
        capture::FrameEvent event = decoded;
        event.stream_seq = ++next_seq;
        if (tracker.push(event)) {
          ++stats.pushed;
        } else {
          util::sat_inc(stats.dropped);
        }
      },
      options.stop);
  return stats;
}

}  // namespace mm::pipeline
