#include "pipeline/live_feed.h"

#include "net80211/pcap.h"
#include "util/counters.h"

namespace mm::pipeline {

util::Result<LiveFeedStats> feed_pcap(const std::filesystem::path& path,
                                      LiveTracker& tracker,
                                      const LiveFeedOptions& options) {
  using R = util::Result<LiveFeedStats>;
  net80211::PcapReader reader(path);
  if (!reader.ok()) return R::failure("feed_pcap: " + reader.error());
  if (reader.linktype() != net80211::kLinktypeRadiotap) {
    return R::failure("feed_pcap: expected radiotap linktype 127, got " +
                      std::to_string(reader.linktype()));
  }

  capture::RecordFaults faults(options.fault_plan);
  sim::ReplayClock clock(options.speed);

  LiveFeedStats stats;
  std::uint64_t next_seq = 0;
  while (auto record = reader.next()) {
    if (options.stop != nullptr && options.stop->load(std::memory_order_acquire)) {
      stats.interrupted = true;
      break;
    }
    ++stats.replay.records;
    const int deliveries = faults.apply(*record);
    for (int i = 0; i < deliveries; ++i) {
      const auto decoded = capture::decode_record(*record);
      if (!decoded) {
        util::sat_inc(stats.replay.malformed);
        continue;
      }
      capture::count_frame_class(decoded->cls, stats.replay);
      if (!decoded->has_event) continue;
      clock.wait_until(decoded->event.time_s);
      // Sequences are consumed per *event*, dropped or not (a full ring must
      // not shift the numbering of everything behind it), and each injected
      // duplicate gets its own — the dedup cursor must not confuse the two
      // deliveries.
      capture::FrameEvent event = decoded->event;
      event.stream_seq = ++next_seq;
      if (tracker.push(event)) {
        ++stats.pushed;
      } else {
        util::sat_inc(stats.dropped);
      }
    }
  }
  stats.replay.framing_quarantined = reader.quarantined();
  stats.replay.truncated_tail = reader.truncated();
  stats.replay.faults = faults.stats();
  return stats;
}

}  // namespace mm::pipeline
