#include <iostream>
#include <sstream>

#include "commands.h"
#include "fault/fault_plan.h"
#include "live_engine.h"
#include "pipeline/live_feed.h"
#include "pipeline/supervisor.h"

namespace mm::tools {

int cmd_live(const util::Flags& flags) {
  const std::string pcap_path = flags.get("pcap", "");
  if (pcap_path.empty() || flags.get("apdb", "").empty()) {
    std::cerr << "mmctl live: --pcap and --apdb are required\n";
    return 2;
  }
  pipeline::LiveFeedOptions feed_options;
  feed_options.speed = flags.get_double("speed", 0.0);
  feed_options.stop = &LiveEngine::stop_flag();
  if (flags.has("fault-plan")) {
    auto parsed = fault::FaultPlan::parse(flags.get("fault-plan", ""));
    if (!parsed.ok()) {
      std::cerr << "mmctl live: --fault-plan: " << parsed.error() << "\n";
      return 2;
    }
    feed_options.fault_plan = parsed.value();
  }

  LiveEngine engine("mmctl live");
  if (const int rc = engine.open(flags); rc != 0) return rc;
  engine.start();
  pipeline::ShardSupervisor supervisor(engine.tracker(), pipeline::SupervisorOptions{});
  const bool supervise = flags.has("supervise");
  if (supervise) supervisor.start();
  auto fed = pipeline::feed_pcap(pcap_path, engine.tracker(), feed_options);
  if (supervise) supervisor.stop();
  engine.stop();
  if (!fed.ok()) {
    std::cerr << "mmctl live: --pcap: " << fed.error() << "\n";
    return 1;
  }
  const pipeline::LiveFeedStats& feed = fed.value();
  const pipeline::SupervisorStats supervision = supervisor.stats();
  const pipeline::PipelineStats& stats = engine.stats();

  FeedReport report;
  std::ostringstream summary;
  summary << feed.replay.records << " records -> " << feed.pushed << " events pushed, "
          << feed.dropped + stats.total_dropped << " dropped, "
          << feed.replay.quarantined() << " quarantined, ";
  report.summary = summary.str();
  report.dropped = feed.dropped;
  report.quarantined = feed.replay.quarantined();
  report.write_json = [&](std::ostream& out) {
    out << "  \"records\": " << feed.replay.records << ",\n";
    out << "  \"supervision\": {\"enabled\": " << (supervise ? "true" : "false");
    if (supervise) {
      out << ", \"polls\": " << supervision.polls
          << ", \"stalls_detected\": " << supervision.stalls_detected
          << ", \"crashes_detected\": " << supervision.crashes_detected
          << ", \"restarts\": " << supervision.restarts
          << ", \"circuit_breaks\": " << supervision.circuit_breaks;
    }
    out << ", \"degraded_shards\": " << stats.degraded_shards << "},\n";
  };
  return engine.report(flags, report);
}

}  // namespace mm::tools
