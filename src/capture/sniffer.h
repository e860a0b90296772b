// The Marauder's Map monitoring station (Fig 1): one receiver chain (high-
// gain antenna -> LNA -> splitter) feeding several wireless cards, each
// tuned to a fixed channel (the paper settles on three cards at channels
// 1/6/11) or a single hopping card (the 7-day feasibility setup with a 4 s
// dwell). A frame is captured when at least one card decodes it: the card's
// effective SNR is the chain's link-budget SNR minus the cross-channel
// penalty, passed through a logistic decode curve around the NIC's minimum
// SNR. Captured frames update the ObservationStore and (optionally) stream
// to a radiotap pcap file.
//
// The station is built to run unattended: a FaultPlan can damage frames at
// the byte level (corrupt/truncate/drop/duplicate), take cards down for
// dropout windows, and skew/drift each card's clock; damaged frames that no
// longer parse are quarantined (counted, still written to the pcap) instead
// of aborting the run, and an optional checkpointer snapshots the store so
// a killed capture loses at most one interval.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "capture/frame_event.h"
#include "capture/observation_store.h"
#include "capture/persistence.h"
#include "fault/fault_injector.h"
#include "net80211/pcap.h"
#include "rf/channels.h"
#include "rf/receiver_chain.h"
#include "sim/world.h"
#include "util/rng.h"

namespace mm::capture {

struct SnifferConfig {
  geo::Vec2 position;
  double antenna_height_m = 15.0;  ///< rooftop deployment
  rf::ReceiverChain chain = rf::presets::chain_lna();
  /// Fixed card channels; ignored when `hopping` is set.
  std::vector<rf::Channel> card_channels = rf::nonoverlapping_bg_channels();
  /// Single-card frequency hopping across all b/g channels (feasibility rig).
  bool hopping = false;
  double hop_dwell_s = 4.0;
  std::uint64_t seed = 0x5eed;
  /// When set, every decoded frame is appended as a radiotap pcap record.
  std::optional<std::filesystem::path> pcap_path;
  /// Faults injected into the capture path. Inactive by default.
  fault::FaultPlan fault_plan{};
  /// When set, the store is checkpointed here every checkpoint_interval_s
  /// of sim-time (atomic temp+rename snapshots; see ObservationCheckpointer).
  /// Checkpoints fire from the world's event queue — on the clock, not on
  /// deliveries — and torn-write draws come from a dedicated injector
  /// stream, so checkpointing never perturbs the frame-damage stream and
  /// never costs the station its delivery culling.
  std::optional<std::filesystem::path> checkpoint_path;
  double checkpoint_interval_s = 60.0;
};

struct SnifferStats {
  std::uint64_t frames_on_air = 0;   ///< deliveries offered by the medium
  std::uint64_t frames_decoded = 0;  ///< decoded by at least one card
  std::uint64_t probe_requests = 0;
  std::uint64_t probe_responses = 0;
  std::uint64_t beacons = 0;
  std::uint64_t associations = 0;    ///< association requests + responses
  std::uint64_t data_frames = 0;     ///< keep-alives from associated devices
  // --- degraded-operation counters (all monotone) ---
  std::uint64_t frames_quarantined = 0;   ///< damaged beyond parsing; counted, not stored
  std::uint64_t frames_fault_dropped = 0; ///< decoded but lost to injected drops
  std::uint64_t frames_fault_duplicated = 0;
  std::uint64_t card_down_skips = 0;      ///< decode attempts skipped (card in dropout)
};

class Sniffer final : public sim::FrameReceiver {
 public:
  /// The store must outlive the sniffer.
  Sniffer(SnifferConfig config, ObservationStore* store);
  ~Sniffer() override;

  Sniffer(const Sniffer&) = delete;
  Sniffer& operator=(const Sniffer&) = delete;

  /// Registers with the world's medium and, when checkpointing is
  /// configured, schedules the periodic checkpoint events on its queue.
  void attach(sim::World& world);

  [[nodiscard]] const SnifferConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SnifferStats& stats() const noexcept { return stats_; }
  [[nodiscard]] geo::Vec2 position() const override { return config_.position; }
  [[nodiscard]] double antenna_height_m() const override { return config_.antenna_height_m; }
  /// The station is stationary; below this rssi every card's decode
  /// probability is exactly 0 (the hard decode floor in sniffer.cpp), so
  /// deliveries under the floor are provable no-ops the medium may cull.
  [[nodiscard]] sim::DeliveryInterest delivery_interest() const override;

  /// Damage injected so far (ground truth for the quarantine counters).
  [[nodiscard]] const fault::FaultStats& fault_stats() const noexcept {
    return injector_.stats();
  }
  /// The sniffer's injector; lets callers share its deterministic fault
  /// stream with downstream stages (e.g. torn writes in save_observations).
  [[nodiscard]] fault::FaultInjector* injector() noexcept { return &injector_; }
  /// Null unless checkpoint_path was configured.
  [[nodiscard]] const ObservationCheckpointer* checkpointer() const noexcept {
    return checkpointer_.get();
  }
  /// Null unless pcap_path was configured (exposes write-failure counts).
  [[nodiscard]] const net80211::PcapWriter* pcap_writer() const noexcept {
    return pcap_.get();
  }

  /// Streams every decoded observation event to `sink` (in addition to the
  /// store). This is how a live station feeds Riptide: the sink pushes into
  /// the engine's lock-free ring, so the capture path never blocks on the
  /// localization workers.
  void set_event_sink(std::function<void(const FrameEvent&)> sink) {
    event_sink_ = std::move(sink);
  }

  /// Channel a given card listens on at time t.
  [[nodiscard]] rf::Channel card_channel(std::size_t card, sim::SimTime t) const;
  [[nodiscard]] std::size_t card_count() const noexcept;

  /// Decode probability for one card given the transmit channel and the
  /// isotropic receive level (exposed for the Fig 9 / Fig 12 benches).
  [[nodiscard]] double decode_probability(double rssi_dbm, rf::Channel tx,
                                          rf::Channel card) const;

  void on_air_frame(const net80211::ManagementFrame& frame, const sim::RxInfo& rx) override;

 private:
  void record(const net80211::ManagementFrame& frame, const sim::RxInfo& rx,
              sim::SimTime card_time, std::span<const std::uint8_t> wire_bytes);
  void write_pcap(const sim::RxInfo& rx, sim::SimTime card_time,
                  std::span<const std::uint8_t> body);
  void schedule_next_checkpoint();

  SnifferConfig config_;
  ObservationStore* store_;
  sim::World* world_ = nullptr;
  util::Rng rng_;
  fault::FaultInjector injector_;
  /// Torn-write draws for checkpoint saves. A separate seeded stream (not
  /// injector_) so checkpoint cadence never shifts which frames get damaged
  /// — the decoupling that lets torn-write stations keep Atlas culling.
  std::unique_ptr<fault::FaultInjector> checkpoint_injector_;
  SnifferStats stats_;
  std::unique_ptr<net80211::PcapWriter> pcap_;
  std::unique_ptr<ObservationCheckpointer> checkpointer_;
  /// Cleared by the destructor; scheduled checkpoint events hold a copy and
  /// become no-ops once the sniffer is gone (the world may outlive it).
  std::shared_ptr<bool> alive_;
  std::function<void(const FrameEvent&)> event_sink_;
};

}  // namespace mm::capture
