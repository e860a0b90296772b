#include "capture/sniffer.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "net80211/radiotap.h"

namespace mm::capture {

namespace {
/// Logistic decode curve: ~0.5 at the NIC's minimum SNR, steep 1.5 dB slope
/// (DSSS management frames either lock or they don't).
double logistic_decode(double margin_db) {
  return 1.0 / (1.0 + std::exp(-margin_db / 1.5));
}

/// Hard decode floor: a card whose effective SNR sits this far below the
/// NIC's lock threshold decodes with probability exactly 0 (instead of the
/// logistic tail's ~3e-12). This is what makes frames below the floor
/// provable no-ops — they consume no RNG draw — so the medium's Atlas index
/// may cull them without perturbing the decode stream.
constexpr double kDecodeFloorMarginDb = 40.0;

bool has_frame_faults(const fault::FaultPlan& plan) {
  return plan.corrupt_rate > 0.0 || plan.truncate_rate > 0.0 || plan.drop_rate > 0.0 ||
         plan.duplicate_rate > 0.0;
}

/// Seed salt for the checkpoint injector's torn-write stream.
constexpr std::uint64_t kTornSaltSniffer = 0x70e12;
}  // namespace

Sniffer::Sniffer(SnifferConfig config, ObservationStore* store)
    : config_(std::move(config)),
      store_(store),
      rng_(config_.seed),
      injector_(config_.fault_plan) {
  if (store_ == nullptr) throw std::invalid_argument("Sniffer: observation store required");
  if (!config_.hopping && config_.card_channels.empty()) {
    throw std::invalid_argument("Sniffer: need at least one card channel");
  }
  if (config_.pcap_path) {
    pcap_ = std::make_unique<net80211::PcapWriter>(*config_.pcap_path,
                                                   net80211::kLinktypeRadiotap);
    if (!pcap_->ok()) {
      // Degraded operation: keep capturing into the store; the writer
      // counts the failed appends.
      std::cerr << "[WARN] sniffer: pcap disabled, " << pcap_->error() << '\n';
    }
  }
  if (config_.checkpoint_path) {
    SaveOptions save;
    if (config_.fault_plan.torn_write_rate > 0.0) {
      // A dedicated stream for torn-save draws: checkpoints must not consume
      // from the frame-damage stream, or their cadence would shift which
      // frames get corrupted (and force always-deliver; DESIGN.md §12).
      fault::FaultPlan torn_plan = config_.fault_plan;
      torn_plan.seed = util::hash_combine(config_.fault_plan.seed, kTornSaltSniffer);
      checkpoint_injector_ = std::make_unique<fault::FaultInjector>(torn_plan);
      save.injector = checkpoint_injector_.get();
    }
    checkpointer_ =
        std::make_unique<ObservationCheckpointer>(store_, *config_.checkpoint_path, save);
    alive_ = std::make_shared<bool>(true);
  }
}

Sniffer::~Sniffer() {
  if (alive_) *alive_ = false;
}

void Sniffer::attach(sim::World& world) {
  world_ = &world;
  world.register_receiver(this);
  // Checkpoints ride the simulation clock, not the delivery stream: the
  // cadence is identical whether the medium scans or culls, which is what
  // keeps a torn-write station's delivery interest tight.
  if (checkpointer_ && config_.checkpoint_interval_s > 0.0) schedule_next_checkpoint();
}

void Sniffer::schedule_next_checkpoint() {
  world_->queue().schedule_in(
      config_.checkpoint_interval_s, [this, alive = alive_] {
        if (!*alive) return;
        (void)checkpointer_->checkpoint_now();  // failures tallied by the checkpointer
        schedule_next_checkpoint();
      });
}

std::size_t Sniffer::card_count() const noexcept {
  return config_.hopping ? 1 : config_.card_channels.size();
}

rf::Channel Sniffer::card_channel(std::size_t card, sim::SimTime t) const {
  if (!config_.hopping) return config_.card_channels.at(card);
  const auto all = rf::all_channels(rf::Band::kBg24GHz);
  const auto slot = static_cast<std::size_t>(std::max(0.0, t) / config_.hop_dwell_s);
  return all[slot % all.size()];
}

double Sniffer::decode_probability(double rssi_dbm, rf::Channel tx, rf::Channel card) const {
  const double ceiling = rf::cross_channel_lock_ceiling(tx, card);
  if (ceiling <= 0.0) return 0.0;
  const double penalty = rf::cross_channel_penalty_db(tx, card);
  if (std::isinf(penalty)) return 0.0;
  const double snr = config_.chain.effective_snr_db(rssi_dbm) - penalty;
  const double margin = snr - config_.chain.nic().snr_min_db;
  // Hard decode floor: this far under the lock threshold the logistic tail
  // is astronomically small (~3e-12 at 40 dB) — call it zero. Besides being
  // physical, an exact zero consumes no Bernoulli draw, which is what lets
  // the medium cull sub-floor deliveries without shifting the RNG stream.
  if (margin <= -kDecodeFloorMarginDb) return 0.0;
  // The SNR term gates weak signals; the lock ceiling caps off-channel
  // capture regardless of power (Fig 9: "few or none").
  return ceiling * logistic_decode(margin);
}

sim::DeliveryInterest Sniffer::delivery_interest() const {
  sim::DeliveryInterest interest;
  interest.fixed_position = config_.position;
  // rssi below which decode_probability is 0 for every card: on-channel
  // (penalty 0, ceiling 1) is the most decodable case, and effective SNR is
  // additive in rssi. The extra 0.5 dB swallows the few-ulp difference
  // between effective_snr_db(rssi) and rssi + effective_snr_db(0), keeping
  // the promise strictly conservative.
  interest.min_rssi_dbm = config_.chain.nic().snr_min_db - kDecodeFloorMarginDb -
                          config_.chain.effective_snr_db(0.0) - 0.5;
  return interest;
}

void Sniffer::on_air_frame(const net80211::ManagementFrame& frame, const sim::RxInfo& rx) {
  ++stats_.frames_on_air;

  constexpr std::size_t kNoCard = static_cast<std::size_t>(-1);
  std::size_t decoded_by = kNoCard;
  const bool dropouts = config_.fault_plan.nic_dropout_rate > 0.0;
  for (std::size_t card = 0; card < card_count() && decoded_by == kNoCard; ++card) {
    if (dropouts && injector_.card_down(card, rx.time)) {
      ++stats_.card_down_skips;
      continue;
    }
    const rf::Channel listening = card_channel(card, rx.time);
    const double p = decode_probability(rx.rssi_dbm, rx.channel, listening);
    if (p > 0.0 && rng_.bernoulli(p)) decoded_by = card;
  }
  if (decoded_by == kNoCard) return;
  ++stats_.frames_decoded;
  // The record carries the decoding card's own (skewed, drifting) clock —
  // exactly what a multi-laptop rig with unsynchronized cards produces.
  const sim::SimTime card_time = injector_.card_time(decoded_by, rx.time);

  if (!has_frame_faults(config_.fault_plan)) {
    record(frame, rx, card_time, {});
    return;
  }

  // Byte-level fault path: damage the wire image and re-parse it, so the
  // decoder (not the simulator) decides what survives.
  std::vector<std::uint8_t> wire = frame.serialize();
  int deliveries = 1;
  switch (injector_.apply_frame(wire)) {
    case fault::FaultInjector::FrameAction::kDrop:
      ++stats_.frames_fault_dropped;
      return;
    case fault::FaultInjector::FrameAction::kDuplicate:
      ++stats_.frames_fault_duplicated;
      deliveries = 2;
      break;
    case fault::FaultInjector::FrameAction::kPass:
      break;
  }
  const auto reparsed = net80211::ManagementFrame::parse(wire);
  if (!reparsed.ok()) {
    // Damaged beyond decoding: quarantine for the store, but the capture
    // file faithfully keeps what was on the wire.
    ++stats_.frames_quarantined;
    for (int i = 0; i < deliveries; ++i) write_pcap(rx, card_time, wire);
    return;
  }
  for (int i = 0; i < deliveries; ++i) record(reparsed.value(), rx, card_time, wire);
}

void Sniffer::record(const net80211::ManagementFrame& frame, const sim::RxInfo& rx,
                     sim::SimTime card_time, std::span<const std::uint8_t> wire_bytes) {
  switch (frame.subtype) {
    case net80211::ManagementSubtype::kProbeRequest:
      ++stats_.probe_requests;
      break;
    case net80211::ManagementSubtype::kProbeResponse:
      ++stats_.probe_responses;
      break;
    case net80211::ManagementSubtype::kBeacon:
      ++stats_.beacons;
      break;
    case net80211::ManagementSubtype::kAssociationRequest:
    case net80211::ManagementSubtype::kAssociationResponse:
      ++stats_.associations;
      break;
    case net80211::ManagementSubtype::kDataNull:
      ++stats_.data_frames;
      break;
    case net80211::ManagementSubtype::kDeauthentication:
      break;  // our own active attack traffic; nothing to learn
  }

  // One decode policy for every consumer (store, live sink, batch replay):
  // what the frame teaches the attacker is decided in classify_frame.
  const ClassifiedFrame decoded = classify_frame(frame, card_time, rx.rssi_dbm);
  if (decoded.has_event) {
    apply_event(decoded.event, *store_);
    // A live monitoring rig is a capture thread for the streaming engine:
    // the sink pushes the decoded event into Riptide's ring.
    if (event_sink_) event_sink_(decoded.event);
  }

  if (pcap_) {
    if (wire_bytes.empty()) {
      const auto body = frame.serialize();
      write_pcap(rx, card_time, body);
    } else {
      write_pcap(rx, card_time, wire_bytes);
    }
  }
}

void Sniffer::write_pcap(const sim::RxInfo& rx, sim::SimTime card_time,
                         std::span<const std::uint8_t> body) {
  if (!pcap_) return;
  net80211::Radiotap rt;
  rt.channel_freq_mhz = static_cast<std::uint16_t>(rf::channel_center_mhz(rx.channel));
  rt.antenna_signal_dbm = static_cast<std::int8_t>(
      std::clamp(rx.rssi_dbm + config_.chain.antenna().gain_dbi, -127.0, 0.0));
  rt.antenna_noise_dbm = -100;
  std::vector<std::uint8_t> packet = rt.serialize();
  packet.insert(packet.end(), body.begin(), body.end());
  pcap_->write(static_cast<std::uint64_t>(std::max(0.0, card_time) * 1e6), packet);
}

}  // namespace mm::capture
