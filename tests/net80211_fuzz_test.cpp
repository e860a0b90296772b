// Deterministic fuzz tests: the wire-format parsers must never crash or
// read out of bounds on arbitrary input — they either produce a frame or a
// parse failure. (The sniffer feeds them whatever the medium delivers, and
// replay_pcap feeds them whatever is on disk.)
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "net80211/frames.h"
#include "net80211/radiotap.h"
#include "util/rng.h"

namespace mm::net80211 {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

using Corpus = std::vector<std::vector<std::uint8_t>>;

/// 5000 random buffers of 0-256 bytes.
Corpus random_corpus() {
  util::Rng rng(0xfacefeed);
  Corpus corpus;
  for (int trial = 0; trial < 5000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 256));
    corpus.push_back(random_bytes(rng, len));
  }
  return corpus;
}

/// 5000 beacons with 1-8 random byte mutations, 30% also cut short.
Corpus mutated_beacon_corpus() {
  util::Rng rng(0xdecade);
  const auto ap = *MacAddress::parse("00:1a:2b:00:00:01");
  const auto base = make_beacon(ap, "FuzzNet", 6, 123456, 42).serialize();
  Corpus corpus;
  for (int trial = 0; trial < 5000; ++trial) {
    auto bytes = base;
    const int mutations = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    // Also randomly truncate sometimes.
    if (rng.bernoulli(0.3)) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()))));
    }
    corpus.push_back(std::move(bytes));
  }
  return corpus;
}

/// Every prefix of a probe response, the empty one and the whole frame
/// included.
Corpus truncation_corpus() {
  const auto ap = *MacAddress::parse("00:1a:2b:00:00:02");
  const auto full = make_probe_response(ap, MacAddress::broadcast(), "Net", 11, 7, 3)
                        .serialize();
  Corpus corpus;
  for (std::size_t len = 0; len <= full.size(); ++len) {
    corpus.emplace_back(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
  }
  return corpus;
}

TEST(FrameFuzz, RandomBuffersNeverCrash) {
  int parsed_ok = 0;
  for (const auto& bytes : random_corpus()) {
    const auto result = ManagementFrame::parse(bytes);
    parsed_ok += result.ok() ? 1 : 0;
  }
  // Random bytes essentially never satisfy the FCS; the point is absence of
  // crashes, but verify the check is actually doing its job too.
  EXPECT_LT(parsed_ok, 3);
}

TEST(FrameFuzz, MutatedValidFramesNeverCrash) {
  for (const auto& bytes : mutated_beacon_corpus()) {
    (void)ManagementFrame::parse(bytes);                        // FCS on
    (void)ManagementFrame::parse(bytes, /*verify_fcs=*/false);  // FCS off
  }
  SUCCEED();
}

TEST(FrameFuzz, TruncationSweepIsTotal) {
  const Corpus prefixes = truncation_corpus();
  for (std::size_t len = 0; len < prefixes.size(); ++len) {
    const auto result = ManagementFrame::parse(prefixes[len], /*verify_fcs=*/false);
    if (len + 1 == prefixes.size()) {
      EXPECT_TRUE(result.ok());
    }
  }
  SUCCEED();
}

// The zero-copy view and the copying parse are one validator: on every
// corpus buffer, with the FCS check on and off, they accept and reject
// alike with the same error text, and an accepted frame agrees field by
// field and element by element.
void expect_same_parse(const std::vector<std::uint8_t>& bytes, bool verify_fcs,
                       std::size_t& accepted) {
  const auto view = FrameView::parse(bytes, verify_fcs);
  const auto frame = ManagementFrame::parse(bytes, verify_fcs);
  ASSERT_EQ(view.ok(), frame.ok());
  ASSERT_EQ(view.error(), frame.error());
  if (!view.ok()) return;
  ++accepted;
  const FrameView& v = view.value();
  const ManagementFrame& f = frame.value();
  EXPECT_EQ(v.subtype, f.subtype);
  EXPECT_EQ(v.addr1, f.addr1);
  EXPECT_EQ(v.addr2, f.addr2);
  EXPECT_EQ(v.addr3, f.addr3);
  EXPECT_EQ(v.sequence, f.sequence);
  EXPECT_EQ(v.timestamp_us, f.timestamp_us);
  EXPECT_EQ(v.beacon_interval_tu, f.beacon_interval_tu);
  EXPECT_EQ(v.capability, f.capability);
  EXPECT_EQ(v.reason_code, f.reason_code);
  EXPECT_EQ(v.listen_interval, f.listen_interval);
  EXPECT_EQ(v.status_code, f.status_code);
  EXPECT_EQ(v.association_id, f.association_id);
  std::vector<InformationElement> elements;
  v.for_each_ie([&](std::uint8_t id, std::span<const std::uint8_t> payload) {
    elements.push_back({id, {payload.begin(), payload.end()}});
  });
  EXPECT_EQ(elements, f.ies);
  EXPECT_EQ(v.ssid(), f.ssid());
  EXPECT_EQ(v.ds_channel(), f.ds_channel());
  for (const std::uint8_t id : {ie::kSsid, ie::kSupportedRates, ie::kDsParameterSet}) {
    const auto payload = v.find_ie(id);
    const InformationElement* element = f.find_ie(id);
    ASSERT_EQ(payload.has_value(), element != nullptr);
    if (element != nullptr) {
      EXPECT_EQ(std::vector<std::uint8_t>(payload->begin(), payload->end()), element->payload);
    }
  }
}

TEST(FrameFuzz, ViewAndCopyingParseAgreeOnEveryCorpus) {
  std::size_t buffers = 0;
  std::size_t accepted = 0;
  for (const Corpus& corpus : {random_corpus(), mutated_beacon_corpus(), truncation_corpus()}) {
    for (const auto& bytes : corpus) {
      for (const bool verify_fcs : {true, false}) {
        expect_same_parse(bytes, verify_fcs, accepted);
        ++buffers;
      }
    }
  }
  EXPECT_GT(buffers, 20000u);
  EXPECT_GT(accepted, 1000u);  // the FCS-off passes accept many mutants
}

TEST(RadiotapFuzz, RandomBuffersNeverCrash) {
  util::Rng rng(0xab1e);
  for (int trial = 0; trial < 5000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    const auto bytes = random_bytes(rng, len);
    (void)Radiotap::parse(bytes);
  }
  SUCCEED();
}

TEST(RadiotapFuzz, MutatedHeadersNeverCrash) {
  util::Rng rng(0x600d);
  const auto base = Radiotap{}.serialize();
  for (int trial = 0; trial < 5000; ++trial) {
    auto bytes = base;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)Radiotap::parse(bytes);
  }
  SUCCEED();
}

TEST(FrameFuzz, RoundtripSurvivesAllSubtypesAndSsids) {
  util::Rng rng(0x5eed);
  const auto ap = *MacAddress::parse("00:1a:2b:00:00:03");
  const auto client = *MacAddress::parse("00:16:6f:00:00:04");
  for (int trial = 0; trial < 500; ++trial) {
    std::string ssid;
    const auto ssid_len = static_cast<std::size_t>(rng.uniform_int(0, 32));
    for (std::size_t i = 0; i < ssid_len; ++i) {
      ssid += static_cast<char>(rng.uniform_int(32, 126));
    }
    const auto seq = static_cast<std::uint16_t>(rng.uniform_int(0, 4095));
    const int channel = static_cast<int>(rng.uniform_int(1, 11));
    for (const auto& frame :
         {make_beacon(ap, ssid, channel, 99, seq),
          make_probe_request(client, ssid, seq),
          make_probe_response(ap, client, ssid, channel, 1, seq),
          make_deauth(client, ap, static_cast<std::uint16_t>(rng.uniform_int(1, 99)), seq)}) {
      const auto parsed = ManagementFrame::parse(frame.serialize());
      ASSERT_TRUE(parsed.ok()) << parsed.error();
      EXPECT_EQ(parsed.value().subtype, frame.subtype);
      EXPECT_EQ(parsed.value().sequence, seq);
    }
  }
}

}  // namespace
}  // namespace mm::net80211
