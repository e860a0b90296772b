#include "wps/query_codec.h"

#include <cmath>

#include "util/bytes.h"

namespace mm::wps {

std::vector<std::uint8_t> encode_request(const QueryRequest& req) {
  std::vector<std::uint8_t> out;
  out.reserve(kRequestPayloadBytes);
  out.push_back(static_cast<std::uint8_t>(req.op));
  out.push_back(0);
  util::append_u16(out, req.k);
  util::append_u64(out, req.bssid);
  util::append_f64(out, req.center.x);
  util::append_f64(out, req.center.y);
  util::append_f64(out, req.radius_m);
  return out;
}

std::optional<QueryRequest> decode_request(std::span<const std::uint8_t> payload) {
  if (payload.size() != kRequestPayloadBytes) return std::nullopt;
  const std::uint8_t op = payload[0];
  if (op < 1 || op > 3) return std::nullopt;
  QueryRequest req;
  req.op = static_cast<QueryOp>(op);
  req.k = util::load_u16(payload.data() + 2);
  req.bssid = util::load_u64(payload.data() + 4);
  req.center.x = util::load_f64(payload.data() + 12);
  req.center.y = util::load_f64(payload.data() + 20);
  req.radius_m = util::load_f64(payload.data() + 28);
  return req;
}

QueryResponse execute_query(const Service& service, const QueryRequest& req) {
  QueryResponse resp;
  resp.op = req.op;
  switch (req.op) {
    case QueryOp::kLookup: {
      if (const auto ap = service.lookup(net80211::MacAddress::from_u64(req.bssid))) {
        resp.aps.push_back(*ap);
      }
      return resp;
    }
    case QueryOp::kNearest: {
      if (req.k == 0 || !std::isfinite(req.center.x) || !std::isfinite(req.center.y)) {
        resp.status = QueryStatus::kBadRequest;
        return resp;
      }
      resp.aps = service.nearest_k(req.center, req.k);
      return resp;
    }
    case QueryOp::kRange: {
      if (!std::isfinite(req.center.x) || !std::isfinite(req.center.y) ||
          !std::isfinite(req.radius_m) || req.radius_m < 0.0) {
        resp.status = QueryStatus::kBadRequest;
        return resp;
      }
      resp.aps = service.range(req.center, req.radius_m);
      return resp;
    }
  }
  resp.status = QueryStatus::kBadRequest;
  return resp;
}

std::vector<net::WireFrame> encode_response(const QueryResponse& response,
                                            std::uint32_t stream_id,
                                            std::uint64_t seq) {
  const std::size_t total = response.aps.size();
  const std::size_t parts =
      total == 0 ? 1 : (total + kMaxRecordsPerChunk - 1) / kMaxRecordsPerChunk;
  std::vector<net::WireFrame> frames;
  frames.reserve(parts);
  for (std::size_t part = 0; part < parts; ++part) {
    const std::size_t begin = part * kMaxRecordsPerChunk;
    const std::size_t end = std::min(total, begin + kMaxRecordsPerChunk);
    net::WireFrame frame;
    frame.type = net::WireFrameType::kData;
    frame.stream_id = stream_id;
    frame.seq = seq;
    auto& out = frame.payload;
    out.reserve(kResponseHeaderBytes + (end - begin) * kRecordBytes);
    out.push_back(static_cast<std::uint8_t>(response.op));
    out.push_back(static_cast<std::uint8_t>(response.status));
    util::append_u16(out, static_cast<std::uint16_t>(end - begin));
    util::append_u32(out, static_cast<std::uint32_t>(total));
    util::append_u32(out, static_cast<std::uint32_t>(part));
    util::append_u32(out, static_cast<std::uint32_t>(parts));
    for (std::size_t i = begin; i < end; ++i) {
      const WpsAp& ap = response.aps[i];
      util::append_u64(out, ap.bssid.to_u64());
      util::append_f64(out, ap.position.x);
      util::append_f64(out, ap.position.y);
      util::append_f64(out, ap.radius_m ? *ap.radius_m : no_radius());
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::optional<std::uint64_t> ResponseAssembler::feed(const net::WireFrame& frame) {
  const auto& p = frame.payload;
  if (p.size() < kResponseHeaderBytes) {
    ++rejected_;
    return std::nullopt;
  }
  const std::uint8_t op = p[0];
  const std::uint8_t status = p[1];
  const std::uint16_t count = util::load_u16(p.data() + 2);
  const std::uint32_t total = util::load_u32(p.data() + 4);
  const std::uint32_t part = util::load_u32(p.data() + 8);
  const std::uint32_t parts = util::load_u32(p.data() + 12);
  if (op < 1 || op > 3 || status > 2 || parts == 0 || part >= parts ||
      p.size() != kResponseHeaderBytes + static_cast<std::size_t>(count) * kRecordBytes) {
    ++rejected_;
    return std::nullopt;
  }

  if (complete_.count(frame.seq) != 0) {
    // Retransmit of a response that already assembled: absorb, never
    // re-apply (a second assembly could tear a response handed to take()).
    ++rejected_;
    return std::nullopt;
  }

  Partial& partial = partial_[frame.seq];
  if (partial.parts == 0) {
    partial.op = static_cast<QueryOp>(op);
    partial.status = static_cast<QueryStatus>(status);
    partial.parts = parts;
    partial.total = total;
    partial.part_aps.resize(parts);
  } else if (partial.parts != parts || partial.total != total) {
    // A chunk that disagrees with its siblings about the response shape is
    // wire damage that slipped past the CRC; drop it, keep the rest.
    ++rejected_;
    return std::nullopt;
  }
  if (partial.part_aps[part].has_value()) {
    ++rejected_;  // duplicate chunk (e.g. a retry); first copy wins
    return std::nullopt;
  }

  std::vector<WpsAp> aps;
  aps.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint8_t* r = p.data() + kResponseHeaderBytes +
                            static_cast<std::size_t>(i) * kRecordBytes;
    WpsAp ap;
    ap.bssid = net80211::MacAddress::from_u64(util::load_u64(r));
    ap.position.x = util::load_f64(r + 8);
    ap.position.y = util::load_f64(r + 16);
    const double radius = util::load_f64(r + 24);
    if (!std::isnan(radius)) ap.radius_m = radius;
    aps.push_back(ap);
  }
  partial.part_aps[part] = std::move(aps);
  ++partial.parts_seen;
  if (partial.parts_seen < partial.parts) return std::nullopt;

  QueryResponse response;
  response.op = partial.op;
  response.status = partial.status;
  response.aps.reserve(partial.total);
  for (auto& chunk : partial.part_aps) {
    for (WpsAp& ap : *chunk) response.aps.push_back(ap);
  }
  partial_.erase(frame.seq);
  complete_[frame.seq] = std::move(response);
  return frame.seq;
}

std::optional<QueryResponse> ResponseAssembler::take(std::uint64_t seq) {
  const auto it = complete_.find(seq);
  if (it == complete_.end()) return std::nullopt;
  QueryResponse response = std::move(it->second);
  complete_.erase(it);
  return response;
}

}  // namespace mm::wps
