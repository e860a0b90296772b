#include "marauder/ap_database.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/csv.h"

namespace mm::marauder {

/// Derived views over aps_, built on first use. `sorted` holds pointers into
/// the (node-stable) unordered_map; `grid` indexes positions by the record's
/// rank in `sorted`, so ascending grid ids ARE ascending BSSIDs and every
/// spatial query inherits the canonical ordering for free. The SoA slab
/// (slab_x/slab_y/slab_r + the rank index) is built with `sorted` and shares
/// its lifetime: radius mutations patch slab_r in place, position mutations
/// (add) invalidate everything.
struct ApDatabase::Caches {
  std::mutex mutex;
  bool sorted_valid = false;
  std::vector<const KnownAp*> sorted;
  std::vector<double> slab_x;
  std::vector<double> slab_y;
  std::vector<double> slab_r;  ///< NaN = unknown radius
  std::unordered_map<net80211::MacAddress, std::uint32_t, net80211::MacHasher> rank;
  bool grid_valid = false;
  std::optional<geo::SpatialIndex> grid;
};

ApDatabase::ApDatabase() : caches_(std::make_unique<Caches>()) {}

ApDatabase::~ApDatabase() = default;

ApDatabase::ApDatabase(const ApDatabase& other)
    : aps_(other.aps_), caches_(std::make_unique<Caches>()) {}

ApDatabase& ApDatabase::operator=(const ApDatabase& other) {
  if (this != &other) {
    aps_ = other.aps_;
    invalidate_caches();
  }
  return *this;
}

ApDatabase::ApDatabase(ApDatabase&& other) noexcept
    : aps_(std::move(other.aps_)), caches_(std::move(other.caches_)) {
  // Moving the map preserves node addresses, so the cached pointer vector
  // stays valid and travels with us; the source gets a fresh (cold) cache so
  // it remains usable as an empty database.
  other.caches_ = std::make_unique<Caches>();
}

ApDatabase& ApDatabase::operator=(ApDatabase&& other) noexcept {
  if (this != &other) {
    aps_ = std::move(other.aps_);
    caches_ = std::move(other.caches_);
    other.caches_ = std::make_unique<Caches>();
  }
  return *this;
}

ApDatabase::Caches& ApDatabase::caches() const { return *caches_; }

void ApDatabase::invalidate_caches() {
  Caches& c = caches();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.sorted_valid = false;
  c.sorted.clear();
  c.slab_x.clear();
  c.slab_y.clear();
  c.slab_r.clear();
  c.rank.clear();
  c.grid_valid = false;
  c.grid.reset();
}

void ApDatabase::add(KnownAp ap) {
  const net80211::MacAddress bssid = ap.bssid;
  aps_.insert_or_assign(bssid, std::move(ap));
  invalidate_caches();
}

const KnownAp* ApDatabase::find(const net80211::MacAddress& bssid) const {
  const auto it = aps_.find(bssid);
  return it == aps_.end() ? nullptr : &it->second;
}

namespace {
constexpr double kUnknownRadius = std::numeric_limits<double>::quiet_NaN();
}  // namespace

void ApDatabase::build_sorted_locked(Caches& c) const {
  if (c.sorted_valid) return;
  c.sorted.clear();
  c.sorted.reserve(aps_.size());
  for (const auto& [mac, ap] : aps_) c.sorted.push_back(&ap);
  std::sort(c.sorted.begin(), c.sorted.end(),
            [](const KnownAp* a, const KnownAp* b) { return a->bssid < b->bssid; });
  // The slab mirrors the sorted view field-for-field; building both in one
  // pass means no later locate_all or prepare() re-materializes anything.
  const std::size_t n = c.sorted.size();
  c.slab_x.resize(n);
  c.slab_y.resize(n);
  c.slab_r.resize(n);
  c.rank.clear();
  c.rank.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const KnownAp* ap = c.sorted[i];
    c.slab_x[i] = ap->position.x;
    c.slab_y[i] = ap->position.y;
    c.slab_r[i] = ap->radius_m.value_or(kUnknownRadius);
    c.rank.emplace(ap->bssid, static_cast<std::uint32_t>(i));
  }
  c.sorted_valid = true;
}

const std::vector<const KnownAp*>& ApDatabase::sorted_records() const {
  Caches& c = caches();
  std::lock_guard<std::mutex> lock(c.mutex);
  build_sorted_locked(c);
  return c.sorted;
}

ApDatabase::DiscSlabView ApDatabase::disc_slab() const {
  Caches& c = caches();
  std::lock_guard<std::mutex> lock(c.mutex);
  build_sorted_locked(c);
  return {c.slab_x, c.slab_y, c.slab_r};
}

std::uint32_t ApDatabase::rank_of(const net80211::MacAddress& bssid) const {
  const RankMap& rank = rank_index();
  const auto it = rank.find(bssid);
  return it == rank.end() ? kNoRank : it->second;
}

const ApDatabase::RankMap& ApDatabase::rank_index() const {
  Caches& c = caches();
  std::lock_guard<std::mutex> lock(c.mutex);
  build_sorted_locked(c);
  return c.rank;
}

namespace {

/// Cell sized for ~1 record per cell over the sorted records' bounding box
/// (clamped to [1 m, 1 km]); an empty or single-point database gets 100 m.
double pick_cell_m(const std::vector<const KnownAp*>& records) {
  if (records.size() < 2) return 100.0;
  geo::Vec2 lo = records.front()->position;
  geo::Vec2 hi = lo;
  for (const KnownAp* ap : records) {
    lo.x = std::min(lo.x, ap->position.x);
    lo.y = std::min(lo.y, ap->position.y);
    hi.x = std::max(hi.x, ap->position.x);
    hi.y = std::max(hi.y, ap->position.y);
  }
  const double area = std::max(1.0, (hi.x - lo.x) * (hi.y - lo.y));
  const double cell = std::sqrt(area / static_cast<double>(records.size()));
  return std::clamp(cell, 1.0, 1000.0);
}

}  // namespace

std::vector<const KnownAp*> ApDatabase::aps_in_range(geo::Vec2 center,
                                                     double radius_m) const {
  const std::vector<const KnownAp*>& sorted = sorted_records();
  Caches& c = caches();
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    if (!c.grid_valid) {
      geo::SpatialIndex grid(pick_cell_m(sorted));
      for (std::size_t i = 0; i < sorted.size(); ++i) grid.insert(i, sorted[i]->position);
      c.grid.emplace(std::move(grid));
      c.grid_valid = true;
    }
  }
  std::vector<const KnownAp*> out;
  for (const geo::SpatialIndex::Id id : c.grid->query_disc(center, radius_m)) {
    out.push_back(sorted[id]);
  }
  return out;
}

std::vector<const KnownAp*> ApDatabase::nearest_aps(geo::Vec2 center,
                                                    std::size_t k) const {
  const std::vector<const KnownAp*>& sorted = sorted_records();
  Caches& c = caches();
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    if (!c.grid_valid) {
      geo::SpatialIndex grid(pick_cell_m(sorted));
      for (std::size_t i = 0; i < sorted.size(); ++i) grid.insert(i, sorted[i]->position);
      c.grid.emplace(std::move(grid));
      c.grid_valid = true;
    }
  }
  // nearest_k breaks distance ties by ascending id = ascending BSSID, so the
  // documented (distance, BSSID) order falls out directly.
  std::vector<const KnownAp*> out;
  for (const geo::SpatialIndex::Id id : c.grid->nearest_k(center, k)) {
    out.push_back(sorted[id]);
  }
  return out;
}

void ApDatabase::set_radius(const net80211::MacAddress& bssid, double radius_m) {
  const auto it = aps_.find(bssid);
  if (it == aps_.end()) throw std::out_of_range("ApDatabase::set_radius: unknown BSSID");
  it->second.radius_m = radius_m;
  // In-place field mutation: record addresses and positions are untouched,
  // so the sorted/grid caches stay valid; the radius slab is patched in
  // lock-step instead of being torn down and re-materialized per LP row.
  Caches& c = caches();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (c.sorted_valid) {
    const auto rank_it = c.rank.find(bssid);
    if (rank_it != c.rank.end()) c.slab_r[rank_it->second] = radius_m;
  }
}

void ApDatabase::strip_radii() {
  for (auto& [mac, ap] : aps_) ap.radius_m.reset();
  Caches& c = caches();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (c.sorted_valid) {
    std::fill(c.slab_r.begin(), c.slab_r.end(), kUnknownRadius);
  }
}

std::vector<geo::Circle> ApDatabase::discs_for(std::span<const net80211::MacAddress> gamma,
                                                double default_radius_m) const {
  std::vector<geo::Circle> discs;
  discs.reserve(gamma.size());
  for (const auto& mac : gamma) {
    const KnownAp* ap = find(mac);
    if (ap == nullptr) continue;
    discs.push_back({ap->position, ap->radius_m.value_or(default_radius_m)});
  }
  return discs;
}

std::vector<geo::Vec2> ApDatabase::positions_for(
    std::span<const net80211::MacAddress> gamma) const {
  std::vector<geo::Vec2> positions;
  positions.reserve(gamma.size());
  for (const auto& mac : gamma) {
    const KnownAp* ap = find(mac);
    if (ap != nullptr) positions.push_back(ap->position);
  }
  return positions;
}

ApDatabase ApDatabase::from_truth(std::span<const sim::ApTruth> truth, bool include_radii) {
  ApDatabase db;
  for (const sim::ApTruth& ap : truth) {
    KnownAp known;
    known.bssid = ap.bssid;
    known.ssid = ap.ssid;
    known.position = ap.position;
    if (include_radii) known.radius_m = ap.radius_m;
    db.add(std::move(known));
  }
  return db;
}

namespace {

bool parse_double_field(const std::string& text, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

util::Result<std::vector<util::CsvRow>> read_rows(const std::filesystem::path& path) {
  using R = util::Result<std::vector<util::CsvRow>>;
  try {
    return util::csv_read_file(path);
  } catch (const std::exception& e) {
    return R::failure(std::string("ApDatabase: ") + e.what());
  }
}

}  // namespace

util::Result<ApDatabase> ApDatabase::from_csv(const std::filesystem::path& path,
                                              const geo::EnuFrame& frame,
                                              CsvImportStats* stats) {
  auto rows = read_rows(path);
  if (!rows.ok()) return util::Result<ApDatabase>::failure(rows.error());
  CsvImportStats local;
  ApDatabase db;
  for (std::size_t i = 0; i < rows.value().size(); ++i) {
    const auto& row = rows.value()[i];
    if (i == 0 && !row.empty() && row[0] == "bssid") continue;  // header
    ++local.rows_total;
    std::optional<net80211::MacAddress> mac;
    if (!row.empty()) mac = net80211::MacAddress::parse(row[0]);
    double lat = 0.0;
    double lon = 0.0;
    if (row.size() < 4 || !mac || !parse_double_field(row[2], lat) ||
        !parse_double_field(row[3], lon)) {
      ++local.quarantined;
      continue;
    }
    KnownAp ap;
    ap.bssid = *mac;
    ap.ssid = row[1];
    ap.position = frame.to_enu({lat, lon, frame.origin().alt_m});
    if (row.size() >= 5 && !row[4].empty()) {
      double radius = 0.0;
      if (!parse_double_field(row[4], radius)) {
        ++local.quarantined;
        continue;
      }
      ap.radius_m = radius;
    }
    db.add(std::move(ap));
    ++local.rows_loaded;
  }
  if (stats != nullptr) *stats = local;
  return db;
}

util::Result<ApDatabase> ApDatabase::from_wigle_csv(const std::filesystem::path& path,
                                                    const geo::EnuFrame& frame,
                                                    CsvImportStats* stats) {
  auto rows = read_rows(path);
  if (!rows.ok()) return util::Result<ApDatabase>::failure(rows.error());
  CsvImportStats local;
  ApDatabase db;
  for (const auto& row : rows.value()) {
    if (row.empty()) continue;
    if (row[0].rfind("WigleWifi", 0) == 0) continue;  // app pre-header
    if (row[0] == "netid") continue;                  // column header
    ++local.rows_total;
    if (row.size() < 8) {  // malformed sighting
      ++local.quarantined;
      continue;
    }
    // Column 10 ("type") distinguishes WIFI from BT/GSM when present; other
    // radio types are filtered, not quarantined — they aren't damage.
    if (row.size() > 10 && !row[10].empty() && row[10] != "WIFI") continue;
    const auto mac = net80211::MacAddress::parse(row[0]);
    double lat = 0.0;
    double lon = 0.0;
    if (!mac || !parse_double_field(row[6], lat) || !parse_double_field(row[7], lon)) {
      ++local.quarantined;
      continue;
    }
    KnownAp ap;
    ap.bssid = *mac;
    ap.ssid = row[1];
    ap.position = frame.to_enu({lat, lon, frame.origin().alt_m});
    db.add(std::move(ap));
    ++local.rows_loaded;
  }
  if (stats != nullptr) *stats = local;
  return db;
}

void ApDatabase::to_csv(const std::filesystem::path& path, const geo::EnuFrame& frame) const {
  // 9 decimal places of lat/lon ~ 0.1 mm: std::to_string's fixed 6 would
  // quantize positions by ~10 cm.
  auto fmt = [](double value) {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(9);
    out << value;
    return out.str();
  };
  std::vector<util::CsvRow> rows;
  rows.push_back({"bssid", "ssid", "lat", "lon", "radius_m"});
  for (const KnownAp* ap : sorted_records()) {
    const geo::Geodetic g = frame.to_geodetic(ap->position);
    util::CsvRow row{ap->bssid.to_string(), ap->ssid, fmt(g.lat_deg), fmt(g.lon_deg),
                     ap->radius_m ? fmt(*ap->radius_m) : std::string{}};
    rows.push_back(std::move(row));
  }
  util::csv_write_file(path, rows);
}

}  // namespace mm::marauder
