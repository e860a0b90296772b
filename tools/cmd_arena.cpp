// mmctl arena — the Chimera attack-vs-defense sweep from the command line.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "commands.h"
#include "marauder/arena.h"
#include "util/table.h"

namespace mm::tools {

namespace {

// Bounds of the numeric flags (mmctl help states them), checked before the
// sweep starts: a negative count would wrap to 2^64 in a size_t.
constexpr std::int64_t kMaxArenaDevices = 4096;  ///< --devices
constexpr std::int64_t kMaxArenaAps = 65536;     ///< --aps
constexpr double kMaxArenaDurationS = 86400.0;   ///< --duration, one day

}  // namespace

int cmd_arena(const util::Flags& flags) {
  const bool smoke = flags.has("smoke");

  marauder::ArenaConfig config;
  config.seed = flags.get_seed(7001);
  config.devices =
      static_cast<std::size_t>(flags.get_int_in("devices", smoke ? 20 : 48, 1, kMaxArenaDevices));
  config.num_aps =
      static_cast<std::size_t>(flags.get_int_in("aps", smoke ? 90 : 120, 1, kMaxArenaAps));
  config.duration_s =
      flags.get_double_in("duration", smoke ? 420.0 : 600.0, 0.0, kMaxArenaDurationS);
  if (smoke) config.adoption_levels = {0.0, 0.5, 1.0};
  if (flags.has("adoption")) {
    // Adoption is the fraction of devices that run the defense.
    config.adoption_levels = flags.get_double_list("adoption", 0.0, 1.0);
    if (config.adoption_levels.empty()) {
      std::cerr << "mmctl arena: --adoption parsed to an empty list\n";
      return 2;
    }
  }

  std::cout << "Chimera arena: " << config.devices << " devices, "
            << config.duration_s << " s capture, defense '"
            << config.defense.name << "' (rotation "
            << config.defense.mac_rotation_interval_s << " s)\n\n";

  const marauder::ArenaResult result = marauder::run_arena(config);

  util::Table table({"attacker", "adoption", "pseudonyms", "identities",
                     "%-tracked", "median err (m)", "longest track (s)"});
  for (const marauder::ArenaCell& cell : result.cells) {
    table.add_row({cell.attacker, util::Table::fmt(cell.adoption, 2),
                   std::to_string(cell.pseudonyms_seen),
                   std::to_string(cell.identities),
                   util::Table::fmt(cell.pct_tracked, 1),
                   util::Table::fmt(cell.median_error_m, 1),
                   util::Table::fmt(cell.longest_track_s, 0)});
  }
  table.print(std::cout);

  const std::string out_path = flags.get("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "mmctl arena: cannot write " << out_path << "\n";
      return 1;
    }
    marauder::write_arena_json(result, out);
    std::cout << "\nwrote " << out_path << "\n";
  }
  return 0;
}

}  // namespace mm::tools
