// Command-line flag parsing for the bench/example binaries: `--key=value` or
// `--key value`; everything else is a positional argument. Keeps the
// experiment entry points uniform (`--seed`, `--trials`, `--out`, ...).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace mm::util {

/// A flag value its flag does not take; the message names the flag.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// The whole value (util::parse_int_field / parse_double_field), else
  /// FlagError: "65x", "2.5" or "1e3" is no integer, "1.5x" no number, and
  /// an empty value neither.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// get_int / get_double, but FlagError outside [lo, hi] (NaN is outside).
  [[nodiscard]] std::int64_t get_int_in(const std::string& key, std::int64_t fallback,
                                        std::int64_t lo, std::int64_t hi) const;
  [[nodiscard]] double get_double_in(const std::string& key, double fallback, double lo,
                                     double hi) const;
  /// A comma-separated list (`--adoption 0,0.5,1`) of such values, empty
  /// items skipped; empty when the flag is absent.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(const std::string& key, std::int64_t lo,
                                                       std::int64_t hi) const;
  [[nodiscard]] std::vector<double> get_double_list(const std::string& key, double lo,
                                                    double hi) const;
  [[nodiscard]] std::uint64_t get_seed(std::uint64_t fallback) const {
    return static_cast<std::uint64_t>(get_int("seed", static_cast<std::int64_t>(fallback)));
  }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mm::util
