#include "util/flags.h"

#include <sstream>
#include <string_view>
#include <type_traits>

#include "util/csv.h"

namespace mm::util {

namespace {

/// The whole of `text` as a T (parse_int_field / parse_double_field), or
/// FlagError naming the flag.
template <typename T>
T parse_whole(const std::string& key, const std::string& text) {
  T value{};
  if constexpr (std::is_integral_v<T>) {
    if (parse_int_field(text, value)) return value;
    throw FlagError("flag --" + key + " expects an integer, got: " + text);
  } else {
    if (parse_double_field(text, value)) return value;
    throw FlagError("flag --" + key + " expects a number, got: " + text);
  }
}

/// `value` if it lies in [lo, hi], else FlagError showing the flag's text.
template <typename T>
T in_range(const std::string& key, T value, T lo, T hi, std::string_view shown) {
  if (value >= lo && value <= hi) return value;
  std::ostringstream what;
  what << "flag --" << key << " must be in [" << lo << ", " << hi << "], got: " << shown;
  throw FlagError(what.str());
}

template <typename T>
std::vector<T> parse_list(const std::string& key, const std::string& list, T lo, T hi) {
  std::vector<T> out;
  for (const std::string& item : split_list(list)) {
    out.push_back(in_range(key, parse_whole<T>(key, item), lo, hi, item));
  }
  return out;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) != 0; }

std::string Flags::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_whole<std::int64_t>(key, it->second);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_whole<double>(key, it->second);
}

std::int64_t Flags::get_int_in(const std::string& key, std::int64_t fallback, std::int64_t lo,
                               std::int64_t hi) const {
  return in_range(key, get_int(key, fallback), lo, hi, get(key, std::to_string(fallback)));
}

double Flags::get_double_in(const std::string& key, double fallback, double lo,
                            double hi) const {
  return in_range(key, get_double(key, fallback), lo, hi, get(key, std::to_string(fallback)));
}

std::vector<std::int64_t> Flags::get_int_list(const std::string& key, std::int64_t lo,
                                              std::int64_t hi) const {
  return parse_list(key, get(key, ""), lo, hi);
}

std::vector<double> Flags::get_double_list(const std::string& key, double lo,
                                           double hi) const {
  return parse_list(key, get(key, ""), lo, hi);
}

}  // namespace mm::util
