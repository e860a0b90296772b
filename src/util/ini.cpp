#include "util/ini.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"

namespace mm::util {

namespace {
std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}
}  // namespace

IniFile IniFile::parse(const std::string& text) {
  IniFile ini;
  std::istringstream stream(text);
  std::string line;
  std::string current_section;
  bool in_section = false;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == ';') continue;
    if (trimmed.front() == '[') {
      if (trimmed.back() != ']') {
        throw std::runtime_error("ini: unterminated section header at line " +
                                 std::to_string(line_no));
      }
      current_section = trim(trimmed.substr(1, trimmed.size() - 2));
      in_section = true;
      ini.sections_[current_section];  // record even if empty
      continue;
    }
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("ini: expected key=value at line " + std::to_string(line_no));
    }
    if (!in_section) {
      throw std::runtime_error("ini: key outside any section at line " +
                               std::to_string(line_no));
    }
    ini.sections_[current_section][trim(trimmed.substr(0, eq))] =
        trim(trimmed.substr(eq + 1));
  }
  return ini;
}

IniFile IniFile::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ini: cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool IniFile::has_section(const std::string& section) const {
  return sections_.count(section) != 0;
}

bool IniFile::has(const std::string& section, const std::string& key) const {
  const auto it = sections_.find(section);
  return it != sections_.end() && it->second.count(key) != 0;
}

std::optional<std::string> IniFile::get(const std::string& section,
                                        const std::string& key) const {
  const auto sec = sections_.find(section);
  if (sec == sections_.end()) return std::nullopt;
  const auto val = sec->second.find(key);
  if (val == sec->second.end()) return std::nullopt;
  return val->second;
}

std::string IniFile::get_or(const std::string& section, const std::string& key,
                            const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

double IniFile::get_double(const std::string& section, const std::string& key,
                           double fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  double parsed = 0.0;
  if (parse_double_field(*value, parsed)) return parsed;
  throw std::runtime_error("ini: [" + section + "] " + key + " is not a number: " + *value);
}

std::int64_t IniFile::get_int(const std::string& section, const std::string& key,
                              std::int64_t fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(*value, &consumed);
    if (consumed != value->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("ini: [" + section + "] " + key +
                             " is not an integer: " + *value);
  }
}

bool IniFile::get_bool(const std::string& section, const std::string& key,
                       bool fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  std::string lower = *value;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") return false;
  throw std::runtime_error("ini: [" + section + "] " + key + " is not a boolean: " + *value);
}

}  // namespace mm::util
