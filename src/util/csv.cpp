#include "util/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mm::util {

bool parse_double_field(const std::string& field, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(field, &used);
    return used == field.size();
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<std::string> split_list(std::string_view text, char sep) {
  std::vector<std::string> out;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find(sep), text.size());
    if (end > 0) out.emplace_back(text.substr(0, end));
    text.remove_prefix(std::min(end + 1, text.size()));
  }
  return out;
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_join(const CsvRow& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    out += csv_escape(fields[i]);
  }
  return out;
}

CsvRow csv_parse_line(const std::string& line) {
  CsvRow fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF endings.
    } else {
      current += c;
    }
  }
  if (in_quotes) throw std::runtime_error("csv: unterminated quoted field: " + line);
  fields.push_back(std::move(current));
  return fields;
}

void csv_write_file(const std::filesystem::path& path, const std::vector<CsvRow>& rows) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("csv: cannot open for writing: " + path.string());
  for (const auto& row : rows) out << csv_join(row) << '\n';
}

std::vector<CsvRow> csv_read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv: cannot open for reading: " + path.string());
  std::vector<CsvRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(csv_parse_line(line));
  }
  return rows;
}

}  // namespace mm::util
