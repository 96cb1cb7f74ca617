#include "util/csv.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>

#include "util/contracts.h"

namespace canids::util {

std::vector<std::string> split_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF line endings.
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

std::string join_csv_line(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line.push_back(',');
    const std::string& f = fields[i];
    const bool needs_quotes =
        f.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes) {
      line += f;
      continue;
    }
    line.push_back('"');
    for (char c : f) {
      if (c == '"') line += "\"\"";
      else line.push_back(c);
    }
    line.push_back('"');
  }
  return line;
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ca = std::tolower(static_cast<unsigned char>(a[i]));
    const auto cb = std::tolower(static_cast<unsigned char>(b[i]));
    if (ca != cb) return false;
  }
  return true;
}

bool parse_double_strict(std::string_view text, double& value) noexcept {
  text = trim(text);
  if (text.empty()) return false;
  double parsed = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc{} || end != text.data() + text.size()) return false;
  if (!std::isfinite(parsed)) return false;
  value = parsed;
  return true;
}

bool parse_decimal_seconds(std::string_view text,
                           std::int64_t& nanoseconds) noexcept {
  text = trim(text);
  if (text.empty()) return false;
  std::int64_t seconds = 0;
  std::size_t i = 0;
  bool any_digit = false;
  for (; i < text.size() && text[i] != '.'; ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    if (seconds > (INT64_MAX - 9) / 10) return false;  // overflow guard
    seconds = seconds * 10 + (text[i] - '0');
    any_digit = true;
  }
  std::int64_t fraction = 0;
  int fraction_digits = 0;
  if (i < text.size()) {
    ++i;  // skip '.'
    for (; i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      if (fraction_digits < 9) {
        fraction = fraction * 10 + (text[i] - '0');
        ++fraction_digits;
      }
      any_digit = true;
    }
  }
  if (!any_digit) return false;
  for (; fraction_digits < 9; ++fraction_digits) fraction *= 10;
  if (seconds > (INT64_MAX - fraction) / 1'000'000'000) return false;
  nanoseconds = seconds * 1'000'000'000 + fraction;
  return true;
}

CsvWriter::CsvWriter(std::ostream& os, std::vector<std::string> header)
    : os_(os), columns_(header.size()) {
  CANIDS_EXPECTS(columns_ > 0);
  os_ << join_csv_line(header) << '\n';
}

void CsvWriter::write_row(const std::vector<std::string>& row) {
  CANIDS_EXPECTS(row.size() == columns_);
  os_ << join_csv_line(row) << '\n';
}

}  // namespace canids::util
