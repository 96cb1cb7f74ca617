// Minimal CSV reading/writing used by the trace parsers and result dumps.
// Handles quoted fields with embedded commas/quotes (RFC 4180 subset).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace canids::util {

/// Split one CSV line into fields. Supports double-quoted fields with
/// escaped quotes (""). Does not support embedded newlines (the trace
/// formats we parse never contain them).
[[nodiscard]] std::vector<std::string> split_csv_line(std::string_view line);

/// Escape and join fields into one CSV line (no trailing newline).
[[nodiscard]] std::string join_csv_line(const std::vector<std::string>& fields);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Case-insensitive ASCII string equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Parse a non-negative decimal-seconds literal ("1436509052.249713") into
/// exact nanoseconds, without going through double (which loses nanosecond
/// precision on epoch-sized values). Fractional digits beyond 9 are
/// truncated. Returns false on malformed input.
[[nodiscard]] bool parse_decimal_seconds(std::string_view text,
                                         std::int64_t& nanoseconds) noexcept;

/// Strict double parse: the whole token must be consumed and the value
/// finite (the rule every label, JSON and CLI number shares — a trailing
/// 'x' or an inf/nan must reject, not truncate). Returns false on failure.
[[nodiscard]] bool parse_double_strict(std::string_view text,
                                       double& value) noexcept;

/// Incremental CSV writer with a fixed header.
class CsvWriter {
 public:
  CsvWriter(std::ostream& os, std::vector<std::string> header);
  void write_row(const std::vector<std::string>& row);

 private:
  std::ostream& os_;
  std::size_t columns_;
};

}  // namespace canids::util
