// Parser/writer for a Vehicle Spy-style CSV export (the tool the paper used
// to capture the 2016 Ford Fusion traffic). Layout:
//
//   Time,Channel,ID,Extended,Remote,DLC,B1,B2,B3,B4,B5,B6,B7,B8
//   0.000000,MS CAN,0D1,0,0,8,80,80,00,00,00,00,80,59
//
// Time is seconds from capture start; ID and data bytes are hexadecimal.
// Missing trailing byte columns are accepted when DLC is short.
#pragma once

#include <filesystem>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/log_record.h"
#include "trace/trace_source.h"

namespace canids::trace {

/// Parse one CSV data row (not the header). Throws ParseError.
[[nodiscard]] LogRecord parse_vspy_row(std::string_view line);

/// Render one record as a CSV row (no trailing newline).
[[nodiscard]] std::string to_vspy_row(const LogRecord& record);

/// The canonical header row written by write_vspy_csv.
[[nodiscard]] std::string vspy_header();

/// Streams a Vehicle-Spy CSV export row-by-row in constant memory. The
/// first non-empty line must be a header containing "Time" and "ID"
/// columns; malformed rows throw ParseError with the 1-based line number.
class VspyCsvSource final : public RecordSource {
 public:
  /// Stream from a file; throws std::runtime_error when it cannot open.
  explicit VspyCsvSource(const std::filesystem::path& path);

  std::optional<LogRecord> next_record() override;

 private:
  std::ifstream in_;
  std::string line_;  ///< reused per getline — one allocation per source
  std::size_t line_number_ = 0;
  bool header_seen_ = false;
};

/// Write header plus all records.
void write_vspy_csv(std::ostream& out, const Trace& trace);

}  // namespace canids::trace
