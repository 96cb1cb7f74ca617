#include "trace/candump.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/csv.h"

namespace canids::trace {

namespace {

/// One from_chars pass both validates and converts: for an unsigned target
/// it accepts exactly the [0-9a-fA-F]+ set (no sign, no "0x", no empty)
/// that the old per-character isxdigit pre-scan checked, so the hot text
/// path no longer walks every field twice.
[[nodiscard]] std::uint32_t parse_hex(std::string_view s, const char* what) {
  std::uint32_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError(std::string("invalid ") + what + " '" + std::string(s) +
                     "'");
  }
  return value;
}

}  // namespace

LogRecord parse_candump_line(std::string_view line) {
  const std::string_view trimmed = util::trim(line);

  // --- "(timestamp)" --------------------------------------------------------
  if (trimmed.empty() || trimmed.front() != '(') {
    throw ParseError("expected '(timestamp)' prefix");
  }
  const std::size_t close = trimmed.find(')');
  if (close == std::string_view::npos) {
    throw ParseError("unterminated timestamp");
  }
  const std::string_view ts_text = trimmed.substr(1, close - 1);
  std::int64_t timestamp_ns = 0;
  if (!util::parse_decimal_seconds(ts_text, timestamp_ns)) {
    throw ParseError("invalid timestamp '" + std::string(ts_text) + "'");
  }

  // --- channel ---------------------------------------------------------------
  std::string_view rest = util::trim(trimmed.substr(close + 1));
  const std::size_t space = rest.find(' ');
  if (space == std::string_view::npos) {
    throw ParseError("missing channel or frame field");
  }
  const std::string_view channel = rest.substr(0, space);
  if (channel.empty()) throw ParseError("empty channel name");

  // --- "ID#DATA" --------------------------------------------------------------
  const std::string_view frame_text = util::trim(rest.substr(space + 1));
  const std::size_t hash = frame_text.find('#');
  if (hash == std::string_view::npos) {
    throw ParseError("missing '#' separator in frame field");
  }
  const std::string_view id_text = frame_text.substr(0, hash);
  std::string_view data_text = frame_text.substr(hash + 1);

  const std::uint32_t raw_id = parse_hex(id_text, "identifier");
  // candump prints 3 hex digits for standard IDs, 8 for extended ones.
  can::CanId id;
  if (id_text.size() > 3) {
    if (raw_id > can::kMaxExtId) throw ParseError("extended ID out of range");
    id = can::CanId::extended(raw_id);
  } else {
    if (raw_id > can::kMaxStdId) throw ParseError("standard ID out of range");
    id = can::CanId::standard(raw_id);
  }

  LogRecord record;
  record.timestamp = timestamp_ns;
  record.channel = std::string(channel);

  if (!data_text.empty() && (data_text.front() == 'R' || data_text.front() == 'r')) {
    // Remote frame: "R" optionally followed by the requested DLC.
    data_text.remove_prefix(1);
    std::uint8_t dlc = 0;
    if (!data_text.empty()) {
      if (data_text.size() != 1 ||
          std::isdigit(static_cast<unsigned char>(data_text.front())) == 0) {
        throw ParseError("invalid remote frame DLC");
      }
      dlc = static_cast<std::uint8_t>(data_text.front() - '0');
      if (dlc > can::kMaxDataBytes) throw ParseError("remote DLC out of range");
    }
    record.frame = can::Frame::remote_frame(id, dlc);
    return record;
  }

  if (data_text.size() % 2 != 0) {
    throw ParseError("odd number of data nibbles");
  }
  if (data_text.size() / 2 > can::kMaxDataBytes) {
    throw ParseError("data field longer than 8 bytes");
  }
  std::array<std::uint8_t, can::kMaxDataBytes> bytes{};
  for (std::size_t i = 0; i < data_text.size() / 2; ++i) {
    const std::string_view byte_text = data_text.substr(2 * i, 2);
    bytes[i] = static_cast<std::uint8_t>(parse_hex(byte_text, "data byte"));
  }
  record.frame = can::Frame::data_frame(
      id, std::span<const std::uint8_t>(bytes.data(), data_text.size() / 2));
  return record;
}

std::string to_candump_line(const LogRecord& record) {
  char ts[32];
  const double seconds = util::to_seconds(record.timestamp);
  std::snprintf(ts, sizeof ts, "(%.6f)", seconds);
  return std::string(ts) + " " + record.channel + " " +
         record.frame.to_string();
}

CandumpSource::CandumpSource(std::istream& in) : in_(&in) {}

CandumpSource::CandumpSource(const std::filesystem::path& path)
    : owned_(std::make_unique<std::ifstream>(path)), in_(owned_.get()) {
  if (!*in_) {
    throw std::runtime_error("cannot open trace file: " + path.string());
  }
}

std::optional<LogRecord> CandumpSource::next_record() {
  while (std::getline(*in_, line_)) {
    ++line_number_;
    const std::string_view body = util::trim(line_);
    if (body.empty() || body.front() == '#') continue;
    try {
      return parse_candump_line(body);
    } catch (const ParseError& e) {
      throw ParseError(e.what(), line_number_);
    }
  }
  return std::nullopt;
}

void write_candump(std::ostream& out, const Trace& trace) {
  for (const LogRecord& record : trace) {
    out << to_candump_line(record) << '\n';
  }
}

}  // namespace canids::trace
