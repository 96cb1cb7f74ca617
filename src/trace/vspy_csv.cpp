#include "trace/vspy_csv.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/csv.h"

namespace canids::trace {

namespace {

constexpr std::size_t kFixedColumns = 6;  // Time,Channel,ID,Extended,Remote,DLC

[[nodiscard]] std::uint32_t parse_hex_field(std::string_view s,
                                            const char* what) {
  std::uint32_t value = 0;
  const std::string_view body = util::trim(s);
  const auto [ptr, ec] =
      std::from_chars(body.data(), body.data() + body.size(), value, 16);
  if (body.empty() || ec != std::errc{} || ptr != body.data() + body.size()) {
    throw ParseError(std::string("invalid hex ") + what + " '" +
                     std::string(s) + "'");
  }
  return value;
}

[[nodiscard]] bool parse_bool_field(std::string_view s, const char* what) {
  const std::string_view body = util::trim(s);
  if (body == "0" || util::iequals(body, "false")) return false;
  if (body == "1" || util::iequals(body, "true")) return true;
  throw ParseError(std::string("invalid boolean ") + what + " '" +
                   std::string(s) + "'");
}

}  // namespace

LogRecord parse_vspy_row(std::string_view line) {
  const std::vector<std::string> fields = util::split_csv_line(line);
  if (fields.size() < kFixedColumns) {
    throw ParseError("expected at least 6 columns, got " +
                     std::to_string(fields.size()));
  }

  LogRecord record;
  {
    std::int64_t timestamp_ns = 0;
    if (!util::parse_decimal_seconds(fields[0], timestamp_ns)) {
      throw ParseError("invalid Time '" + fields[0] + "'");
    }
    record.timestamp = timestamp_ns;
  }
  record.channel = std::string(util::trim(fields[1]));
  if (record.channel.empty()) throw ParseError("empty Channel");

  const std::uint32_t raw_id = parse_hex_field(fields[2], "ID");
  const bool extended = parse_bool_field(fields[3], "Extended");
  const bool remote = parse_bool_field(fields[4], "Remote");

  can::CanId id;
  if (extended) {
    if (raw_id > can::kMaxExtId) throw ParseError("extended ID out of range");
    id = can::CanId::extended(raw_id);
  } else {
    if (raw_id > can::kMaxStdId) throw ParseError("standard ID out of range");
    id = can::CanId::standard(raw_id);
  }

  std::uint32_t dlc = 0;
  {
    const std::string_view body = util::trim(fields[5]);
    const auto [ptr, ec] =
        std::from_chars(body.data(), body.data() + body.size(), dlc, 10);
    if (body.empty() || ec != std::errc{} || ptr != body.data() + body.size() ||
        dlc > can::kMaxDataBytes) {
      throw ParseError("invalid DLC '" + fields[5] + "'");
    }
  }

  if (remote) {
    record.frame = can::Frame::remote_frame(id, static_cast<std::uint8_t>(dlc));
    return record;
  }

  if (fields.size() < kFixedColumns + dlc) {
    throw ParseError("row has fewer data columns than DLC=" +
                     std::to_string(dlc));
  }
  std::array<std::uint8_t, can::kMaxDataBytes> bytes{};
  for (std::uint32_t i = 0; i < dlc; ++i) {
    const std::uint32_t value =
        parse_hex_field(fields[kFixedColumns + i], "data byte");
    if (value > 0xFF) throw ParseError("data byte out of range");
    bytes[i] = static_cast<std::uint8_t>(value);
  }
  record.frame = can::Frame::data_frame(
      id, std::span<const std::uint8_t>(bytes.data(), dlc));
  return record;
}

std::string to_vspy_row(const LogRecord& record) {
  char time_text[32];
  std::snprintf(time_text, sizeof time_text, "%.6f",
                util::to_seconds(record.timestamp));

  std::vector<std::string> fields;
  fields.reserve(kFixedColumns + can::kMaxDataBytes);
  fields.emplace_back(time_text);
  fields.push_back(record.channel);
  fields.push_back(record.frame.id().to_string());
  fields.emplace_back(record.frame.id().is_extended() ? "1" : "0");
  fields.emplace_back(record.frame.is_remote() ? "1" : "0");
  fields.push_back(std::to_string(static_cast<int>(record.frame.dlc())));
  for (std::uint8_t byte : record.frame.payload()) {
    char hex[4];
    std::snprintf(hex, sizeof hex, "%02X", byte);
    fields.emplace_back(hex);
  }
  return util::join_csv_line(fields);
}

std::string vspy_header() {
  return "Time,Channel,ID,Extended,Remote,DLC,B1,B2,B3,B4,B5,B6,B7,B8";
}

VspyCsvSource::VspyCsvSource(const std::filesystem::path& path) : in_(path) {
  if (!in_) {
    throw std::runtime_error("cannot open trace file: " + path.string());
  }
}

std::optional<LogRecord> VspyCsvSource::next_record() {
  while (std::getline(in_, line_)) {
    ++line_number_;
    const std::string_view body = util::trim(line_);
    if (body.empty()) continue;
    if (!header_seen_) {
      if (body.find("Time") == std::string_view::npos ||
          body.find("ID") == std::string_view::npos) {
        throw ParseError("missing header row (need Time and ID columns)",
                         line_number_);
      }
      header_seen_ = true;
      continue;
    }
    try {
      return parse_vspy_row(body);
    } catch (const ParseError& e) {
      throw ParseError(e.what(), line_number_);
    }
  }
  return std::nullopt;
}

void write_vspy_csv(std::ostream& out, const Trace& trace) {
  out << vspy_header() << '\n';
  for (const LogRecord& record : trace) {
    out << to_vspy_row(record) << '\n';
  }
}

}  // namespace canids::trace
