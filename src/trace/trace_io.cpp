#include "trace/trace_io.h"

#include <fstream>
#include <set>
#include <sstream>

#include "trace/binary_trace.h"
#include "trace/candump.h"
#include "trace/vspy_csv.h"
#include "util/csv.h"

namespace canids::trace {

std::string_view trace_format_name(TraceFormat format) {
  switch (format) {
    case TraceFormat::kCandump:
      return "candump";
    case TraceFormat::kVspyCsv:
      return "vspy";
    case TraceFormat::kBinary:
      return "binary";
  }
  return "candump";
}

std::optional<TraceFormat> trace_format_from_token(std::string_view token) {
  if (token == "candump") return TraceFormat::kCandump;
  if (token == "vspy") return TraceFormat::kVspyCsv;
  if (token == "binary") return TraceFormat::kBinary;
  return std::nullopt;
}

TraceFormat detect_format(std::istream& in) {
  if (is_binary_trace(in)) return TraceFormat::kBinary;
  const std::streampos start = in.tellg();
  std::string line;
  TraceFormat format = TraceFormat::kCandump;
  while (std::getline(in, line)) {
    const std::string_view body = util::trim(line);
    if (body.empty()) continue;
    // candump lines start with "(timestamp)"; anything else that contains a
    // comma is treated as CSV.
    format = (body.front() == '(') ? TraceFormat::kCandump
                                   : TraceFormat::kVspyCsv;
    break;
  }
  in.clear();
  in.seekg(start);
  return format;
}

TraceFormat detect_format_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open trace file: " + path.string());
  }
  return detect_format(in);
}

std::unique_ptr<RecordSource> open_trace_source(
    const std::filesystem::path& path) {
  switch (detect_format_file(path)) {
    case TraceFormat::kCandump:
      return std::make_unique<CandumpSource>(path);
    case TraceFormat::kVspyCsv:
      return std::make_unique<VspyCsvSource>(path);
    case TraceFormat::kBinary:
      return std::make_unique<BinaryTraceSource>(path);
  }
  throw ParseError("unknown trace format");
}

Trace load_trace_file(const std::filesystem::path& path) {
  return open_trace_source(path)->drain_records();
}

void save_trace(std::ostream& out, const Trace& trace, TraceFormat format) {
  switch (format) {
    case TraceFormat::kCandump:
      write_candump(out, trace);
      return;
    case TraceFormat::kVspyCsv:
      write_vspy_csv(out, trace);
      return;
    case TraceFormat::kBinary:
      write_binary_trace(out, trace);
      return;
  }
}

void save_trace_file(const std::filesystem::path& path, const Trace& trace,
                     TraceFormat format) {
  std::ofstream out(path, format == TraceFormat::kBinary
                              ? std::ios::out | std::ios::binary
                              : std::ios::out);
  if (!out) {
    throw std::runtime_error("cannot open trace file for writing: " +
                             path.string());
  }
  save_trace(out, trace, format);
}

TraceRecorder::TraceRecorder(can::BusSimulator& bus, std::string channel)
    : channel_(std::move(channel)) {
  bus.add_listener([this](const can::TimedFrame& frame) {
    trace_.push_back(LogRecord{frame.timestamp, channel_, frame.frame});
  });
}

TraceSummary summarize(const Trace& trace) {
  TraceSummary summary;
  summary.frames = trace.size();
  if (trace.empty()) return summary;

  std::set<std::pair<std::uint32_t, bool>> ids;
  util::TimeNs lo = trace.front().timestamp;
  util::TimeNs hi = trace.front().timestamp;
  for (const LogRecord& record : trace) {
    ids.insert({record.frame.id().raw(), record.frame.id().is_extended()});
    lo = std::min(lo, record.timestamp);
    hi = std::max(hi, record.timestamp);
  }
  summary.distinct_ids = ids.size();
  summary.duration = hi - lo;
  summary.frames_per_second =
      summary.duration > 0
          ? static_cast<double>(summary.frames) / util::to_seconds(summary.duration)
          : 0.0;
  return summary;
}

}  // namespace canids::trace
