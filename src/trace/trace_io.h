// Format-agnostic trace loading/saving with auto-detection, plus helpers to
// capture simulator traffic into a Trace.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>

#include "can/bus.h"
#include "trace/log_record.h"
#include "trace/trace_source.h"

namespace canids::trace {

enum class TraceFormat : std::uint8_t { kCandump, kVspyCsv, kBinary };

/// CLI token for a format: "candump" / "vspy" / "binary".
[[nodiscard]] std::string_view trace_format_name(TraceFormat format);
/// Inverse of trace_format_name; nullopt for an unknown token.
[[nodiscard]] std::optional<TraceFormat> trace_format_from_token(
    std::string_view token);

/// Guess the format from the content head: the canidsBT magic means
/// binary, otherwise the first non-empty line decides (candump vs CSV).
[[nodiscard]] TraceFormat detect_format(std::istream& in);

/// Guess the format from the head of a file.
[[nodiscard]] TraceFormat detect_format_file(const std::filesystem::path& path);

/// Open a capture file as a streaming source, auto-detecting the format.
/// The returned source reads the file incrementally — constant memory no
/// matter how long the log is. Throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] std::unique_ptr<RecordSource> open_trace_source(
    const std::filesystem::path& path);

/// Load a trace from a file; throws ParseError / std::runtime_error.
[[nodiscard]] Trace load_trace_file(const std::filesystem::path& path);

/// Save a trace in the requested format. save_trace_file throws
/// util::WriteError when the file cannot be written in full.
void save_trace(std::ostream& out, const Trace& trace, TraceFormat format);
void save_trace_file(const std::filesystem::path& path, const Trace& trace,
                     TraceFormat format);

/// A bus listener that appends every completed frame to a Trace. Keep the
/// recorder alive for as long as the bus runs.
class TraceRecorder {
 public:
  /// Attach to `bus`; records into an internal trace.
  explicit TraceRecorder(can::BusSimulator& bus, std::string channel = "can0");

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] Trace take() noexcept { return std::move(trace_); }
  void clear() noexcept { trace_.clear(); }

 private:
  std::string channel_;
  Trace trace_;
};

/// Basic statistics over a trace, used by reports and sanity tests.
struct TraceSummary {
  std::size_t frames = 0;
  std::size_t distinct_ids = 0;
  util::TimeNs duration = 0;
  double frames_per_second = 0.0;
};

[[nodiscard]] TraceSummary summarize(const Trace& trace);

}  // namespace canids::trace
