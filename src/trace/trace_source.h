// Pull-based streaming access to CAN captures. A TraceSource yields one
// frame per next() call, so arbitrarily long logs (multi-hour candump
// captures, live taps, simulated drives) are consumed in constant memory —
// the ingestion model the fleet engine is built on. The load-everything
// Trace API (load_trace_file in trace_io.h) is RecordSource::drain_records()
// over these sources.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "can/bus.h"
#include "trace/log_record.h"

namespace canids::trace {

/// A pull-based stream of timestamped frames. next() returns frames in
/// capture order and nullopt once the stream is exhausted; implementations
/// hold O(1) state (plus file buffers), never the whole capture.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// The next frame, or nullopt at end of stream. Parsing sources throw
  /// ParseError (annotated with the line number) on malformed input.
  virtual std::optional<can::TimedFrame> next() = 0;

  /// Bulk read: append up to `max` frames to `out`, returning how many
  /// were appended; 0 means end of stream. Parsing sources may throw
  /// ParseError mid-batch — frames appended before the malformed line are
  /// kept in `out` (diff against the pre-call size) and the source
  /// recovers on the following call. The base implementation loops next();
  /// BinaryTraceSource overrides it with a block read of fixed-size
  /// records.
  virtual std::size_t fill(std::vector<can::TimedFrame>& out,
                           std::size_t max);
};

/// A TraceSource whose underlying records carry channel metadata (the file
/// parsers). next() is derived from next_record(), dropping the channel.
class RecordSource : public TraceSource {
 public:
  /// The next log record, or nullopt at end of stream.
  virtual std::optional<LogRecord> next_record() = 0;

  std::optional<can::TimedFrame> next() final;

  /// Drain every remaining record into one Trace — the whole-file read
  /// behind load_trace_file.
  [[nodiscard]] Trace drain_records();
};

/// Streams frames off a live BusSimulator by advancing the simulation in
/// bounded chunks on demand: memory is one chunk's worth of frames, not the
/// whole run. The caller configures the bus (vehicle and attackers)
/// before constructing the source; the bus must outlive it. Do not call
/// run_until elsewhere while streaming. (The registered bus listener owns
/// its buffer jointly with the source, so running the bus after the source
/// is gone is wasteful but safe.)
class BusStreamSource final : public TraceSource {
 public:
  BusStreamSource(can::BusSimulator& bus, util::TimeNs duration,
                  util::TimeNs chunk = kDefaultChunk);
  BusStreamSource(const BusStreamSource&) = delete;
  BusStreamSource& operator=(const BusStreamSource&) = delete;

  std::optional<can::TimedFrame> next() override;

  static constexpr util::TimeNs kDefaultChunk = 250 * util::kMillisecond;

 private:
  can::BusSimulator& bus_;
  /// Shared with the bus listener: BusSimulator has no listener removal,
  /// so joint ownership keeps the callback target alive for the bus's
  /// whole life.
  std::shared_ptr<std::deque<can::TimedFrame>> buffer_;
  util::TimeNs end_;
  util::TimeNs chunk_;
  util::TimeNs simulated_;
};

}  // namespace canids::trace
