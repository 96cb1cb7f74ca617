// Configuration and accounting of the bit-entropy IDS chain: identifier
// stream -> windows -> detection -> (on alert) malicious-ID inference.
// analysis::BitEntropyBackend runs the chain; PipelineCounters is the
// frame/window/alert accounting every detector backend reports.
#pragma once

#include <cstdint>

#include "ids/detector.h"
#include "ids/inference.h"
#include "ids/window.h"

namespace canids::ids {

struct PipelineConfig {
  WindowConfig window;
  DetectorConfig detector;
  InferenceConfig inference;
  /// Run ID inference on alerted windows (costs a candidate search).
  bool infer_on_alert = true;
};

struct PipelineCounters {
  std::uint64_t frames = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t windows_evaluated = 0;
  std::uint64_t alerts = 0;
  /// Malformed capture lines skipped at ingest (candump/vspy parsers).
  /// Counted by the ingest layer (run_fleet, CLI), not the backend itself.
  std::uint64_t parse_errors = 0;
  /// Frames a detector backend could not judge and skipped (e.g. extended
  /// 29-bit IDs against an 11-bit golden template). Subset of `frames`.
  std::uint64_t dropped_frames = 0;
  /// Frames discarded BEFORE the detector by drop-newest backpressure on a
  /// full stream queue (fleet engine / live service). Disjoint from
  /// `frames`: a queue-dropped frame was never fed to the backend.
  std::uint64_t queue_dropped = 0;

  PipelineCounters& operator+=(const PipelineCounters& other) noexcept {
    frames += other.frames;
    windows_closed += other.windows_closed;
    windows_evaluated += other.windows_evaluated;
    alerts += other.alerts;
    parse_errors += other.parse_errors;
    dropped_frames += other.dropped_frames;
    queue_dropped += other.queue_dropped;
    return *this;
  }

  friend bool operator==(const PipelineCounters&,
                         const PipelineCounters&) = default;
};

}  // namespace canids::ids
