// The traced run: one stream driven single-threaded through the stage
// order decode -> queue hop -> counting -> snapshot -> evaluate -> infer
// (alerting windows only) -> JSONL, with a span around every call into a
// layer's public API. Spans (name, start, end, parent, window index) stay
// in memory and are written out when the run ends. The same stream is also
// run untraced (decode -> queue hop -> DetectorBackend::on_frames -> JSONL,
// no timers inside), so the difference of the two totals is the tracing
// overhead; and each ingest variant (binary file decode, candump parse,
// binary wire framer, line framer) is timed over the whole stream.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/detector_backend.h"
#include "bench_lib.h"
#include "ids/golden_template.h"
#include "ids/pipeline.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::int64_t window = -1;  ///< window index, -1 for per-batch spans
};

/// How the traced stream enters the system: a canidsBT file decoded by
/// BinaryTraceSource (fleet) or the serve binary wire decoded by
/// BinaryFramer.
enum class LedgerPath : std::uint8_t { kFile, kBinaryWire };

struct LedgerInput {
  const StreamInput* stream = nullptr;
  LedgerPath path = LedgerPath::kFile;
  std::shared_ptr<const canids::ids::GoldenTemplate> golden;
  std::vector<std::uint32_t> id_pool;
  canids::ids::PipelineConfig pipeline;
  /// The prototype the system runs; the untraced pass clones it.
  const canids::analysis::DetectorBackend* prototype = nullptr;
  /// Each pass is repeated this many times; medians are reported.
  int repeats = 3;
};

/// The traced chain's stages, in stage order.
inline constexpr const char* kLedgerStages[] = {
    "decode", "queue", "count", "snapshot", "evaluate", "infer", "json"};

/// Fraction of the traced total the stage self times must cover.
inline constexpr double kLedgerCoverageTolerance = 0.10;

struct LedgerResult {
  std::uint64_t frames = 0;
  std::uint64_t windows = 0;
  std::uint64_t alerts = 0;
  std::uint64_t infer_calls = 0;
  /// Median self time per stage (ns, whole stream), keyed by stage name;
  /// also "window" (verdict assembly) and "stream" (loop glue).
  std::map<std::string, double> self_ns;
  double stage_sum_ns = 0.0;  ///< sum of kLedgerStages self times
  /// Stage sum over the traced total, per repetition (median).
  double coverage = 0.0;
  double traced_total_ns = 0.0;
  double untraced_total_ns = 0.0;
  double on_frames_ns = 0.0;  ///< DetectorBackend::on_frames alone
  double binary_decode_ns = 0.0;
  double candump_parse_ns = 0.0;
  double binary_framer_ns = 0.0;
  double line_framer_ns = 0.0;
  std::vector<Span> spans;  ///< of the last traced repetition
  /// Empty when the traced chain's verdicts equal the backend's.
  std::string mismatch;

  [[nodiscard]] double overhead() const noexcept {
    return untraced_total_ns > 0.0 ? traced_total_ns / untraced_total_ns : 0.0;
  }
};

[[nodiscard]] LedgerResult run_ledger(const LedgerInput& input);

/// Write spans as JSON lines; returns false on I/O failure.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Fill the per-layer metrics the ledger measures, check coverage and
/// verdict identity, and write the spans under `spans_path`.
void report_ledger(const LedgerResult& ledger, const std::string& spans_path,
                   Result& result);

}  // namespace perfbench
