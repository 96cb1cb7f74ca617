// Shared pieces of the canids benchmark: the seeded input generator, the
// sequential reference and the checks run against it, the closing-frame
// matcher behind the latency samples, exact percentiles over raw samples,
// the host record, and the result printer. Everything here is the
// benchmark's own code; it only calls the library's public entry points.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/detector_backend.h"
#include "attacks/scenario.h"
#include "can/frame.h"
#include "ids/golden_template.h"
#include "ids/pipeline.h"
#include "trace/synthetic_vehicle.h"
#include "util/time.h"

namespace perfbench {

using canids::util::TimeNs;

/// Steady-clock nanoseconds; every benchmark interval uses this clock.
[[nodiscard]] std::int64_t now_ns() noexcept;

// ---- statistics over raw samples -------------------------------------------

/// Exact percentile (0..100) of raw samples, linearly interpolated between
/// the closest ranks of the sorted sample. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median of raw samples (percentile 50).
[[nodiscard]] double median(const std::vector<double>& samples);

/// The highest percentile, at most `want`, that leaves at least `beyond`
/// samples above it: 100 * (1 - beyond / n), clamped to [50, want]. With
/// fewer than 2 * beyond samples even the median is unsupported; the
/// median is reported then and `supported` says so.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  bool supported = false;
};
[[nodiscard]] Tail supported_tail(const std::vector<double>& samples,
                                  double want = 99.0, std::size_t beyond = 10);

// ---- host record and guards ------------------------------------------------

struct HostInfo {
  unsigned nproc = 0;
  std::string simd;
  std::string build_type;
  std::string compiler;
};
[[nodiscard]] HostInfo host_info();

/// Heap bytes in use across every malloc arena (mallinfo2), MiB. Unlike
/// RSS it does not jump with thread arenas and stacks, so sampled peaks of
/// a system holding a few MiB repeat from run to run.
[[nodiscard]] double heap_in_use_mib();

/// Read-only std::streambuf over bytes that outlive it: in-memory inputs
/// for the library's istream-based trace sources.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

/// Max over mean of per-shard load; 0 when there is no load.
[[nodiscard]] double shard_skew(const std::vector<double>& load);

// ---- seeded input generator ------------------------------------------------

/// Mix a run seed with a salt (splitmix64), so each stream and attacker
/// draws from its own deterministic sequence.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt) noexcept;

/// One simulated drive of the fixed synthetic vehicle, optionally with an
/// attacker active over [attack_from, attack_to) of the drive.
struct DriveSpec {
  std::uint64_t run_seed = 0;
  /// Drives the attacker's choices (injected ids, fuzzing sequence).
  std::uint64_t attack_seed = 0;
  canids::trace::DrivingBehavior behavior =
      canids::trace::DrivingBehavior::kCity;
  std::optional<canids::attacks::ScenarioKind> attack;
  double frequency_hz = 100.0;
  TimeNs duration = 20 * canids::util::kSecond;
  double attack_from = 0.25;
  double attack_to = 0.75;
};

struct BaseDrive {
  std::vector<canids::can::TimedFrame> frames;  ///< timestamps in [0, duration)
  std::vector<TimeNs> timestamps;               ///< frames[k].timestamp
  TimeNs duration = 0;
  bool attacked = false;
  TimeNs attack_start = 0;
  TimeNs attack_stop = 0;
  /// BuiltAttack::planned_ids: the ground truth for inference hits.
  std::vector<std::uint32_t> planned_ids;
};

[[nodiscard]] BaseDrive make_drive(const canids::trace::SyntheticVehicle& vehicle,
                                   const DriveSpec& spec);

/// A stream's input: its base drive repeated `reps` times, each repetition
/// shifted by the drive duration. Window boundaries (anchored at the first
/// frame) therefore fall at the same offsets in every repetition.
struct StreamInput {
  std::string key;
  std::shared_ptr<const BaseDrive> base;
  int reps = 1;

  [[nodiscard]] std::size_t size() const noexcept {
    return base->frames.size() * static_cast<std::size_t>(reps);
  }
  [[nodiscard]] TimeNs timestamp(std::size_t k) const noexcept;
  [[nodiscard]] canids::can::TimedFrame frame(std::size_t k) const;
  [[nodiscard]] std::vector<canids::can::TimedId> ids() const;
  /// Whether [start, end) overlaps an attack interval of any repetition.
  [[nodiscard]] bool overlaps_attack(TimeNs start, TimeNs end) const noexcept;
  /// closing_frame (below) over this stream's repeated timestamps.
  [[nodiscard]] std::optional<std::size_t> closing_frame(
      TimeNs window_start, TimeNs window_end, TimeNs duration) const;
};

/// A canidsBT file image (header + 22-byte records) of the stream.
[[nodiscard]] std::string encode_binary_file(const StreamInput& stream);
/// The serve binary wire payload: bare 22-byte records, no header.
/// `frame_ends[k]` is the byte offset just past frame k.
[[nodiscard]] std::string encode_binary_wire(const StreamInput& stream,
                                             std::vector<std::size_t>* frame_ends);
/// The serve text wire payload: one candump line per frame.
[[nodiscard]] std::string encode_candump_text(const StreamInput& stream,
                                              std::vector<std::size_t>* frame_ends);
/// Decode candump text back to the (timestamp, id) pairs the system sees
/// (text timestamps have microsecond resolution).
[[nodiscard]] std::vector<canids::can::TimedId> parse_candump_text(
    const std::string& text);

/// The golden template every frame workload judges against, trained the
/// paper's way on the fixed synthetic vehicle; written as a model bundle.
[[nodiscard]] std::shared_ptr<const canids::ids::GoldenTemplate> train_golden();
void write_bundle(const std::string& path,
                  std::shared_ptr<const canids::ids::GoldenTemplate> golden);

// ---- reference and checks --------------------------------------------------

/// A stream run sequentially through a fresh clone of the prototype: every
/// closed window, in stream order, and the backend's counters.
struct StreamReference {
  std::vector<canids::analysis::WindowVerdict> verdicts;
  canids::ids::PipelineCounters counters;

  [[nodiscard]] std::vector<canids::analysis::WindowVerdict> alerts() const;
};
[[nodiscard]] StreamReference run_reference(
    const canids::analysis::DetectorBackend& prototype,
    const std::vector<std::uint32_t>& id_pool,
    const std::vector<canids::can::TimedId>& frames);

/// Empty when `got` equals `expected` alert for alert (stream window
/// start/end, frames, metric, bits, candidates); else the first difference.
[[nodiscard]] std::string compare_alerts(
    const std::vector<canids::analysis::WindowVerdict>& expected,
    const std::vector<canids::analysis::WindowVerdict>& got);

/// Frames offered = judged + width-dropped + queue-dropped + parse errors.
struct Accounting {
  std::uint64_t offered = 0;
  std::uint64_t judged = 0;
  std::uint64_t width_dropped = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t parse_errors = 0;

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return width_dropped + queue_dropped + parse_errors;
  }
  [[nodiscard]] bool holds() const noexcept {
    return offered == judged + failed();
  }
  [[nodiscard]] double failed_frac() const noexcept {
    return offered == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(offered);
  }
  Accounting& operator+=(const Accounting& other) noexcept;
};
/// Split a stream's counters (frames includes width-dropped frames).
[[nodiscard]] Accounting accounting_of(std::uint64_t offered,
                                       const canids::ids::PipelineCounters& c);

/// Window-level detection quality against the generator's ground truth.
struct Quality {
  std::uint64_t true_positive = 0;
  std::uint64_t false_positive = 0;
  std::uint64_t true_negative = 0;
  std::uint64_t false_negative = 0;
  /// Alerting attack windows of streams with planned ids, and how many of
  /// them rank a planned id among the candidates.
  std::uint64_t infer_windows = 0;
  std::uint64_t infer_hits = 0;

  void score(const StreamInput& stream,
             const std::vector<canids::analysis::WindowVerdict>& verdicts);
  [[nodiscard]] std::uint64_t judged() const noexcept {
    return true_positive + false_positive + true_negative + false_negative;
  }
  [[nodiscard]] double tpr() const noexcept;
  [[nodiscard]] double fpr() const noexcept;
  [[nodiscard]] double infer_hit_frac() const noexcept;
  /// Judged windows whose verdict is right — alert exactly when the window
  /// overlaps an attack, and for inferable attacks a true id ranked — over
  /// judged windows.
  [[nodiscard]] double verdict_accuracy() const noexcept;
};

// ---- latency matching ------------------------------------------------------

/// Under util::WindowClock alignment a window [start, start + duration) is
/// closed by the first frame stamped at or after its end. Returns that
/// frame's index in `timestamps` (ascending), or nullopt when the verdict
/// was not closed by a frame: the partial final window flushed at stream
/// end (end - start != duration) or an end past the last frame.
[[nodiscard]] std::optional<std::size_t> closing_frame(
    const std::vector<TimeNs>& timestamps, TimeNs window_start,
    TimeNs window_end, TimeNs duration);

// ---- results ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The metric sets BENCHMARK.json declares, in declaration order.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;
  std::vector<std::string> errors;

  void set(const std::string& name, double value) { values[name] = value; }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Print the human-readable report (every metric by name and unit, notes,
/// errors) and, as the last stdout line, the result JSON with the
/// end-to-end metrics (trace = false) or the per-layer ones (trace = true).
/// A metric the workload did not set prints as 0 and is named in a note.
void print_result(const Result& result, bool trace);

}  // namespace perfbench
