#include "bench_lib.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "attacks/scenario.h"
#include "can/bus.h"
#include "ids/inference.h"
#include "metrics/experiment.h"
#include "model/store.h"
#include "trace/binary_trace.h"
#include "trace/candump.h"
#include "util/binary_io.h"
#include "util/simd.h"

namespace perfbench {

namespace can = canids::can;
namespace trace = canids::trace;
namespace analysis = canids::analysis;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

Tail supported_tail(const std::vector<double>& samples, double want,
                    std::size_t beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.size() < 2 * beyond) {
    tail.percentile = 50.0;
    tail.value = median(samples);
    return tail;
  }
  const double highest =
      100.0 * (1.0 - static_cast<double>(beyond) /
                         static_cast<double>(samples.size()));
  tail.percentile = std::clamp(highest, 50.0, want);
  tail.value = percentile(samples, tail.percentile);
  tail.supported = true;
  return tail;
}

// ---- host -------------------------------------------------------------------

HostInfo host_info() {
  HostInfo host;
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  host.nproc = online > 0 ? static_cast<unsigned>(online) : 1u;
  host.simd = canids::util::simd_level_name(
      canids::util::detected_simd_level());
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.compiler = PERFBENCH_COMPILER;
  return host;
}

double heap_in_use_mib() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double shard_skew(const std::vector<double>& load) {
  double total = 0.0;
  for (const double v : load) total += v;
  if (total <= 0.0) return 0.0;
  return *std::max_element(load.begin(), load.end()) /
         (total / static_cast<double>(load.size()));
}

// ---- generator --------------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

BaseDrive make_drive(const trace::SyntheticVehicle& vehicle,
                     const DriveSpec& spec) {
  BaseDrive drive;
  drive.duration = spec.duration;
  // Declared before the bus: the bus may hold the attacker node.
  canids::attacks::BuiltAttack attack;
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, spec.behavior, spec.run_seed);
  if (spec.attack) {
    canids::attacks::AttackConfig config;
    config.frequency_hz = spec.frequency_hz;
    const auto at = [&spec](double share) {
      return static_cast<TimeNs>(share * static_cast<double>(spec.duration));
    };
    config.start = at(spec.attack_from);
    config.stop = at(spec.attack_to);
    attack = canids::attacks::make_scenario(
        *spec.attack, vehicle, config,
        canids::util::Rng(spec.attack_seed));
    canids::attacks::attach_attack(bus, attack);
    drive.attacked = true;
    drive.attack_start = config.start;
    drive.attack_stop = config.stop;
    drive.planned_ids = attack.planned_ids;
  }
  bus.add_listener([&drive](const can::TimedFrame& frame) {
    if (frame.timestamp < drive.duration) drive.frames.push_back(frame);
  });
  bus.run_until(spec.duration);
  for (const can::TimedFrame& frame : drive.frames) {
    drive.timestamps.push_back(frame.timestamp);
  }
  return drive;
}

TimeNs StreamInput::timestamp(std::size_t k) const noexcept {
  const std::size_t n = base->frames.size();
  return base->frames[k % n].timestamp +
         static_cast<TimeNs>(k / n) * base->duration;
}

can::TimedFrame StreamInput::frame(std::size_t k) const {
  can::TimedFrame out = base->frames[k % base->frames.size()];
  out.timestamp = timestamp(k);
  return out;
}

std::vector<can::TimedId> StreamInput::ids() const {
  std::vector<can::TimedId> out;
  out.reserve(size());
  for (std::size_t k = 0; k < size(); ++k) {
    out.push_back(can::TimedId{timestamp(k),
                               base->frames[k % base->frames.size()].frame.id()});
  }
  return out;
}

bool StreamInput::overlaps_attack(TimeNs start, TimeNs end) const noexcept {
  if (!base->attacked) return false;
  for (int r = 0; r < reps; ++r) {
    const TimeNs shift = static_cast<TimeNs>(r) * base->duration;
    if (start < shift + base->attack_stop && end > shift + base->attack_start) {
      return true;
    }
  }
  return false;
}

std::optional<std::size_t> StreamInput::closing_frame(TimeNs window_start,
                                                     TimeNs window_end,
                                                     TimeNs duration) const {
  // Base timestamps lie in [0, base->duration): find the repetition the
  // window end falls in, then match inside it (or take the first frame of
  // the next repetition).
  if (window_end < 0 || window_end - window_start != duration) {
    return std::nullopt;
  }
  const TimeNs rep = window_end / base->duration;
  const TimeNs shift = rep * base->duration;
  const std::size_t index =
      perfbench::closing_frame(base->timestamps, window_start - shift,
                               window_end - shift, duration)
          .value_or(base->timestamps.size());
  const std::size_t k =
      static_cast<std::size_t>(rep) * base->timestamps.size() + index;
  if (k >= size()) return std::nullopt;
  return k;
}

std::string encode_binary_file(const StreamInput& stream) {
  std::ostringstream header;
  canids::util::BinaryWriter writer(header);
  writer.bytes(trace::kBinaryTraceMagic);
  writer.u32(trace::kBinaryTraceVersion);
  writer.u64(stream.size());
  writer.u8(1);
  writer.str("can0");
  std::string out = header.str();
  const std::size_t head = out.size();
  out.resize(head + stream.size() * trace::kBinaryRecordBytes);
  auto* cursor = reinterpret_cast<unsigned char*>(out.data() + head);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const can::TimedFrame frame = stream.frame(k);
    trace::encode_binary_record(frame.timestamp, frame.frame, 0, cursor);
    cursor += trace::kBinaryRecordBytes;
  }
  return out;
}

std::string encode_binary_wire(const StreamInput& stream,
                               std::vector<std::size_t>* frame_ends) {
  std::string out(stream.size() * trace::kBinaryRecordBytes, '\0');
  if (frame_ends) frame_ends->resize(stream.size());
  auto* cursor = reinterpret_cast<unsigned char*>(out.data());
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const can::TimedFrame frame = stream.frame(k);
    trace::encode_binary_record(frame.timestamp, frame.frame, 0, cursor);
    cursor += trace::kBinaryRecordBytes;
    if (frame_ends) (*frame_ends)[k] = (k + 1) * trace::kBinaryRecordBytes;
  }
  return out;
}

std::string encode_candump_text(const StreamInput& stream,
                                std::vector<std::size_t>* frame_ends) {
  std::string out;
  out.reserve(stream.size() * 40);
  if (frame_ends) frame_ends->resize(stream.size());
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const can::TimedFrame frame = stream.frame(k);
    out += trace::to_candump_line(
        trace::LogRecord{frame.timestamp, "can0", frame.frame});
    out.push_back('\n');
    if (frame_ends) (*frame_ends)[k] = out.size();
  }
  return out;
}

std::vector<can::TimedId> parse_candump_text(const std::string& text) {
  std::vector<can::TimedId> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const trace::LogRecord record = trace::parse_candump_line(
        std::string_view(text).substr(start, end - start));
    out.push_back(can::TimedId{record.timestamp, record.frame.id()});
    start = end + 1;
  }
  return out;
}

std::shared_ptr<const canids::ids::GoldenTemplate> train_golden() {
  canids::metrics::ExperimentRunner runner;
  return runner.train_shared();
}

void write_bundle(const std::string& path,
                  std::shared_ptr<const canids::ids::GoldenTemplate> golden) {
  canids::model::StoredModels models;
  models.golden = std::move(golden);
  canids::model::save_models_file(path, models);
}

// ---- reference and checks ---------------------------------------------------

std::vector<analysis::WindowVerdict> StreamReference::alerts() const {
  std::vector<analysis::WindowVerdict> out;
  for (const analysis::WindowVerdict& verdict : verdicts) {
    if (verdict.alert) out.push_back(verdict);
  }
  return out;
}

StreamReference run_reference(const analysis::DetectorBackend& prototype,
                              const std::vector<std::uint32_t>& id_pool,
                              const std::vector<can::TimedId>& frames) {
  StreamReference ref;
  const std::unique_ptr<analysis::DetectorBackend> backend =
      prototype.clone_for_stream(id_pool);
  constexpr std::size_t kChunk = 256;
  for (std::size_t i = 0; i < frames.size(); i += kChunk) {
    backend->on_frames(frames.data() + i, std::min(kChunk, frames.size() - i),
                       ref.verdicts);
  }
  if (auto last = backend->finish()) ref.verdicts.push_back(std::move(*last));
  ref.counters = backend->counters();
  return ref;
}

std::string compare_alerts(const std::vector<analysis::WindowVerdict>& expected,
                           const std::vector<analysis::WindowVerdict>& got) {
  const std::size_t n = std::min(expected.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] == got[i]) continue;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "alert %zu differs: expected window [%lld, %lld), got "
                  "[%lld, %lld)",
                  i, static_cast<long long>(expected[i].start),
                  static_cast<long long>(expected[i].end),
                  static_cast<long long>(got[i].start),
                  static_cast<long long>(got[i].end));
    return buf;
  }
  if (expected.size() != got.size()) {
    return "expected " + std::to_string(expected.size()) + " alerts, got " +
           std::to_string(got.size());
  }
  return {};
}

Accounting& Accounting::operator+=(const Accounting& other) noexcept {
  offered += other.offered;
  judged += other.judged;
  width_dropped += other.width_dropped;
  queue_dropped += other.queue_dropped;
  parse_errors += other.parse_errors;
  return *this;
}

Accounting accounting_of(std::uint64_t offered,
                         const canids::ids::PipelineCounters& c) {
  Accounting a;
  a.offered = offered;
  a.judged = c.frames - c.dropped_frames;
  a.width_dropped = c.dropped_frames;
  a.queue_dropped = c.queue_dropped;
  a.parse_errors = c.parse_errors;
  return a;
}

void Quality::score(const StreamInput& stream,
                    const std::vector<analysis::WindowVerdict>& verdicts) {
  const std::vector<std::uint32_t>& planned = stream.base->planned_ids;
  for (const analysis::WindowVerdict& verdict : verdicts) {
    if (!verdict.evaluated) continue;
    const bool attack = stream.overlaps_attack(verdict.start, verdict.end);
    if (attack) {
      ++(verdict.alert ? true_positive : false_negative);
    } else {
      ++(verdict.alert ? false_positive : true_negative);
    }
    if (verdict.alert && attack && !planned.empty()) {
      ++infer_windows;
      const std::vector<std::uint32_t>& ranked =
          verdict.detail->ranked_candidates;
      if (canids::ids::inference_hit_fraction(planned, ranked) > 0.0) {
        ++infer_hits;
      }
    }
  }
}

namespace {
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

double Quality::tpr() const noexcept {
  return ratio(true_positive, true_positive + false_negative);
}
double Quality::fpr() const noexcept {
  return ratio(false_positive, false_positive + true_negative);
}
double Quality::infer_hit_frac() const noexcept {
  return ratio(infer_hits, infer_windows);
}
double Quality::verdict_accuracy() const noexcept {
  return ratio(true_positive + true_negative - (infer_windows - infer_hits),
               judged());
}

// ---- latency matching -------------------------------------------------------

std::optional<std::size_t> closing_frame(const std::vector<TimeNs>& timestamps,
                                         TimeNs window_start,
                                         TimeNs window_end, TimeNs duration) {
  if (window_end - window_start != duration) return std::nullopt;
  const auto it =
      std::lower_bound(timestamps.begin(), timestamps.end(), window_end);
  if (it == timestamps.end()) return std::nullopt;
  return static_cast<std::size_t>(it - timestamps.begin());
}

// ---- results ----------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"frames_per_s", "frames/s"},
      {"latency_p50_us", "us"},
      {"latency_tail_us", "us"},
      {"mem_peak_mb", "MiB"},
      {"verdict_accuracy", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"trace.binary_decode_ns_per_frame", "ns"},
      {"trace.candump_parse_ns_per_frame", "ns"},
      {"serve.binary_framer_ns_per_frame", "ns"},
      {"serve.line_framer_ns_per_frame", "ns"},
      {"engine.push_ns_per_frame", "ns"},
      {"engine.push_blocked_frac", "ratio"},
      {"engine.queue_depth_p99", "frames"},
      {"engine.shard_skew", "ratio"},
      {"engine.setup_ms", "ms"},
      {"model.bundle_load_ms", "ms"},
      {"model.clone_ms_per_stream", "ms"},
      {"ids.count_ns_per_frame", "ns"},
      {"ids.snapshot_ns_per_window", "ns"},
      {"ids.evaluate_ns_per_window", "ns"},
      {"ids.infer_ms_per_alert", "ms"},
      {"ids.infer_calls", "count"},
      {"ids.alert_frac", "ratio"},
      {"ids.infer_share_of_busy", "ratio"},
      {"analysis.on_frames_ns_per_frame", "ns"},
      {"serve.to_json_ns_per_alert", "ns"},
      {"can.bus_sim_ns_per_frame", "ns"},
      {"metrics.trial_ms", "ms"},
      {"campaign.report_ms", "ms"},
      {"campaign.train_ms", "ms"},
      {"load.lag_p99_us", "us"},
      {"alert_latency_p50_us", "us"},
      {"alert_latency_p99_us", "us"},
      {"failed_frac", "ratio"},
      {"trials_per_s", "trials/s"},
      {"detect_tpr", "ratio"},
      {"detect_fpr", "ratio"},
      {"infer_hit_frac", "ratio"},
      {"ledger.stage_sum_ns_per_frame", "ns"},
      {"ledger.traced_total_ns_per_frame", "ns"},
      {"ledger.untraced_total_ns_per_frame", "ns"},
      {"ledger.coverage", "ratio"},
      {"ledger.tracing_overhead", "ratio"},
  };
  return defs;
}

void print_result(const Result& result, bool trace) {
  const HostInfo host = host_info();
  std::printf("host: nproc=%u simd=%s build=%s compiler=%s\n", host.nproc,
              host.simd.c_str(), host.build_type.c_str(),
              host.compiler.c_str());
  std::vector<std::string> unset;
  std::string json;
  const std::vector<MetricDef>& reported =
      trace ? per_layer_metrics() : end_to_end_metrics();
  for (const std::vector<MetricDef>* defs :
       {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) {
      const auto found = result.values.find(def.name);
      const bool in_json = defs == &reported;
      if (found == result.values.end()) {
        if (in_json) unset.push_back(def.name);
        continue;
      }
      std::printf("metric %-36s %.6g %s\n", def.name, found->second, def.unit);
    }
  }
  for (const MetricDef& def : reported) {
    const auto found = result.values.find(def.name);
    double value = found == result.values.end() ? 0.0 : found->second;
    if (!std::isfinite(value)) value = 0.0;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", def.name, value, def.unit);
    json += buf;
  }
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  if (!unset.empty()) {
    std::string names;
    for (const std::string& name : unset) names += " " + name;
    std::printf("note: not applicable to this workload (reported as 0):%s\n",
                names.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
