// Offline log analysis: the analyst workflow on captured CAN logs.
//
// Usage:
//   ./offline_log_analysis                 # self-contained demo (generates
//                                          # train.log / drive.log first)
//   ./offline_log_analysis train.log drive.log
//
// train.log must be attack-free; drive.log is the capture to analyse. Both
// candump and Vehicle-Spy-style CSV are auto-detected. The self-contained
// demo exits 1 if its attacked drive raises no alert.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include "analysis/backends.h"
#include "attacks/scenario.h"
#include "trace/trace_io.h"

using namespace canids;

namespace {

/// Generate demo logs so the example runs without real captures.
void generate_demo_logs(const std::filesystem::path& train_path,
                        const std::filesystem::path& drive_path) {
  const trace::SyntheticVehicle vehicle;

  trace::Trace training;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const trace::Trace part = vehicle.record_trace(
        trace::kAllBehaviors[seed % trace::kAllBehaviors.size()],
        8 * util::kSecond, 500 + seed);
    // Re-base timestamps so the concatenated log stays monotone.
    const util::TimeNs base =
        static_cast<util::TimeNs>(seed) * 9 * util::kSecond;
    for (trace::LogRecord record : part) {
      record.timestamp += base;
      training.push_back(std::move(record));
    }
  }
  trace::save_trace_file(train_path, training, trace::TraceFormat::kCandump);

  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kHighway, 77);
  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = 80.0;
  attack_config.start = 6 * util::kSecond;
  attack_config.stop = 14 * util::kSecond;
  auto attack = attacks::make_scenario(attacks::ScenarioKind::kMulti2,
                                       vehicle, attack_config, util::Rng(3));
  std::printf("demo drive contains a 2-ID injection (IDs");
  for (std::uint32_t id : attack.planned_ids) std::printf(" %03X", id);
  std::printf(") between t=6s and t=14s\n");
  attacks::attach_attack(bus, attack);
  trace::TraceRecorder recorder(bus, "can0");
  bus.run_until(18 * util::kSecond);
  trace::save_trace_file(drive_path, recorder.trace(),
                         trace::TraceFormat::kCandump);
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path train_path;
  std::filesystem::path drive_path;
  const bool demo = argc != 3;
  if (!demo) {
    train_path = argv[1];
    drive_path = argv[2];
  } else {
    train_path = std::filesystem::temp_directory_path() / "canids_train.log";
    drive_path = std::filesystem::temp_directory_path() / "canids_drive.log";
    std::printf("no logs given; generating demo captures...\n");
    generate_demo_logs(train_path, drive_path);
  }

  // --- Load ------------------------------------------------------------------
  const trace::Trace training = trace::load_trace_file(train_path);
  const trace::Trace drive = trace::load_trace_file(drive_path);
  const trace::TraceSummary train_summary = trace::summarize(training);
  const trace::TraceSummary drive_summary = trace::summarize(drive);
  std::printf("train: %zu frames, %zu IDs, %.1f s\n", train_summary.frames,
              train_summary.distinct_ids,
              util::to_seconds(train_summary.duration));
  std::printf("drive: %zu frames, %zu IDs, %.1f s\n", drive_summary.frames,
              drive_summary.distinct_ids,
              util::to_seconds(drive_summary.duration));

  // --- Train -----------------------------------------------------------------
  ids::WindowConfig window;  // 1 s windows
  ids::TemplateBuilder builder;
  {
    ids::WindowAccumulator accumulator(window);
    for (const trace::LogRecord& record : training) {
      if (auto snap = accumulator.add(record.timestamp, record.frame.id())) {
        if (snap->end - snap->start == window.duration) {
          builder.add_window(*snap);
        }
      }
    }
  }
  const auto golden =
      std::make_shared<const ids::GoldenTemplate>(builder.build());
  std::printf("template: %zu training windows\n", golden->training_windows);

  // --- Analyse ----------------------------------------------------------------
  // The ID pool for inference is everything seen in training.
  std::vector<std::uint32_t> pool;
  {
    std::set<std::uint32_t> ids_seen;
    for (const trace::LogRecord& record : training) {
      if (!record.frame.id().is_extended()) {
        ids_seen.insert(record.frame.id().raw());
      }
    }
    pool.assign(ids_seen.begin(), ids_seen.end());
  }

  ids::PipelineConfig pipeline_config;
  pipeline_config.window = window;
  analysis::BitEntropyBackend backend(golden, pool, pipeline_config);

  std::size_t alert_windows = 0;
  auto report_alert = [&](const analysis::WindowVerdict& verdict) {
    if (!verdict.alert) return;
    ++alert_windows;
    std::printf("[%6.1fs] intrusion: bits", util::to_seconds(verdict.start));
    for (int bit : verdict.detail->alerted_bits) std::printf(" %d", bit + 1);
    const std::vector<std::uint32_t>& candidates =
        verdict.detail->ranked_candidates;
    if (!candidates.empty()) {
      std::printf("  candidates:");
      for (std::size_t i = 0; i < candidates.size() && i < 10; ++i) {
        std::printf(" %03X", candidates[i]);
      }
    }
    std::printf("\n");
  };

  for (const trace::LogRecord& record : drive) {
    if (auto verdict = backend.on_frame(record.timestamp, record.frame.id())) {
      report_alert(*verdict);
    }
  }
  if (auto verdict = backend.finish()) report_alert(*verdict);

  std::printf("%zu of %llu windows alerted\n", alert_windows,
              static_cast<unsigned long long>(
                  backend.counters().windows_closed));
  return demo && alert_windows == 0 ? 1 : 0;
}
