// STAB — §IV.B of the paper: the golden-template stability claim. The paper
// reports that per-bit entropy varies only ~1e-8..9e-8 across driving
// situations on the real Ford Fusion, validating a static template.
// This bench measures the same quantity on the synthetic vehicle, then
// sweeps the threshold coefficient alpha over the paper's empirical [3,10]
// range and reports the false-positive rate on clean traffic — the
// trade-off behind the paper's choice of alpha = 5.
#include <iostream>

#include "metrics/experiment.h"
#include "trace/trace_io.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/bench_json.h"

using namespace canids;

int main() {
  const util::BenchTimer bench_timer;
  metrics::ExperimentConfig config;
  config.training_windows = ids::kPaperTrainingWindows;
  config.seed = 0x57AB;
  metrics::ExperimentRunner runner(config);
  const ids::GoldenTemplate& golden = runner.train();

  util::print_banner(std::cout,
                     "Template stability — per-bit entropy variation across "
                     "driving behaviours (35 windows)");

  util::Table bit_table({"bit", "mean H", "min H", "max H", "range",
                         "range/mean"});
  double max_range = 0.0;
  for (int bit = 0; bit < golden.width; ++bit) {
    const auto b = static_cast<std::size_t>(bit);
    const double range = golden.entropy_range(bit);
    max_range = std::max(max_range, range);
    bit_table.add_row(
        {"Bit " + std::to_string(bit + 1),
         util::Table::num(golden.mean_entropy[b], 5),
         util::Table::num(golden.min_entropy[b], 5),
         util::Table::num(golden.max_entropy[b], 5),
         util::Table::num(range, 5),
         golden.mean_entropy[b] > 0
             ? util::Table::num(range / golden.mean_entropy[b], 4)
             : "--"});
  }
  bit_table.print(std::cout);
  std::cout << "paper: variation 1e-8..9e-8 (real vehicle, long windows)\n"
            << "ours : max range " << util::Table::num(max_range, 5)
            << " (1 s windows of simulated traffic; the claim that matters "
               "is range << attack-induced deviation, checked below)\n";

  // --- FPR / detectability vs alpha -------------------------------------------
  util::print_banner(std::cout,
                     "alpha sweep (paper: alpha in [3,10], chosen 5) — FPR "
                     "on clean windows vs detection of a 100 Hz single-ID "
                     "attack");

  // Fresh clean windows, NOT the training set.
  std::vector<ids::WindowSnapshot> clean_windows;
  for (std::uint64_t seed = 0; seed < trace::kAllBehaviors.size(); ++seed) {
    const trace::Trace capture = runner.vehicle().record_trace(
        trace::kAllBehaviors[seed], 6 * util::kSecond, 9000 + seed);
    std::vector<can::TimedFrame> frames;
    for (const trace::LogRecord& r : capture) {
      frames.push_back({r.timestamp, r.frame, -1});
    }
    for (const auto& snap : ids::windows_of(frames, {})) {
      if (snap.end - snap.start == util::kSecond) {
        clean_windows.push_back(snap);
      }
    }
  }

  // One attacked window set at 100 Hz for the detectability column.
  std::vector<ids::WindowSnapshot> attacked_windows;
  {
    can::BusSimulator bus(runner.vehicle().config().bus);
    runner.vehicle().attach_to(bus, trace::DrivingBehavior::kCity, 4242);
    attacks::AttackConfig attack_config;
    attack_config.frequency_hz = 100.0;
    auto attack = attacks::make_scenario(attacks::ScenarioKind::kSingle,
                                         runner.vehicle(), attack_config,
                                         util::Rng(3));
    attacks::attach_attack(bus, attack);
    trace::TraceRecorder recorder(bus, "can0");
    bus.run_until(10 * util::kSecond);
    std::vector<can::TimedFrame> frames;
    for (const trace::LogRecord& r : recorder.trace()) {
      frames.push_back({r.timestamp, r.frame, -1});
    }
    for (const auto& snap : ids::windows_of(frames, {})) {
      if (snap.end - snap.start == util::kSecond) {
        attacked_windows.push_back(snap);
      }
    }
  }

  util::Table alpha_table({"alpha", "FPR (clean windows)",
                           "attack windows alerted"});
  for (double alpha : {3.0, 4.0, 5.0, 6.0, 8.0, 10.0}) {
    ids::DetectorConfig detector_config;
    detector_config.alpha = alpha;
    const ids::Detector detector(runner.train_shared(), detector_config);
    std::size_t false_positives = 0;
    for (const auto& window : clean_windows) {
      if (detector.evaluate(window).alert) ++false_positives;
    }
    std::size_t attack_alerts = 0;
    for (const auto& window : attacked_windows) {
      if (detector.evaluate(window).alert) ++attack_alerts;
    }
    alpha_table.add_row(
        {util::Table::num(alpha, 0),
         util::Table::percent(static_cast<double>(false_positives) /
                              static_cast<double>(clean_windows.size())),
         std::to_string(attack_alerts) + "/" +
             std::to_string(attacked_windows.size())});
  }
  alpha_table.print(std::cout);
  std::cout << "expected: FPR falls to ~0 by alpha=5 while the attack stays "
               "fully visible — matching the paper's empirical choice.\n";
  util::write_bench_json(
      "template_stability",
      {{"wall_seconds", bench_timer.seconds()}});
  return 0;
}
