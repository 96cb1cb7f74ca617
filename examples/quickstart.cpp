// Quickstart: the smallest end-to-end use of the canids public API.
//
//   1. Model a vehicle (or capture real traffic with candump/Vehicle Spy).
//   2. Train the golden template on clean driving windows.
//   3. Attach the IDS backend and stream frames through it.
//   4. React to alerts: which bits moved, which IDs are suspect.
//
// Build & run:  ./quickstart
#include <cstdio>

#include "analysis/backends.h"
#include "attacks/scenario.h"
#include "metrics/experiment.h"

using namespace canids;

int main() {
  // --- 1. A synthetic 2016-Ford-Fusion-like vehicle -------------------------
  trace::SyntheticVehicle vehicle;
  std::printf("vehicle: %zu ECUs, %zu active IDs (%.2f%% of ID space)\n",
              vehicle.ecus().size(), vehicle.id_pool().size(),
              vehicle.id_space_usage() * 100.0);

  // --- 2. Train the golden template (paper: 35 windows, 1 s each) ----------
  metrics::ExperimentConfig config;
  config.training_windows = ids::kPaperTrainingWindows;
  metrics::ExperimentRunner runner(config);
  const auto golden = runner.train_shared();
  std::printf("golden template trained on %zu windows\n",
              golden->training_windows);

  // --- 3. Simulate a drive with a live injection attack ---------------------
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, /*run_seed=*/2024);

  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = 100.0;
  attack_config.start = 5 * util::kSecond;
  attack_config.stop = 12 * util::kSecond;
  auto attack = attacks::make_scenario(attacks::ScenarioKind::kSingle,
                                       vehicle, attack_config,
                                       util::Rng(7));
  std::printf("attacker will inject ID %03X at %.0f Hz from t=5s to t=12s\n",
              attack.planned_ids.front(), attack_config.frequency_hz);
  attacks::attach_attack(bus, attack);

  // --- 4. Attach the IDS and stream the bus through it ----------------------
  ids::PipelineConfig pipeline_config;  // 1 s windows, alpha = 5, rank = 10
  analysis::BitEntropyBackend backend(golden, vehicle.id_pool(),
                                      pipeline_config);

  const auto report = [](const analysis::WindowVerdict& verdict) {
    if (!verdict.alert) return;
    std::printf("[%5.1fs] ALERT  bits:", util::to_seconds(verdict.start));
    for (int bit : verdict.detail->alerted_bits) {
      std::printf(" %d", bit + 1);  // paper-style 1-based bit positions
    }
    const std::vector<std::uint32_t>& suspects =
        verdict.detail->ranked_candidates;
    if (!suspects.empty()) {
      std::printf("  suspect IDs:");
      for (std::size_t i = 0; i < suspects.size() && i < 5; ++i) {
        std::printf(" %03X", suspects[i]);
      }
    }
    std::printf("\n");
  };

  bus.add_listener([&](const can::TimedFrame& frame) {
    if (auto verdict = backend.on_frame(frame.timestamp, frame.frame.id())) {
      report(*verdict);
    }
  });

  bus.run_until(15 * util::kSecond);
  if (auto verdict = backend.finish()) report(*verdict);

  std::printf(
      "done: %llu frames, %llu windows, %llu alerts, bus load %.0f%%\n",
      static_cast<unsigned long long>(backend.counters().frames),
      static_cast<unsigned long long>(backend.counters().windows_closed),
      static_cast<unsigned long long>(backend.counters().alerts),
      bus.stats().load() * 100.0);
  return backend.counters().alerts > 0 ? 0 : 1;
}
