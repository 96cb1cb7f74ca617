// CMP11 — §V.E comparison against Song et al. [11] (time-interval IDS).
// Quantifies the paper's two arguments:
//   1. storage: per-ID period state grows linearly with the identifier set,
//      vs the constant 11-counter bit-slice state;
//   2. the blind spot: an attacker using an identifier never seen in
//      training is invisible to the interval method but still shifts the
//      bit entropy.
// Every trial goes through ExperimentRunner::run_instrumented_trial (or its
// single-ID form) — the same trial path Table I and the campaigns use —
// with one trial seed per row, so both detectors judge identical traffic.
#include <algorithm>
#include <iostream>

#include "baselines/interval_ids.h"
#include "ids/bit_counters.h"
#include "metrics/experiment.h"
#include "util/table.h"
#include "util/bench_json.h"

using namespace canids;

int main() {
  const util::BenchTimer bench_timer;
  metrics::ExperimentConfig config;
  config.training_windows = ids::kPaperTrainingWindows;
  config.seed = 0xC311;
  // violations_to_alert is calibrated up from the default: on a loaded bus,
  // arbitration backlogs drain in bursts, so known IDs legitimately arrive
  // back-to-back a handful of times per second. The threshold must sit
  // above that congestion noise (otherwise the interval IDS false-alarms on
  // any busy window) while an actual 100 Hz injection still produces ~100
  // violations per window.
  config.interval.violations_to_alert = 12;
  metrics::ExperimentRunner runner(config);
  (void)runner.train();
  const trace::SyntheticVehicle& vehicle = runner.vehicle();

  util::print_banner(std::cout,
                     "CMP11 — bit-slice entropy IDS (this paper) vs "
                     "time-interval IDS (Song et al. [11])");

  // --- 1. Storage --------------------------------------------------------------
  const auto interval_model = runner.interval_model();
  util::Table storage({"detector", "state (bytes)", "growth"});
  storage.add_row({"bit-slice (ours)",
                   std::to_string(ids::BitCounters::state_bytes()),
                   "O(1) regardless of identifier count"});
  storage.add_row({"interval [11]",
                   std::to_string(interval_model->state_bytes()),
                   "O(#IDs): " + std::to_string(interval_model->tracked_ids()) +
                       " identifiers tracked"});
  storage.print(std::cout);
  std::cout << "paper claim: \"each ID needs a specific storage space ... "
               "introducing linear storage consumption\"\n";

  // --- 2. The unseen-ID blind spot ---------------------------------------------
  // Attacker injects an identifier that is NOT in the vehicle's legal set
  // (never seen during training). Legal pool IDs all come from id_pool();
  // pick a gap value.
  std::uint32_t unseen_id = 0x041;
  {
    const auto& pool = vehicle.id_pool();
    while (std::binary_search(pool.begin(), pool.end(), unseen_id)) {
      ++unseen_id;
    }
  }

  const ids::PipelineCounters bit_unseen =
      runner
          .run_instrumented_single_id_trial("bit-entropy", unseen_id, 100.0,
                                            321)
          .counters;
  const ids::PipelineCounters interval_unseen =
      runner
          .run_instrumented_single_id_trial("interval", unseen_id, 100.0, 321)
          .counters;

  util::Table blind(
      {"detector",
       "alert windows (of " + std::to_string(bit_unseen.windows_closed) + ")",
       "verdict"});
  blind.add_row({"bit-slice (ours)", std::to_string(bit_unseen.alerts),
                 bit_unseen.alerts > 0 ? "attack detected" : "MISSED"});
  blind.add_row({"interval [11]", std::to_string(interval_unseen.alerts),
                 interval_unseen.alerts == 0
                     ? "blind to unseen ID (as the paper argues)"
                     : "detected"});
  blind.print(std::cout);
  std::cout << "attack: 100 Hz injection with unseen ID 0x"
            << can::CanId::standard(unseen_id).to_string()
            << " (not in the " << vehicle.id_pool().size()
            << "-ID legal set)\n"
            << "paper claim: \"their method ... cannot figure out such an "
               "attack scenario when the attacker uses unseen ID\"\n";

  // --- 3. Known-ID speed-up: both should detect --------------------------------
  // Attack with a known legal ID to show the comparison is fair: the
  // baseline does work on its home turf.
  const ids::PipelineCounters bit_known =
      runner
          .run_instrumented_trial("bit-entropy", attacks::ScenarioKind::kSingle,
                                  100.0, 654)
          .counters;
  const ids::PipelineCounters interval_known =
      runner
          .run_instrumented_trial("interval", attacks::ScenarioKind::kSingle,
                                  100.0, 654)
          .counters;

  util::Table known(
      {"detector",
       "alert windows (of " + std::to_string(bit_known.windows_closed) + ")"});
  known.add_row({"bit-slice (ours)", std::to_string(bit_known.alerts)});
  known.add_row({"interval [11]", std::to_string(interval_known.alerts)});
  known.print(std::cout);
  std::cout << "attack with a KNOWN legal ID at 100 Hz: both detectors see "
               "it — the difference is the unseen-ID case above and the "
               "storage profile.\n";

  const bool expected_shape = bit_unseen.alerts > 0 &&
                              interval_unseen.alerts == 0 &&
                              interval_known.alerts > 0;
  std::cout << (expected_shape ? "SHAPE OK\n" : "SHAPE MISMATCH\n");
  util::write_bench_json(
      "cmp_interval",
      {{"wall_seconds", bench_timer.seconds()}});
  return expected_shape ? 0 : 1;
}
