// ABLATE — design-choice ablations called out in DESIGN.md:
//   1. window length (the paper reacts "in as short as 1 s" — what do
//      shorter/longer windows trade off?),
//   2. rank of the candidate list (paper: rank = 10),
//   3. marginals-only vs pairwise-counter inference (our extension).
// Each table reports detection/inference on the standard single- and
// multi-ID attacks.
#include <iostream>

#include "campaign/report.h"
#include "campaign/runner.h"
#include "metrics/experiment.h"
#include "util/table.h"
#include "util/bench_json.h"

using namespace canids;

namespace {

/// One scenario at 100 and 50 Hz, two seeds each, as a one-scenario
/// bit-entropy campaign over the pretrained `models`, rolled up the way
/// Table I aggregates a scenario.
campaign::ScenarioRollup rollup_of(const metrics::ExperimentConfig& config,
                                   const model::StoredModels& models,
                                   attacks::ScenarioKind kind) {
  campaign::CampaignSpec spec;
  spec.detectors = {"bit-entropy"};
  spec.scenarios = {kind};
  spec.rates_hz = {100.0, 50.0};
  spec.seeds = 2;
  spec.experiment = config;
  campaign::CampaignRunner runner(spec, models);
  return runner.run().rollup("bit-entropy", kind);
}

/// The golden template `config` trains, shared by every campaign over it.
model::StoredModels trained_template(const metrics::ExperimentConfig& config) {
  metrics::ExperimentRunner master(config);
  model::StoredModels models;
  models.golden = master.train_shared();
  return models;
}

}  // namespace

int main() {
  const util::BenchTimer bench_timer;
  // --- 1. Window length -------------------------------------------------------
  util::print_banner(std::cout,
                     "Ablation 1 — window length vs detection rate and "
                     "false positives (single-ID, 50 Hz)");
  {
    util::Table table({"window", "Dr (50 Hz single)", "FPR",
                       "reaction time (=window)"});
    for (double window_s : {0.25, 0.5, 1.0, 2.0}) {
      metrics::ExperimentConfig config;
      config.training_windows = 35;
      config.attack_duration = 15 * util::kSecond;
      config.seed = 0xAB1A7E;
      config.pipeline.window.duration = util::from_seconds(window_s);
      metrics::ExperimentRunner runner(config);
      metrics::FrameDetection frames;
      metrics::WindowConfusion windows;
      for (std::uint64_t t = 0; t < 3; ++t) {
        const metrics::InstrumentedTrial trial = runner.run_instrumented_trial(
            "bit-entropy", attacks::ScenarioKind::kSingle, 50.0, t);
        frames += trial.frames;
        windows += trial.windows;
      }
      table.add_row({util::Table::num(window_s, 2) + " s",
                     util::Table::percent(frames.detection_rate()),
                     util::Table::percent(windows.false_positive_rate()),
                     util::Table::num(window_s, 2) + " s"});
    }
    table.print(std::cout);
    std::cout << "expected: longer windows integrate more evidence (higher "
                 "Dr at fixed rate) but react more slowly; 1 s is the "
                 "paper's compromise.\n";
  }

  // --- 2. Rank of the candidate list -------------------------------------------
  util::print_banner(std::cout,
                     "Ablation 2 — candidate-list rank vs inferring "
                     "accuracy (paper: rank = 10)");
  {
    util::Table table({"rank", "infer (single)", "infer (multi-3)"});
    for (int rank : {1, 3, 5, 10, 20}) {
      metrics::ExperimentConfig config;
      config.training_windows = 35;
      config.attack_duration = 15 * util::kSecond;
      config.seed = 0xAB1A7E;
      config.pipeline.inference.rank = rank;
      const model::StoredModels models = trained_template(config);
      const campaign::ScenarioRollup single =
          rollup_of(config, models, attacks::ScenarioKind::kSingle);
      const campaign::ScenarioRollup multi3 =
          rollup_of(config, models, attacks::ScenarioKind::kMulti3);
      table.add_row({std::to_string(rank),
                     single.inference_accuracy
                         ? util::Table::percent(*single.inference_accuracy)
                         : "--",
                     multi3.inference_accuracy
                         ? util::Table::percent(*multi3.inference_accuracy)
                         : "--"});
    }
    table.print(std::cout);
    std::cout << "expected: accuracy saturates around the paper's rank=10; "
                 "a rank-1 list is too small once several IDs are in play.\n";
  }

  // --- 3. Marginals-only vs pairwise inference ---------------------------------
  util::print_banner(std::cout,
                     "Ablation 3 — 11 marginal counters (paper) vs +55 "
                     "pairwise counters (extension)");
  {
    util::Table table({"inference features", "single", "multi-2", "multi-3",
                       "multi-4", "state bytes"});
    for (const bool pairs : {false, true}) {
      metrics::ExperimentConfig config;
      config.training_windows = 35;
      config.attack_duration = 15 * util::kSecond;
      config.seed = 0xAB1A7E;
      config.pipeline.window.track_pairs = pairs;
      const model::StoredModels models = trained_template(config);
      std::vector<std::string> row;
      row.push_back(pairs ? "marginals + pairs (ours)" : "marginals (paper)");
      for (attacks::ScenarioKind kind :
           {attacks::ScenarioKind::kSingle, attacks::ScenarioKind::kMulti2,
            attacks::ScenarioKind::kMulti3, attacks::ScenarioKind::kMulti4}) {
        const campaign::ScenarioRollup summary =
            rollup_of(config, models, kind);
        row.push_back(summary.inference_accuracy
                          ? util::Table::percent(*summary.inference_accuracy)
                          : "--");
      }
      row.push_back(std::to_string(pairs ? ids::PairCounters::state_bytes()
                                         : ids::BitCounters::state_bytes()));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "both configurations stay O(1) in the number of bus "
                 "identifiers; the pairwise features buy multi-ID "
                 "identifiability for 440 extra bytes.\n";
  }
  util::write_bench_json(
      "ablation_sensitivity",
      {{"wall_seconds", bench_timer.seconds()}});
  return 0;
}
