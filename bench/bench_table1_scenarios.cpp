// TAB1 — Table I of the paper: "Evaluation results for different attacks".
// Runs every scenario (flood / single / multi-2 / multi-3 / multi-4 / weak)
// across the paper's injection frequencies {100, 50, 20, 10} Hz and prints
// detection rate and inferring accuracy next to the paper's numbers.
//
// The sweep itself is four thin CampaignSpec wrappers over the campaign
// subsystem (flooding gets its own spec because it uses the high aggregate
// frequency grid, and the pair-mode extension gets its own pair of specs);
// trial seeds and aggregation (CampaignReport::rollup) reproduce the
// pre-campaign per-scenario loops exactly, so the numbers match that bench
// bit for bit — while the trials now fan out over every core.
//
// Expected shape: flood ~100 % with no inference; detection rises with the
// number of injected IDs while inferring accuracy falls; weak ≈ single.
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "campaign/report.h"
#include "campaign/runner.h"
#include "metrics/experiment.h"
#include "util/table.h"
#include "util/bench_json.h"

using namespace canids;

namespace {

struct PaperRow {
  attacks::ScenarioKind kind;
  const char* detection;
  const char* inferring;
};

constexpr PaperRow kPaperRows[] = {
    {attacks::ScenarioKind::kFlood, "100%", "--"},
    {attacks::ScenarioKind::kSingle, "91%", "97.2%"},
    {attacks::ScenarioKind::kMulti2, "97%", "91.8%"},
    {attacks::ScenarioKind::kMulti3, "97.2%", "88.5%"},
    {attacks::ScenarioKind::kMulti4, "99.97%", "69.7%"},
    {attacks::ScenarioKind::kWeak, "93%", "96.6%"},
};

/// One Table I sweep at the given pair-tracking mode: the non-flood
/// scenarios on the paper's frequency grid plus flooding on the high
/// aggregate grid, merged into one report's worth of trials.
std::pair<campaign::CampaignReport, campaign::CampaignReport> run_sweeps(
    bool track_pairs) {
  campaign::CampaignSpec spec;
  spec.name = track_pairs ? "table1-pairs" : "table1";
  spec.detectors = {"bit-entropy"};
  spec.scenarios = {attacks::ScenarioKind::kSingle,
                    attacks::ScenarioKind::kMulti2,
                    attacks::ScenarioKind::kMulti3,
                    attacks::ScenarioKind::kMulti4,
                    attacks::ScenarioKind::kWeak};
  spec.rates_hz = {100.0, 50.0, 20.0, 10.0};
  spec.seeds = 2;
  spec.experiment.training_windows = ids::kPaperTrainingWindows;
  spec.experiment.attack_duration = 15 * util::kSecond;
  spec.experiment.seed = 0x7AB1E1;
  spec.experiment.pipeline.window.track_pairs = track_pairs;

  // "Massive messages" define flooding: the same spec on the high
  // aggregate frequency grid.
  campaign::CampaignSpec flood = spec;
  flood.name += "-flood";
  flood.scenarios = {attacks::ScenarioKind::kFlood};
  flood.rates_hz = {400.0, 300.0, 200.0, 100.0};

  // Both sweeps share one ExperimentConfig, so train the golden template
  // once per mode and hand the bundle to both runners (bit-entropy needs
  // no baseline models).
  metrics::ExperimentRunner master(spec.experiment);
  model::StoredModels models;
  models.golden = master.train_shared();
  campaign::CampaignRunner scenario_runner(spec, models);
  campaign::CampaignRunner flood_runner(flood, models);
  return {scenario_runner.run(), flood_runner.run()};
}

/// Table I aggregates a scenario over its whole frequency grid.
campaign::ScenarioRollup rollup_of(
    const std::pair<campaign::CampaignReport, campaign::CampaignReport>&
        sweeps,
    attacks::ScenarioKind kind) {
  const campaign::CampaignReport& report =
      kind == attacks::ScenarioKind::kFlood ? sweeps.second : sweeps.first;
  return report.rollup("bit-entropy", kind);
}

/// The scenarios Table I stops short of: no per-frame attribution, judged
/// by which detector family sees them at the window level instead.
std::pair<campaign::CampaignReport, double> run_extended_sweep() {
  campaign::CampaignSpec spec;
  spec.name = "table1-extended";
  spec.detectors = {"bit-entropy", "interval"};
  spec.scenarios = {attacks::ScenarioKind::kReplay,
                    attacks::ScenarioKind::kSuspend,
                    attacks::ScenarioKind::kFuzzing,
                    attacks::ScenarioKind::kMasquerade};
  spec.rates_hz = {100.0};
  spec.seeds = 2;
  spec.experiment.training_windows = 10;
  spec.experiment.clean_lead_in = 2 * util::kSecond;
  spec.experiment.attack_duration = 6 * util::kSecond;
  const util::BenchTimer timer;
  campaign::CampaignRunner runner(spec);
  return {runner.run(), timer.seconds()};
}

const campaign::CampaignCell& cell_of(const campaign::CampaignReport& report,
                                      std::string_view detector,
                                      attacks::ScenarioKind kind) {
  for (const campaign::CampaignCell& cell : report.cells) {
    if (cell.detector == detector && cell.kind == kind) return cell;
  }
  throw std::runtime_error("extended sweep missing a cell");
}

}  // namespace

int main() {
  const util::BenchTimer bench_timer;
  // Two IDS configurations:
  //  * "paper mode" — malicious-ID inference from the 11 marginal bit
  //    probabilities only, as §V.C describes;
  //  * "pair mode" — our documented extension adding the 55 pairwise
  //    co-occurrence counters (still O(1) in the ID count), which sharpens
  //    multi-ID inference considerably.
  const auto paper_sweeps = run_sweeps(/*track_pairs=*/false);
  const auto pair_sweeps = run_sweeps(/*track_pairs=*/true);

  util::print_banner(std::cout,
                     "Table I — detection rate & inferring accuracy per "
                     "attack scenario (rank = 10, alpha = 5)");

  util::Table table({"Attack scenario", "Dr (paper)", "Dr (ours)",
                     "Infer (paper)", "Infer (ours)", "Infer (ours+pairs)",
                     "FPR (ours)", "mean I_r"});

  std::vector<campaign::ScenarioRollup> summaries;
  for (const PaperRow& row : kPaperRows) {
    const campaign::ScenarioRollup summary = rollup_of(paper_sweeps, row.kind);
    const campaign::ScenarioRollup pair_summary =
        rollup_of(pair_sweeps, row.kind);
    summaries.push_back(summary);
    table.add_row(
        {std::string(attacks::scenario_name(row.kind)), row.detection,
         util::Table::percent(summary.detection_rate),
         row.inferring,
         summary.inference_accuracy
             ? util::Table::percent(*summary.inference_accuracy)
             : std::string("--"),
         pair_summary.inference_accuracy
             ? util::Table::percent(*pair_summary.inference_accuracy)
             : std::string("--"),
         util::Table::percent(summary.false_positive_rate),
         util::Table::num(summary.mean_injection_rate, 3)});
  }
  table.print(std::cout);

  // --- Shape verdicts ---------------------------------------------------------
  const auto& flood = summaries[0];
  const auto& single = summaries[1];
  const auto& multi2 = summaries[2];
  const auto& multi3 = summaries[3];
  const auto& multi4 = summaries[4];
  const auto& weak = summaries[5];

  int checks = 0;
  int passed = 0;
  auto check = [&](bool ok, const char* label) {
    ++checks;
    if (ok) ++passed;
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << label << "\n";
  };

  std::cout << "\nshape checks against the paper:\n";
  check(flood.detection_rate > 0.99, "flood detected ~100%");
  check(!flood.inference_accuracy.has_value(),
        "flood inference not applicable (--)");
  check(single.detection_rate > 0.75, "single injection detected (paper 91%)");
  check(multi4.detection_rate >= multi2.detection_rate - 0.03 &&
            multi2.detection_rate >= single.detection_rate - 0.05,
        "detection rises with injected-ID count");
  check(single.inference_accuracy && multi4.inference_accuracy &&
            *single.inference_accuracy > *multi4.inference_accuracy,
        "inferring accuracy falls from single to multi-4");
  check(multi2.inference_accuracy && multi3.inference_accuracy &&
            *multi2.inference_accuracy >= *multi3.inference_accuracy - 0.08,
        "inferring accuracy non-increasing multi-2 -> multi-3");
  check(weak.detection_rate > 0.75, "weak injection detected (paper 93%)");
  check(weak.inference_accuracy && single.inference_accuracy &&
            *weak.inference_accuracy <= *single.inference_accuracy + 0.05,
        "weak inference at or below single (paper 96.6% vs 97.2%)");
  check(flood.false_positive_rate < 0.05 &&
            single.false_positive_rate < 0.05,
        "clean windows stay quiet (FPR < 5%)");

  // --- Beyond Table I: the extended scenario corpus -------------------------
  // Replay, suspend, fuzzing, and masquerade have no paper row — injected
  // frames are either absent (suspend) or indistinguishable from
  // legitimate traffic (replay, masquerade), so frame-level D_r does not
  // apply. The comparative question is which DETECTOR sees each class at
  // the window level; the paired bit-entropy/interval columns below are
  // the split the scenario-diversity corpus exists to measure.
  const auto [extended, extended_seconds] = run_extended_sweep();

  util::print_banner(std::cout,
                     "Beyond Table I — window-level TPR per detector on the "
                     "extended scenarios (100 Hz, 2 trials)");

  util::Table ext_table({"Attack scenario", "TPR (bit-entropy)",
                         "TPR (interval)", "injected frames",
                         "latency (bit-entropy)", "AUC (bit-entropy)"});
  for (const attacks::ScenarioKind kind :
       {attacks::ScenarioKind::kReplay, attacks::ScenarioKind::kSuspend,
        attacks::ScenarioKind::kFuzzing,
        attacks::ScenarioKind::kMasquerade}) {
    const campaign::CampaignCell& bit = cell_of(extended, "bit-entropy", kind);
    const campaign::CampaignCell& gap = cell_of(extended, "interval", kind);
    ext_table.add_row(
        {std::string(attacks::scenario_name(kind)),
         util::Table::percent(bit.tpr), util::Table::percent(gap.tpr),
         util::Table::num(static_cast<double>(bit.frames.injected_frames), 0),
         bit.mean_latency_seconds
             ? util::Table::num(*bit.mean_latency_seconds, 2) + " s"
             : std::string("--"),
         util::Table::num(bit.auc, 3)});
  }
  ext_table.print(std::cout);

  const auto& replay_bit =
      cell_of(extended, "bit-entropy", attacks::ScenarioKind::kReplay);
  const auto& replay_gap =
      cell_of(extended, "interval", attacks::ScenarioKind::kReplay);
  const auto& suspend_bit =
      cell_of(extended, "bit-entropy", attacks::ScenarioKind::kSuspend);
  const auto& suspend_gap =
      cell_of(extended, "interval", attacks::ScenarioKind::kSuspend);
  const auto& fuzz_bit =
      cell_of(extended, "bit-entropy", attacks::ScenarioKind::kFuzzing);
  const auto& masq_bit =
      cell_of(extended, "bit-entropy", attacks::ScenarioKind::kMasquerade);
  const auto& masq_gap =
      cell_of(extended, "interval", attacks::ScenarioKind::kMasquerade);

  std::cout << "\nshape checks on the extended corpus:\n";
  check(replay_gap.tpr > 0.5 && replay_gap.tpr > replay_bit.tpr,
        "replay: the timing baseline out-sees the entropy template");
  check(suspend_bit.frames.injected_frames == 0,
        "suspend injects nothing (the attack is the silence)");
  check(suspend_bit.tpr > 0.5, "suspend: two-sided bit entropy fires");
  check(suspend_gap.windows.true_positive == 0,
        "suspend: the interval baseline is blind to absence");
  check(fuzz_bit.tpr > 0.5, "fuzzing: random payloads light up the template");
  check(masq_bit.tpr > 0.5,
        "masquerade: the residual-suspend entropy signal survives");
  check(masq_gap.tpr <= 0.2,
        "masquerade: matched timing starves the interval baseline");

  std::cout << passed << "/" << checks << " shape checks passed\n";
  util::write_bench_json(
      "table1_scenarios",
      {{"wall_seconds", bench_timer.seconds()},
       {"extended_sweep_seconds", extended_seconds}});
  return passed == checks ? 0 : 1;
}
