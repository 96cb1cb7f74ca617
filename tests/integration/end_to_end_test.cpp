// Full-stack integration: synthetic vehicle -> bus simulator -> IDS
// pipeline, exercising the paper's training procedure and headline claims
// on scaled-down workloads (integration tests stay fast; the full-size runs
// live in bench/).
#include <gtest/gtest.h>

#include "campaign/report.h"
#include "campaign/runner.h"
#include "metrics/experiment.h"

namespace canids::metrics {
namespace {

using util::kSecond;

ExperimentConfig fast_config() {
  ExperimentConfig config;
  config.training_windows = 14;  // two per behaviour; full 35 in bench/
  config.clean_lead_in = 3 * kSecond;
  config.attack_duration = 10 * kSecond;
  config.seed = 0xE2E;
  return config;
}

TEST(EndToEndTest, TemplateTrainsFromDiverseBehaviours) {
  ExperimentRunner runner(fast_config());
  const ids::GoldenTemplate& golden = runner.train();
  EXPECT_EQ(golden.training_windows, 14u);
  EXPECT_EQ(golden.width, 11);
  // The per-bit mean probabilities reflect real traffic: never degenerate
  // on all bits (the pool spans the ID range).
  double p_spread = 0.0;
  for (int bit = 0; bit < 11; ++bit) {
    const auto b = static_cast<std::size_t>(bit);
    p_spread = std::max(p_spread, golden.mean_probability[b] -
                                      golden.mean_probability[0] * 0.0);
    EXPECT_GE(golden.min_probability[b], 0.0);
    EXPECT_LE(golden.max_probability[b], 1.0);
    EXPECT_GE(golden.entropy_range(bit), 0.0);
  }
}

TEST(EndToEndTest, TemplateStableAcrossBehaviours) {
  // §IV.B: "the entropy on each bit only changes slightly" across driving
  // situations. Verify the per-bit entropy range over training windows is
  // small compared to the entropy scale (paper quotes 1e-8 on real data;
  // our synthetic traffic is noisier but still tight).
  ExperimentRunner runner(fast_config());
  const ids::GoldenTemplate& golden = runner.train();
  for (int bit = 0; bit < 11; ++bit) {
    EXPECT_LT(golden.entropy_range(bit), 0.12) << "bit " << bit;
  }
}

TEST(EndToEndTest, CleanDrivingRaisesNoAlarmStorm) {
  ExperimentConfig config = fast_config();
  ExperimentRunner runner(config);
  // A "trial" with an attacker whose window never starts = clean run.
  // Use frequency far in the future by setting lead-in beyond the horizon:
  // simpler: run a single-ID trial at a tiny frequency and count FPs only
  // on pre-attack windows, which the trial already separates.
  const InstrumentedTrial trial = runner.run_instrumented_trial(
      "bit-entropy", attacks::ScenarioKind::kSingle, /*frequency_hz=*/10.0,
      /*trial_seed=*/3);
  // Windows fully before the attack must be overwhelmingly clean.
  EXPECT_LE(trial.windows.false_positive, 1u);
}

TEST(EndToEndTest, HighRateSingleInjectionDetected) {
  ExperimentRunner runner(fast_config());
  const InstrumentedTrial trial = runner.run_instrumented_trial(
      "bit-entropy", attacks::ScenarioKind::kSingle, /*frequency_hz=*/100.0,
      /*trial_seed=*/1);
  EXPECT_GT(trial.frames.injected_frames, 100u);
  EXPECT_GT(trial.detection_rate, 0.8);
  EXPECT_GT(trial.bus_load, 0.4);
}

TEST(EndToEndTest, FloodingDetectedEvenWithoutInference) {
  ExperimentRunner runner(fast_config());
  const InstrumentedTrial trial = runner.run_instrumented_trial(
      "bit-entropy", attacks::ScenarioKind::kFlood, /*frequency_hz=*/400.0,
      /*trial_seed=*/2);
  EXPECT_GT(trial.detection_rate, 0.95);
  // Flooding is marked non-inferable (Table I's "--").
  EXPECT_FALSE(trial.inference_accuracy.has_value());
}

TEST(EndToEndTest, InjectionRateHigherForDominantIds) {
  ExperimentRunner runner(fast_config());
  const auto& pool = runner.vehicle().id_pool();
  const InstrumentedTrial dominant = runner.run_instrumented_single_id_trial(
      "bit-entropy", pool.front(), 100.0, 10);
  const InstrumentedTrial recessive = runner.run_instrumented_single_id_trial(
      "bit-entropy", pool.back(), 100.0, 10);
  // Fig. 3's physical mechanism: arbitration favours numerically smaller
  // identifiers.
  EXPECT_GT(dominant.injection_rate_arbitration,
            recessive.injection_rate_arbitration);
}

TEST(EndToEndTest, SingleInjectionInferenceFindsTheId) {
  ExperimentRunner runner(fast_config());
  const InstrumentedTrial trial = runner.run_instrumented_trial(
      "bit-entropy", attacks::ScenarioKind::kSingle, /*frequency_hz=*/100.0,
      /*trial_seed=*/4);
  ASSERT_TRUE(trial.inference_accuracy.has_value());
  EXPECT_GT(*trial.inference_accuracy, 0.8);
}

TEST(EndToEndTest, ScenarioSummaryAggregates) {
  campaign::CampaignSpec spec;
  spec.detectors = {"bit-entropy"};
  spec.scenarios = {attacks::ScenarioKind::kSingle};
  spec.rates_hz = {100.0, 50.0};
  spec.seeds = 1;
  spec.experiment = fast_config();
  const campaign::ScenarioRollup summary =
      campaign::CampaignRunner(spec).run().rollup(
          "bit-entropy", attacks::ScenarioKind::kSingle);
  EXPECT_EQ(summary.trials, 2u);
  EXPECT_GT(summary.detection_rate, 0.0);
  EXPECT_LT(summary.false_positive_rate, 0.1);
}

}  // namespace
}  // namespace canids::metrics
