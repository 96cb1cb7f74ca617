#include "ids/detector.h"

#include <gtest/gtest.h>

#include <memory>

#include "util/rng.h"

namespace canids::ids {
namespace {

WindowSnapshot window_with_p(const std::vector<double>& probabilities,
                             std::uint64_t frames = 1000) {
  WindowSnapshot snap;
  snap.frames = frames;
  snap.start = 0;
  snap.end = util::kSecond;
  snap.probabilities = probabilities;
  snap.entropies.resize(probabilities.size());
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    snap.entropies[i] = binary_entropy(probabilities[i]);
  }
  return snap;
}

std::shared_ptr<const GoldenTemplate> template_around(double p,
                                                      double spread) {
  TemplateBuilder builder;
  builder.add_window(window_with_p(std::vector<double>(11, p - spread)));
  builder.add_window(window_with_p(std::vector<double>(11, p)));
  builder.add_window(window_with_p(std::vector<double>(11, p + spread)));
  return std::make_shared<const GoldenTemplate>(builder.build());
}

TEST(DetectorTest, CleanWindowInsideBandNoAlert) {
  const Detector detector(template_around(0.3, 0.01));
  const auto result =
      detector.evaluate(window_with_p(std::vector<double>(11, 0.3)));
  EXPECT_TRUE(result.evaluated);
  EXPECT_FALSE(result.alert);
  EXPECT_TRUE(result.alerted_bits.empty());
  EXPECT_EQ(result.bits.size(), 11u);
}

TEST(DetectorTest, LargeShiftAlertsOnShiftedBitsOnly) {
  const Detector detector(template_around(0.3, 0.01));
  std::vector<double> shifted(11, 0.3);
  shifted[5] = 0.05;  // strong negative probability shift on bit 6 (1-based)
  const auto result = detector.evaluate(window_with_p(shifted));
  EXPECT_TRUE(result.alert);
  ASSERT_EQ(result.alerted_bits.size(), 1u);
  EXPECT_EQ(result.alerted_bits[0], 5);
  EXPECT_LT(result.bits[5].delta_probability, 0.0);
}

TEST(DetectorTest, ThresholdIsAlphaTimesRangeWithFloor) {
  const auto tpl = template_around(0.3, 0.01);
  DetectorConfig config;
  config.alpha = 5.0;
  config.min_threshold = 0.0001;
  const Detector detector(tpl, config);
  const double expected_range =
      binary_entropy(0.31) - binary_entropy(0.29);
  for (double th : detector.thresholds()) {
    EXPECT_NEAR(th, 5.0 * expected_range, 1e-9);
  }

  // A template with zero spread falls back to the floor.
  DetectorConfig floor_config;
  floor_config.min_threshold = 0.05;
  const Detector floored(template_around(0.3, 0.0), floor_config);
  for (double th : floored.thresholds()) {
    EXPECT_DOUBLE_EQ(th, 0.05);
  }
}

TEST(DetectorTest, AlphaControlsSensitivity) {
  // Training range: H(.31)-H(.29) ~= 0.0245, so alpha=3 -> Th ~= 0.073 and
  // alpha=10 -> Th ~= 0.245. A shift to p=0.40 deviates by ~0.090: alerted
  // at alpha=3, tolerated at alpha=10.
  const auto tpl = template_around(0.3, 0.01);
  std::vector<double> shifted(11, 0.3);
  shifted[2] = 0.40;

  DetectorConfig tight;
  tight.alpha = 3.0;
  tight.min_threshold = 0.0;
  DetectorConfig loose;
  loose.alpha = 10.0;
  loose.min_threshold = 0.0;

  const auto tight_result =
      Detector(tpl, tight).evaluate(window_with_p(shifted));
  const auto loose_result =
      Detector(tpl, loose).evaluate(window_with_p(shifted));
  // The same deviation alerts at alpha=3 but not at alpha=10 (paper's
  // empirical [3,10] margin trade-off).
  EXPECT_TRUE(tight_result.alert);
  EXPECT_FALSE(loose_result.alert);
}

TEST(DetectorTest, SparseWindowNotEvaluated) {
  DetectorConfig config;
  config.min_window_frames = 100;
  const Detector detector(template_around(0.3, 0.01), config);
  const auto result = detector.evaluate(
      window_with_p(std::vector<double>(11, 0.9), /*frames=*/10));
  EXPECT_FALSE(result.evaluated);
  EXPECT_FALSE(result.alert);
}

TEST(DetectorTest, DeviationFieldsFilledConsistently) {
  // Tight training spread (range ~0.018, Th ~0.09); shifting p from 0.25
  // to 0.5 raises the entropy by ~0.19 — well above threshold. Note a shift
  // to 0.75 would NOT alert (entropy symmetry), covered separately below.
  const Detector detector(template_around(0.25, 0.005));
  std::vector<double> p(11, 0.25);
  p[0] = 0.5;
  const auto result = detector.evaluate(window_with_p(p));
  const BitDeviation& dev = result.bits[0];
  EXPECT_EQ(dev.bit, 0);
  EXPECT_NEAR(dev.observed_entropy, binary_entropy(0.5), 1e-12);
  EXPECT_NEAR(dev.deviation,
              std::abs(dev.observed_entropy - dev.template_entropy), 1e-12);
  EXPECT_NEAR(dev.delta_probability, 0.25, 1e-9);
  EXPECT_TRUE(dev.alerted);
}

TEST(DetectorTest, RejectsWidthMismatch) {
  const Detector detector(template_around(0.3, 0.01));
  WindowSnapshot wrong;
  wrong.frames = 1000;
  wrong.probabilities.assign(29, 0.5);
  wrong.entropies.assign(29, 1.0);
  EXPECT_THROW((void)detector.evaluate(wrong), canids::ContractViolation);
}

TEST(DetectorTest, RejectsBadConfig) {
  EXPECT_THROW(Detector(template_around(0.3, 0.01),
                        DetectorConfig{.alpha = 0.0}),
               canids::ContractViolation);
  EXPECT_THROW(Detector(template_around(0.3, 0.01),
                        DetectorConfig{.alpha = 5.0, .min_threshold = -1.0}),
               canids::ContractViolation);
}

// Entropy symmetry trap: a probability flip from p to 1-p leaves the
// entropy unchanged, so a pure-entropy detector cannot see it — but the
// delta_probability diagnostic still exposes the direction. This documents
// the detector's (paper-faithful) blind spot and the inference engine's
// reliance on probabilities instead.
TEST(DetectorTest, SymmetricProbabilityFlipInvisibleToEntropy) {
  const Detector detector(template_around(0.2, 0.01));
  const auto result =
      detector.evaluate(window_with_p(std::vector<double>(11, 0.8)));
  EXPECT_FALSE(result.alert);
  for (const BitDeviation& dev : result.bits) {
    EXPECT_NEAR(dev.delta_probability, 0.6, 1e-9);
  }
}

TEST(DetectorTest, TwoSidedRuleCatchesBothTails) {
  // Template around p=0.2 (H ~0.72, Th = 5*(H(.21)-H(.19)) ~0.20); entropy
  // DROPS for p -> 0.05 (injection concentrates the mix, dev ~0.44) and
  // RISES for p -> 0.5 (suspend removes the IDs that kept the bit biased,
  // dev ~0.28). A template nearer p=0.5 would leave the upper tail no
  // headroom: binary entropy caps at 1.
  const auto tpl = template_around(0.2, 0.01);
  const auto dropped = window_with_p(std::vector<double>(11, 0.05));
  const auto risen = window_with_p(std::vector<double>(11, 0.5));

  const Detector both(tpl, DetectorConfig{});
  EXPECT_TRUE(both.evaluate(dropped).alert);
  EXPECT_TRUE(both.evaluate(risen).alert);
  EXPECT_LT(both.evaluate(dropped).bits[0].delta_entropy, 0.0);
  EXPECT_GT(both.evaluate(risen).bits[0].delta_entropy, 0.0);

  DetectorConfig below_config;
  below_config.tails = AlertTails::kBelow;
  const Detector below(tpl, below_config);
  EXPECT_TRUE(below.evaluate(dropped).alert);
  EXPECT_FALSE(below.evaluate(risen).alert);

  DetectorConfig above_config;
  above_config.tails = AlertTails::kAbove;
  const Detector above(tpl, above_config);
  EXPECT_FALSE(above.evaluate(dropped).alert);
  EXPECT_TRUE(above.evaluate(risen).alert);
}

}  // namespace
}  // namespace canids::ids
