#include "ids/golden_template.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.h"

namespace canids::ids {
namespace {

WindowSnapshot window_with(double p, std::uint64_t frames = 1000) {
  WindowSnapshot snap;
  snap.frames = frames;
  snap.start = 0;
  snap.end = util::kSecond;
  snap.probabilities.assign(11, p);
  snap.entropies.assign(11, binary_entropy(p));
  return snap;
}

TEST(TemplateBuilderTest, MeanMinMaxPerBit) {
  TemplateBuilder builder;
  builder.add_window(window_with(0.2));
  builder.add_window(window_with(0.3));
  builder.add_window(window_with(0.4));
  const GoldenTemplate tpl = builder.build();
  EXPECT_EQ(tpl.training_windows, 3u);
  for (int bit = 0; bit < 11; ++bit) {
    const auto b = static_cast<std::size_t>(bit);
    EXPECT_NEAR(tpl.mean_probability[b], 0.3, 1e-12);
    EXPECT_DOUBLE_EQ(tpl.min_probability[b], 0.2);
    EXPECT_DOUBLE_EQ(tpl.max_probability[b], 0.4);
    EXPECT_NEAR(tpl.mean_entropy[b],
                (binary_entropy(0.2) + binary_entropy(0.3) +
                 binary_entropy(0.4)) /
                    3.0,
                1e-12);
    EXPECT_NEAR(tpl.entropy_range(bit),
                binary_entropy(0.4) - binary_entropy(0.2), 1e-12);
    EXPECT_NEAR(tpl.probability_range(bit), 0.2, 1e-12);
  }
}

TEST(TemplateBuilderTest, RequiresMinimumWindows) {
  TemplateBuilder builder;
  builder.add_window(window_with(0.5));
  EXPECT_THROW((void)builder.build(), std::runtime_error);
  builder.add_window(window_with(0.5));
  EXPECT_NO_THROW((void)builder.build());
  EXPECT_THROW((void)builder.build(kPaperTrainingWindows),
               std::runtime_error);
}

TEST(TemplateBuilderTest, RejectsEmptyWindow) {
  TemplateBuilder builder;
  EXPECT_THROW(builder.add_window(window_with(0.5, 0)),
               canids::ContractViolation);
}

TEST(TemplateBuilderTest, RejectsWidthMismatch) {
  TemplateBuilder builder(29);
  EXPECT_THROW(builder.add_window(window_with(0.5)),
               canids::ContractViolation);
}

TEST(TemplateBuilderTest, RejectsTooSmallMinWindows) {
  TemplateBuilder builder;
  builder.add_window(window_with(0.5));
  builder.add_window(window_with(0.5));
  EXPECT_THROW((void)builder.build(1), canids::ContractViolation);
}

WindowSnapshot window_with_pairs(double p, double q,
                                 std::uint64_t frames = 1000) {
  WindowSnapshot snap = window_with(p, frames);
  snap.pair_probabilities.assign(static_cast<std::size_t>(pair_count(11)), q);
  return snap;
}

TEST(GoldenTemplateTest, PairStatisticsAggregated) {
  TemplateBuilder builder;
  builder.add_window(window_with_pairs(0.3, 0.10));
  builder.add_window(window_with_pairs(0.3, 0.20));
  const GoldenTemplate tpl = builder.build();
  ASSERT_TRUE(tpl.has_pairs());
  ASSERT_EQ(tpl.mean_pair_probability.size(),
            static_cast<std::size_t>(pair_count(11)));
  for (std::size_t idx = 0; idx < tpl.mean_pair_probability.size(); ++idx) {
    EXPECT_NEAR(tpl.mean_pair_probability[idx], 0.15, 1e-12);
    EXPECT_DOUBLE_EQ(tpl.min_pair_probability[idx], 0.10);
    EXPECT_DOUBLE_EQ(tpl.max_pair_probability[idx], 0.20);
  }
}

TEST(GoldenTemplateTest, MixedPairAvailabilityDropsPairs) {
  TemplateBuilder builder;
  builder.add_window(window_with_pairs(0.3, 0.1));
  builder.add_window(window_with(0.3));  // no pair data
  const GoldenTemplate tpl = builder.build();
  EXPECT_FALSE(tpl.has_pairs());
}

TEST(GoldenTemplateTest, RangeAccessorsRejectBadBit) {
  TemplateBuilder builder;
  builder.add_window(window_with(0.5));
  builder.add_window(window_with(0.5));
  const GoldenTemplate tpl = builder.build();
  EXPECT_THROW((void)tpl.entropy_range(11), canids::ContractViolation);
  EXPECT_THROW((void)tpl.probability_range(-1), canids::ContractViolation);
}

}  // namespace
}  // namespace canids::ids
