#include "ids/inference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "ids/bit_counters.h"
#include "util/rng.h"

namespace canids::ids {
namespace {

/// Test fixture world: a legal ID pool with a stable traffic mix, a golden
/// template built from that mix, and a helper to forge attacked windows.
/// `with_pairs` selects between the paper-faithful marginals-only mode and
/// the pairwise-counter inference extension.
class InferenceWorld {
 public:
  explicit InferenceWorld(std::uint64_t seed = 99, int pool_size = 60,
                          bool with_pairs = false)
      : with_pairs_(with_pairs) {
    util::Rng rng(seed);
    while (static_cast<int>(pool_.size()) < pool_size) {
      const auto id = static_cast<std::uint32_t>(rng.below(0x800));
      if (std::find(pool_.begin(), pool_.end(), id) == pool_.end()) {
        pool_.push_back(id);
      }
    }
    std::sort(pool_.begin(), pool_.end());
    // Stable per-ID frame counts per window (priority-weighted).
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      weights_[pool_[i]] = 4 + (pool_.size() - i) / 6;
    }

    TemplateBuilder builder;
    for (int w = 0; w < 40; ++w) {
      builder.add_window(make_window({}, /*noise_seed=*/seed + 100 + w));
    }
    golden_ = std::make_shared<const GoldenTemplate>(
        builder.build(kPaperTrainingWindows));
  }

  /// A window of the normal mix plus `injected` extra (id -> count) frames.
  WindowSnapshot make_window(const std::map<std::uint32_t, int>& injected,
                             std::uint64_t noise_seed = 1) const {
    util::Rng rng(noise_seed);
    PairCounters counters;
    for (const auto& [id, weight] : weights_) {
      // +-1 frame of sampling noise per ID models real window jitter.
      const int jitter = static_cast<int>(rng.between(-1, 1));
      const int count = std::max(1, weight + jitter);
      for (int i = 0; i < count; ++i) counters.add(id);
    }
    for (const auto& [id, count] : injected) {
      for (int i = 0; i < count; ++i) counters.add(id);
    }
    WindowSnapshot snap;
    snap.frames = counters.total();
    snap.start = 0;
    snap.end = util::kSecond;
    snap.probabilities = counters.marginals().probabilities();
    snap.entropies = counters.marginals().entropies();
    if (with_pairs_) {
      snap.pair_probabilities = counters.pair_probabilities();
    }
    return snap;
  }

  [[nodiscard]] const std::vector<std::uint32_t>& pool() const {
    return pool_;
  }
  [[nodiscard]] const std::shared_ptr<const GoldenTemplate>& golden() const {
    return golden_;
  }

 private:
  bool with_pairs_;
  std::vector<std::uint32_t> pool_;
  std::map<std::uint32_t, int> weights_;
  std::shared_ptr<const GoldenTemplate> golden_;
};

TEST(InferenceEngineTest, RejectsEmptyPool) {
  const InferenceWorld world;
  EXPECT_THROW(InferenceEngine(world.golden(), {}), canids::ContractViolation);
}

TEST(InferenceEngineTest, SingleInjectedIdRankedFirstish) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  // Inject a mid-pool ID heavily (roughly 25 % of window traffic).
  const std::uint32_t injected = world.pool()[world.pool().size() / 2];
  const WindowSnapshot attacked = world.make_window({{injected, 150}});
  const InferenceResult result = engine.infer(attacked);

  EXPECT_FALSE(result.constraints.empty());
  EXPECT_EQ(inference_hit_fraction({injected}, result.ranked_candidates), 1.0);
  EXPECT_GT(result.estimated_injection_fraction, 0.05);
}

TEST(InferenceEngineTest, RankedListBoundedByRank) {
  const InferenceWorld world;
  InferenceConfig config;
  config.rank = 10;
  InferenceEngine engine(world.golden(), world.pool(), config);
  const WindowSnapshot attacked =
      world.make_window({{world.pool().front(), 120}});
  const InferenceResult result = engine.infer(attacked);
  EXPECT_LE(result.ranked_candidates.size(), 10u);
  // Candidates are unique.
  auto sorted = result.ranked_candidates;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(InferenceEngineTest, ConstraintDirectionMatchesInjectedBits) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[3];
  const WindowSnapshot attacked = world.make_window({{injected, 200}});
  const InferenceResult result = engine.infer(attacked);
  ASSERT_FALSE(result.constraints.empty());
  for (const BitConstraint& c : result.constraints) {
    const bool bit = ((injected >> (10 - c.bit)) & 1u) != 0;
    EXPECT_EQ(c.injected_bit, bit)
        << "constraint direction wrong at bit " << c.bit;
  }
}

TEST(InferenceEngineTest, TwoInjectedIdsBothRecovered) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t a = world.pool()[5];
  const std::uint32_t b = world.pool()[40];
  const WindowSnapshot attacked = world.make_window({{a, 120}, {b, 120}});
  const InferenceResult result = engine.infer(attacked);
  const double hit = inference_hit_fraction({a, b}, result.ranked_candidates);
  EXPECT_GE(hit, 0.5);  // at least one; typically both
  EXPECT_GE(result.estimated_num_ids, 1);
}

TEST(InferenceEngineTest, CleanWindowYieldsNoConstraints) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const WindowSnapshot clean = world.make_window({}, /*noise_seed=*/777);
  const InferenceResult result = engine.infer(clean);
  EXPECT_TRUE(result.constraints.empty());
  EXPECT_LT(result.estimated_injection_fraction, 0.1);
}

TEST(InferenceEngineTest, HigherInjectionEasierThanLower) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[20];
  const InferenceResult heavy =
      engine.infer(world.make_window({{injected, 250}}));
  const InferenceResult light =
      engine.infer(world.make_window({{injected, 10}}));
  EXPECT_GE(heavy.constraints.size(), light.constraints.size());
  EXPECT_GE(heavy.estimated_injection_fraction,
            light.estimated_injection_fraction);
}

TEST(InferenceEngineTest, AlignmentScorePrefersTrueId) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[10];
  const WindowSnapshot attacked = world.make_window({{injected, 200}});
  std::vector<double> delta(11);
  for (int i = 0; i < 11; ++i) {
    delta[static_cast<std::size_t>(i)] =
        attacked.probabilities[static_cast<std::size_t>(i)] -
        world.golden()->mean_probability[static_cast<std::size_t>(i)];
  }
  const double true_score = engine.alignment_score(injected, delta);
  int better = 0;
  for (std::uint32_t other : world.pool()) {
    if (other != injected && engine.alignment_score(other, delta) > true_score) {
      ++better;
    }
  }
  EXPECT_LT(better, 5);  // true ID is among the best aligned
}

TEST(InferenceEngineTest, EstimatedLambdaTracksInjectedFraction) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[0];
  const WindowSnapshot attacked = world.make_window({{injected, 200}});
  const InferenceResult result = engine.infer(attacked);
  const double true_lambda =
      200.0 / static_cast<double>(attacked.frames);
  EXPECT_NEAR(result.estimated_injection_fraction, true_lambda, 0.12);
}

TEST(InferenceHitFractionTest, Scoring) {
  EXPECT_DOUBLE_EQ(inference_hit_fraction({1, 2}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(inference_hit_fraction({1, 2}, {2, 9}), 0.5);
  EXPECT_DOUBLE_EQ(inference_hit_fraction({1, 2}, {7, 9}), 0.0);
  EXPECT_DOUBLE_EQ(inference_hit_fraction({}, {1}), 0.0);
}

// Parameterised sweep: single-ID inference succeeds across pool positions
// (priority levels) at a strong injection rate.
class InferencePositionSweep : public ::testing::TestWithParam<int> {};

TEST_P(InferencePositionSweep, RecoversInjectedIdAtPosition) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const auto index = static_cast<std::size_t>(GetParam());
  ASSERT_LT(index, world.pool().size());
  const std::uint32_t injected = world.pool()[index];
  const WindowSnapshot attacked = world.make_window({{injected, 180}});
  const InferenceResult result = engine.infer(attacked);
  EXPECT_EQ(inference_hit_fraction({injected}, result.ranked_candidates), 1.0)
      << "pool position " << index;
}

INSTANTIATE_TEST_SUITE_P(PoolPositions, InferencePositionSweep,
                         ::testing::Values(0, 7, 15, 23, 31, 39, 47, 55, 59));

// --- Pairwise-counter inference extension ----------------------------------

TEST(PairInferenceTest, TemplateAndWindowPairsAreUsed) {
  const InferenceWorld world(99, 60, /*with_pairs=*/true);
  ASSERT_TRUE(world.golden()->has_pairs());
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[30];
  const WindowSnapshot attacked = world.make_window({{injected, 150}});
  ASSERT_TRUE(attacked.has_pairs());
  const InferenceResult result = engine.infer(attacked);
  EXPECT_EQ(inference_hit_fraction({injected}, result.ranked_candidates), 1.0);
}

TEST(PairInferenceTest, FourInjectedIdsMostlyRecovered) {
  const InferenceWorld world(123, 80, /*with_pairs=*/true);
  InferenceEngine engine(world.golden(), world.pool());
  double hit_sum = 0.0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    util::Rng rng(500 + t);
    std::map<std::uint32_t, int> injected;
    while (injected.size() < 4) {
      injected[world.pool()[rng.below(world.pool().size())]] = 80;
    }
    std::vector<std::uint32_t> true_ids;
    for (const auto& [id, count] : injected) true_ids.push_back(id);
    const InferenceResult result =
        engine.infer(world.make_window(injected, 900 + t));
    hit_sum += inference_hit_fraction(true_ids, result.ranked_candidates);
  }
  // Table I's hardest row; with pair features the extension recovers most
  // members (paper-mode marginals alone sit far lower, see the bench).
  EXPECT_GT(hit_sum / kTrials, 0.7);
}

TEST(PairInferenceTest, PairsBeatMarginalsOnMultiId) {
  const InferenceWorld pairs_world(77, 80, /*with_pairs=*/true);
  const InferenceWorld plain_world(77, 80, /*with_pairs=*/false);
  InferenceEngine pair_engine(pairs_world.golden(), pairs_world.pool());
  InferenceEngine plain_engine(plain_world.golden(), plain_world.pool());

  double pair_hits = 0.0;
  double plain_hits = 0.0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    util::Rng rng(3000 + t);
    std::map<std::uint32_t, int> injected;
    while (injected.size() < 3) {
      injected[pairs_world.pool()[rng.below(pairs_world.pool().size())]] = 70;
    }
    std::vector<std::uint32_t> true_ids;
    for (const auto& [id, count] : injected) true_ids.push_back(id);
    pair_hits += inference_hit_fraction(
        true_ids,
        pair_engine.infer(pairs_world.make_window(injected, 4000 + t))
            .ranked_candidates);
    plain_hits += inference_hit_fraction(
        true_ids,
        plain_engine.infer(plain_world.make_window(injected, 4000 + t))
            .ranked_candidates);
  }
  EXPECT_GE(pair_hits, plain_hits);
  EXPECT_GT(pair_hits / kTrials, 0.75);
}

TEST(PairInferenceTest, MissingWindowPairsFallsBackToMarginals) {
  // Template with pairs, window without: the engine must degrade
  // gracefully to the marginal path.
  const InferenceWorld pairs_world(42, 60, /*with_pairs=*/true);
  const InferenceWorld plain_world(42, 60, /*with_pairs=*/false);
  InferenceEngine engine(pairs_world.golden(), pairs_world.pool());
  const std::uint32_t injected = pairs_world.pool()[10];
  const WindowSnapshot no_pairs =
      plain_world.make_window({{injected, 150}}, 5);
  ASSERT_FALSE(no_pairs.has_pairs());
  const InferenceResult result = engine.infer(no_pairs);
  EXPECT_EQ(inference_hit_fraction({injected}, result.ranked_candidates), 1.0);
}

TEST(PairInferenceTest, EstimatedSetSizeTracksTruth) {
  const InferenceWorld world(55, 60, /*with_pairs=*/true);
  InferenceEngine engine(world.golden(), world.pool());
  const InferenceResult one =
      engine.infer(world.make_window({{world.pool()[20], 160}}, 8));
  EXPECT_LE(one.estimated_num_ids, 2);
  const InferenceResult three = engine.infer(world.make_window(
      {{world.pool()[5], 100}, {world.pool()[25], 100}, {world.pool()[45], 100}},
      9));
  EXPECT_GE(three.estimated_num_ids, 2);
}

}  // namespace
}  // namespace canids::ids
