#include "ids/inference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
    counters.marginals().snapshot_into(snap.probabilities, snap.entropies);
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

// Every output field of infer() on seeded windows that reach each stage of
// the search: one, two and four injected IDs; a 223-ID pool, larger than
// the 96-ID search pool, so both the search-pool cap and the beam's
// truncation bind; a pairs template fed a window without pairs; and a
// clean window. Rankings and best sets are literals. One FNV-1a digest
// covers the set sizes, every constraint and the IEEE-754 bits of every
// fitted double, so a change in summation order shows even where the
// rankings survive it.
TEST(InferenceEngineTest, SeededResultsArePinned) {
  const InferenceWorld plain(99, 60, /*with_pairs=*/false);
  const InferenceWorld pairs(123, 80, /*with_pairs=*/true);
  const InferenceWorld large(2024, 223, /*with_pairs=*/true);
  const InferenceEngine plain_engine(plain.golden(), plain.pool());
  const InferenceEngine pairs_engine(pairs.golden(), pairs.pool());
  const InferenceEngine large_engine(large.golden(), large.pool());
  const std::vector<std::uint32_t>& p = pairs.pool();
  const std::vector<std::uint32_t>& l = large.pool();

  WindowSnapshot without_pairs = pairs.make_window({{p[33], 150}}, 7);
  without_pairs.pair_probabilities.reset();
  const std::vector<InferenceResult> results = {
      plain_engine.infer(plain.make_window({{plain.pool()[17], 150}}, 3)),
      pairs_engine.infer(pairs.make_window({{p[5], 110}, {p[52], 110}}, 4)),
      pairs_engine.infer(pairs.make_window(
          {{p[3], 80}, {p[21], 80}, {p[44], 80}, {p[70], 80}}, 5)),
      large_engine.infer(large.make_window(
          {{l[12], 120}, {l[64], 120}, {l[131], 120}, {l[200], 120}}, 6)),
      pairs_engine.infer(without_pairs),
      pairs_engine.infer(pairs.make_window({}, 777)),
  };

  const std::vector<std::vector<std::uint32_t>> ranked = {
      {0x2A7, 0x069, 0x4F4, 0x5C3, 0x345, 0x5DC, 0x3D2, 0x366, 0x573, 0x548},
      {0x534, 0x057, 0x5DD, 0x75A, 0x55E, 0x7D4, 0x579, 0x545, 0x773, 0x74E},
      {0x1F9, 0x6C5, 0x421, 0x04D, 0x2C5, 0x6A0, 0x0E1, 0x603, 0x64F, 0x545},
      {0x055, 0x243, 0x742, 0x4AE, 0x746, 0x42E, 0x48E, 0x476, 0x54A, 0x540},
      {0x29D, 0x06A, 0x4DB, 0x373, 0x313, 0x02A, 0x3FA, 0x5EB, 0x51B, 0x773},
      {0x690, 0x75A, 0x470, 0x2B5, 0x4F4, 0x7BA, 0x0D5, 0x297, 0x670, 0x7B8},
  };
  const std::vector<std::vector<std::uint32_t>> best_sets = {
      {0x2A7},
      {0x057, 0x534, 0x5DD},
      {0x04D, 0x1F9, 0x421, 0x6C5},
      {0x055, 0x243, 0x4AE, 0x742},
      {0x29D},
      {0x690},
  };
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  const auto mix = [&digest](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      digest ^= (value >> (8 * i)) & 0xFFU;
      digest *= 0x100000001B3ULL;
    }
  };
  ASSERT_EQ(results.size(), ranked.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const InferenceResult& result = results[i];
    EXPECT_EQ(result.ranked_candidates, ranked[i]) << "window " << i;
    EXPECT_EQ(result.best_set, best_sets[i]) << "window " << i;
    mix(static_cast<std::uint32_t>(result.estimated_num_ids), 4);
    for (const BitConstraint& c : result.constraints) {
      mix(static_cast<std::uint32_t>(c.bit), 4);
      mix(c.injected_bit ? 1U : 0U, 1);
      mix(std::bit_cast<std::uint64_t>(c.shift), 8);
    }
    mix(std::bit_cast<std::uint64_t>(result.estimated_injection_fraction), 8);
    mix(std::bit_cast<std::uint64_t>(result.fit_residual), 8);
  }
  EXPECT_EQ(digest, 0x87187C0C52305C8EULL);
}

/// FNV-1a over every output field of infer(): set size, best set, ranked
/// list, constraints and the IEEE-754 bits of every fitted double.
class ResultDigest {
 public:
  void add(const InferenceResult& result) {
    mix(static_cast<std::uint32_t>(result.estimated_num_ids), 4);
    mix(result.best_set.size(), 4);
    for (std::uint32_t id : result.best_set) mix(id, 4);
    mix(result.ranked_candidates.size(), 4);
    for (std::uint32_t id : result.ranked_candidates) mix(id, 4);
    mix(result.constraints.size(), 4);
    for (const BitConstraint& c : result.constraints) {
      mix(static_cast<std::uint32_t>(c.bit), 4);
      mix(c.injected_bit ? 1U : 0U, 1);
      mix(std::bit_cast<std::uint64_t>(c.shift), 8);
    }
    mix(std::bit_cast<std::uint64_t>(result.estimated_injection_fraction), 8);
    mix(std::bit_cast<std::uint64_t>(result.fit_residual), 8);
  }
  [[nodiscard]] std::uint64_t value() const { return digest_; }

 private:
  void mix(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      digest_ ^= (value >> (8 * i)) & 0xFFU;
      digest_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t digest_ = 0xCBF29CE484222325ULL;
};

// A window whose statistics are the template's own means has delta = 0
// exactly, so every fit of a given size has zero weights and ties at its
// size penalty. The search pool (the pool's first 96 of 120 IDs), every
// beam and the harvested sets then rest on generation order alone. A rank
// of 30 reaches past the IDs that the size-1 sets vote for, so the list
// shows which sets of sizes 2-4 were harvested.
TEST(InferenceEngineTest, TiedResidualsKeepGenerationOrder) {
  const InferenceWorld world(31, 120, /*with_pairs=*/true);
  InferenceConfig config;
  config.rank = 30;
  const InferenceEngine engine(world.golden(), world.pool(), config);
  WindowSnapshot flat = world.make_window({}, 5);
  flat.probabilities = world.golden()->mean_probability;
  flat.pair_probabilities = world.golden()->mean_pair_probability;
  const InferenceResult result = engine.infer(flat);

  EXPECT_TRUE(result.constraints.empty());
  EXPECT_EQ(result.ranked_candidates,
            (std::vector<std::uint32_t>{
                0x008, 0x00B, 0x016, 0x01A, 0x025, 0x028, 0x030, 0x03D,
                0x046, 0x05B, 0x063, 0x06C, 0x087, 0x0AF, 0x0B2, 0x0BC,
                0x0C3, 0x0E0, 0x0E3, 0x0ED, 0x0F5, 0x102, 0x10F, 0x12F,
                0x133, 0x137, 0x14A, 0x14B, 0x15A, 0x161}));
  EXPECT_EQ(result.best_set, std::vector<std::uint32_t>{0x008});
  EXPECT_EQ(result.estimated_num_ids, 1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.estimated_injection_fraction),
            0U);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.fit_residual),
            std::bit_cast<std::uint64_t>(2e-4));
}

// A wider net than SeededResultsArePinned: 60 seeded windows over six
// worlds of 60–223 IDs, with and without pair statistics, each injecting
// 0–5 IDs at mixed counts. About a third of the injected IDs are drawn
// from the whole 11-bit space, as a fuzzing sender's are, so some lie
// outside the pool. Pairs templates are also fed windows without pairs.
TEST(InferenceEngineTest, SeededSweepIsPinned) {
  struct WorldSpec {
    std::uint64_t seed;
    int pool;
    bool pairs;
  };
  const WorldSpec specs[] = {{11, 60, false},  {12, 97, true},
                             {13, 131, false}, {14, 160, true},
                             {15, 197, true},  {16, 223, true}};
  ResultDigest digest;
  int windows = 0;
  for (const WorldSpec& spec : specs) {
    const InferenceWorld world(spec.seed, spec.pool, spec.pairs);
    const InferenceEngine engine(world.golden(), world.pool());
    util::Rng rng(spec.seed * 7919);
    for (int w = 0; w < 10; ++w) {
      const auto count = static_cast<std::size_t>(w % 6);
      std::map<std::uint32_t, int> injected;
      while (injected.size() < count) {
        const bool fuzz = rng.below(3) == 0;
        const auto id = static_cast<std::uint32_t>(
            fuzz ? rng.below(0x800)
                 : world.pool()[rng.below(world.pool().size())]);
        injected[id] = static_cast<int>(20 + rng.below(160));
      }
      WindowSnapshot window = world.make_window(injected, spec.seed * 100 + w);
      if (w % 4 == 3) window.pair_probabilities.reset();
      digest.add(engine.infer(window));
      ++windows;
    }
  }
  EXPECT_EQ(windows, 60);
  EXPECT_EQ(digest.value(), 0xC6A85C87439304ADULL);
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
  ASSERT_TRUE(world.golden()->has_pairs);
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[30];
  const WindowSnapshot attacked = world.make_window({{injected, 150}});
  ASSERT_TRUE(attacked.pair_probabilities.has_value());
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
  ASSERT_FALSE(no_pairs.pair_probabilities.has_value());
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
