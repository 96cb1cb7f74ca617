#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace canids::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 223ULL, 2048ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(RngTest, BelowZeroBoundReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowCoversFullRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, BetweenInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BetweenDegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.between(9, 9), 9);
  EXPECT_EQ(rng.between(9, 3), 9);  // lo >= hi collapses to lo
}

TEST(RngTest, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01MeanNearHalf) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child stream differs from the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkDeterministicGivenParentState) {
  Rng p1(77);
  Rng p2(77);
  Rng c1 = p1.fork();
  Rng c2 = p2.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c1(), c2());
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  // Pin the seeding path: same constant input must always produce the same
  // first outputs (guards against accidental algorithm changes).
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  const std::uint64_t second = splitmix64(s);
  EXPECT_NE(first, second);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
  EXPECT_EQ(splitmix64(s2), second);
}

}  // namespace
}  // namespace canids::util
