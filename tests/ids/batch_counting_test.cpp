// The batch counting paths must be bit-identical to per-frame feeding,
// including across lane spills and window boundaries.
#include "ids/bit_counters.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ids/window.h"
#include "util/rng.h"

namespace canids::ids {
namespace {

[[nodiscard]] std::vector<std::uint32_t> random_ids(std::size_t count,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<std::uint32_t>(rng.below(can::kMaxStdId + 1)));
  }
  return ids;
}

TEST(BatchCountingTest, AddBatchMatchesPerAdd) {
  // Long enough to cross the 0xFFFF-frame lane spill mid-batch.
  const std::vector<std::uint32_t> ids = random_ids(70'000, 11);

  BitCounters reference;
  for (const std::uint32_t id : ids) reference.add(id);

  BitCounters batched;
  batched.add_batch(ids.data(), ids.size());
  ASSERT_EQ(batched.total(), reference.total());
  for (int bit = 0; bit < can::kStdIdBits; ++bit) {
    EXPECT_EQ(batched.ones(bit), reference.ones(bit)) << "bit " << bit;
  }
}

TEST(BatchCountingTest, SplitBatchesMatchOneBatch) {
  const std::vector<std::uint32_t> ids = random_ids(10'000, 23);
  BitCounters whole;
  whole.add_batch(ids.data(), ids.size());
  BitCounters pieces;
  std::size_t i = 0;
  for (const std::size_t chunk : {1u, 7u, 63u, 500u, 9429u}) {
    pieces.add_batch(ids.data() + i, chunk);
    i += chunk;
  }
  ASSERT_EQ(i, ids.size());
  for (int bit = 0; bit < can::kStdIdBits; ++bit) {
    EXPECT_EQ(pieces.ones(bit), whole.ones(bit)) << "bit " << bit;
  }
}

TEST(BatchCountingTest, PairCountersBatchMatchesPerAddBothModes) {
  const std::vector<std::uint32_t> ids = random_ids(4'096, 7);
  for (const bool with_pairs : {true, false}) {
    PairCounters reference;
    for (const std::uint32_t id : ids) {
      if (with_pairs) {
        reference.add(id);
      } else {
        reference.add_marginal(id);
      }
    }
    PairCounters batched;
    batched.add_batch(ids.data(), ids.size(), with_pairs);
    EXPECT_EQ(batched.total(), reference.total());
    BitValues batched_p;
    BitValues batched_h;
    BitValues reference_p;
    BitValues reference_h;
    batched.marginals().snapshot_into(batched_p, batched_h);
    reference.marginals().snapshot_into(reference_p, reference_h);
    EXPECT_EQ(batched_p, reference_p);
    EXPECT_EQ(batched_h, reference_h);
    if (with_pairs) {
      EXPECT_EQ(batched.pair_probabilities(), reference.pair_probabilities());
    }
  }
}

TEST(BatchCountingTest, WindowAccumulatorBatchMatchesPerFrame) {
  // 8 seconds of irregular traffic with a 3-second silence gap, so the
  // batch path must close windows mid-block and skip the silent ones.
  util::Rng rng(99);
  std::vector<can::TimedId> frames;
  util::TimeNs now = 0;
  for (int i = 0; i < 4'000; ++i) {
    now += static_cast<util::TimeNs>(rng.below(2'000'000)) + 1;
    if (i == 2'000) now += 3 * util::kSecond;
    frames.push_back(can::TimedId{
        now,
        can::CanId::standard(static_cast<std::uint32_t>(rng.below(0x800)))});
  }

  for (const bool track_pairs : {true, false}) {
    WindowConfig config;
    config.track_pairs = track_pairs;

    WindowAccumulator reference(config);
    std::vector<WindowSnapshot> expected;
    for (const can::TimedId& frame : frames) {
      if (auto snap = reference.add(frame.timestamp, frame.id)) {
        expected.push_back(std::move(*snap));
      }
    }

    // Feed the same stream in uneven blocks.
    WindowAccumulator accumulator(config);
    std::vector<WindowSnapshot> got;
    std::size_t i = 0;
    while (i < frames.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(frames.size() - i, 1 + rng.below(700));
      accumulator.add_batch(frames.data() + i, chunk, got);
      i += chunk;
    }

    ASSERT_EQ(got.size(), expected.size()) << "pairs=" << track_pairs;
    for (std::size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(got[w], expected[w]) << "window " << w;
    }
    EXPECT_EQ(accumulator.flush().has_value(), reference.flush().has_value());
  }
}

}  // namespace
}  // namespace canids::ids
