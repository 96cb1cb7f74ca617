// The paper's O(1)-memory monitoring state (§V.E): one counter per bit of
// the 11-bit standard identifier plus a frame total — 11 counters no matter
// how many distinct identifiers appear on the bus, versus a per-ID
// histogram for the whole-distribution entropy baseline [8].
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "can/frame.h"
#include "ids/binary_entropy.h"
#include "util/contracts.h"

namespace canids::ids {

/// One value per bit of an 11-bit identifier, MSB first.
using BitValues = std::array<double, can::kStdIdBits>;

/// Per-bit '1' counters over a stream of 11-bit identifiers.
class BitCounters {
 public:
  /// Identifier bits this counter observes (higher bits are ignored).
  static constexpr std::uint32_t kIdMask = can::kMaxStdId;

  /// Count one identifier. Bit 0 is the MSB, matching CanId::bit. A shared
  /// lookup table maps each identifier to its bits pre-packed as 16-bit
  /// lanes, so add() is kWords wide adds instead of 11 scattered ones.
  /// Lanes spill into the 64-bit counters before they can saturate. ~3x
  /// faster per frame than the bit loop (bench_micro_throughput,
  /// BM_BitSlice_CountFrame).
  void add(std::uint32_t raw_id) noexcept {
    ++total_;
    const LaneRow& row = lane_table()[raw_id & kIdMask];
    for (int w = 0; w < kWords; ++w) {
      lanes_[static_cast<std::size_t>(w)] += row[static_cast<std::size_t>(w)];
    }
    if (++pending_ == kLaneLimit) spill();
  }

  /// Count a block of identifiers. Bit-identical to calling add() per id —
  /// lane-spill timing is unobservable (ones() folds pending lanes) — but
  /// the lane accumulators stay in locals across each chunk, and chunks
  /// end where a 16-bit lane could saturate.
  void add_batch(const std::uint32_t* ids, std::size_t count) noexcept {
    const LaneTable& table = lane_table();
    total_ += count;
    while (count > 0) {
      const auto chunk = std::min<std::size_t>(count, kLaneLimit - pending_);
      LaneRow lanes = lanes_;
      for (std::size_t i = 0; i < chunk; ++i) {
        const LaneRow& row = table[ids[i] & kIdMask];
        for (std::size_t w = 0; w < lanes.size(); ++w) lanes[w] += row[w];
      }
      lanes_ = lanes;
      pending_ += static_cast<std::uint32_t>(chunk);
      ids += chunk;
      count -= chunk;
      if (pending_ == kLaneLimit) spill();
    }
  }

  void reset() noexcept {
    ones_.fill(0);
    total_ = 0;
    lanes_.fill(0);
    pending_ = 0;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t ones(int bit) const {
    CANIDS_EXPECTS(bit >= 0 && bit < can::kStdIdBits);
    return ones_[static_cast<std::size_t>(bit)] + lane(bit);
  }

  /// p_i = (#messages with bit i == 1) / total. Requires a non-empty window.
  [[nodiscard]] double probability(int bit) const {
    CANIDS_EXPECTS(total_ > 0);
    return static_cast<double>(ones(bit)) / static_cast<double>(total_);
  }

  /// Fill p_i = probability(i) and Ĥ = {H_1 .. H_11}, H_i =
  /// binary_entropy(p_i), in one pass. Bits sharing a '1' count get one
  /// binary_entropy evaluation instead of 11 of them — identifiers are
  /// priority-clustered, so windows routinely repeat counts across bits.
  /// Requires a non-empty window.
  void snapshot_into(BitValues& probabilities_out,
                     BitValues& entropies_out) const {
    CANIDS_EXPECTS(total_ > 0);
    constexpr auto kBits = static_cast<std::size_t>(can::kStdIdBits);
    std::array<std::uint64_t, kBits> seen_ones;
    std::array<double, kBits> seen_entropy;
    std::size_t cached = 0;
    for (std::size_t b = 0; b < kBits; ++b) {
      const std::uint64_t count = ones(static_cast<int>(b));
      probabilities_out[b] =
          static_cast<double>(count) / static_cast<double>(total_);
      double entropy = -1.0;
      for (std::size_t c = 0; c < cached; ++c) {
        if (seen_ones[c] == count) {
          entropy = seen_entropy[c];
          break;
        }
      }
      if (entropy < 0.0) {
        entropy = binary_entropy(probabilities_out[b]);
        seen_ones[cached] = count;
        seen_entropy[cached] = entropy;
        ++cached;
      }
      entropies_out[b] = entropy;
    }
  }

  /// Exact per-bus memory footprint of the monitoring state in bytes;
  /// quoted in the §V.E comparison benches. The identifier lane table is
  /// shared by every counter instance in the process and excluded.
  [[nodiscard]] static constexpr std::size_t state_bytes() noexcept {
    return sizeof(ones_) + sizeof(total_) + sizeof(lanes_) + sizeof(pending_);
  }

 private:
  static constexpr int kLanesPerWord = 4;  // 16-bit lanes in a u64
  static constexpr int kWords =
      (can::kStdIdBits + kLanesPerWord - 1) / kLanesPerWord;
  static constexpr std::uint32_t kLaneLimit = 0xFFFF;  // lane saturation
  /// Rows are padded to an even word count so add_batch adds a row in
  /// whole 128-bit vectors; the padding word stays zero.
  static constexpr std::size_t kRowWords = 4;
  static_assert(kWords <= kRowWords);
  using LaneRow = std::array<std::uint64_t, kRowWords>;
  using LaneTable = std::array<LaneRow, std::size_t{kIdMask} + 1>;

  /// Shared id -> packed-lane-increment table, built on first use.
  [[nodiscard]] static const LaneTable& lane_table() {
    static const LaneTable table = [] {
      LaneTable built{};
      for (std::size_t id = 0; id < built.size(); ++id) {
        for (int i = 0; i < can::kStdIdBits; ++i) {
          built[id][static_cast<std::size_t>(i / kLanesPerWord)] |=
              static_cast<std::uint64_t>((id >> (can::kStdIdBits - 1 - i)) &
                                         1u)
              << ((i % kLanesPerWord) * 16);
        }
      }
      return built;
    }();
    return table;
  }

  /// Bit i's pending count still packed in the lane accumulators.
  [[nodiscard]] std::uint64_t lane(int bit) const noexcept {
    return (lanes_[static_cast<std::size_t>(bit / kLanesPerWord)] >>
            ((bit % kLanesPerWord) * 16)) &
           0xFFFF;
  }

  /// Fold the lane accumulators into the 64-bit counters.
  void spill() noexcept {
    for (std::size_t i = 0; i < ones_.size(); ++i) {
      ones_[i] += lane(static_cast<int>(i));
    }
    lanes_.fill(0);
    pending_ = 0;
  }

  /// Padded to whole lane words (kLanesPerWord * kWords) so spill widens
  /// every lane of every word; the padding slot stays zero forever.
  std::array<std::uint64_t, static_cast<std::size_t>(kLanesPerWord * kWords)>
      ones_{};
  std::uint64_t total_ = 0;
  /// Lane accumulators, padded like LaneRow.
  LaneRow lanes_{};
  std::uint32_t pending_ = 0;
};

/// Number of unordered bit pairs (i < j) of an 11-bit identifier.
inline constexpr int kPairCount = can::kStdIdBits * (can::kStdIdBits - 1) / 2;

/// Flat index of the pair (i, j), i < j, in the upper-triangle layout used
/// by PairCounters, WindowSnapshot::pair_probabilities and GoldenTemplate.
[[nodiscard]] constexpr int pair_index(int i, int j) noexcept {
  return i * (2 * can::kStdIdBits - i - 1) / 2 + (j - i - 1);
}

/// One value per bit pair, in pair_index order.
using PairValues = std::array<double, kPairCount>;

/// Per-bit-pair co-occurrence counters: q_ij = Pr(bit_i = 1 AND bit_j = 1).
///
/// Still O(1) in the number of identifiers (55 counters on top of the 11
/// marginals), but far more informative for malicious-ID inference: mixing
/// traffic is linear in q_ij exactly as in p_i, giving 66 usable equations
/// instead of 11. This powers the multi-ID inference extension (README,
/// "Detector backends": bit-entropy's 55 pair counters); the detector itself
/// stays on the paper's 11 marginal entropies.
class PairCounters {
 public:
  /// Only pairs of set bits contribute, so walk set bits (MSB-down) and
  /// touch O(popcount^2) counters instead of scanning all 11 positions per
  /// set bit (~10 increments instead of ~50 for typical identifiers).
  void add(std::uint32_t raw_id) noexcept {
    marginals_.add(raw_id);
    add_pairs(raw_id);
  }

  /// Count only the marginal bit counters — the WindowAccumulator path for
  /// track_pairs=false configs, which previously paid the pair loop anyway.
  void add_marginal(std::uint32_t raw_id) noexcept { marginals_.add(raw_id); }

  /// Batch-count a block of identifiers; bit-identical to per-frame calls.
  /// Marginals go through BitCounters::add_batch; the pair updates
  /// (O(popcount^2), data-dependent scatter) stay per identifier.
  void add_batch(const std::uint32_t* ids, std::size_t count,
                 bool with_pairs) noexcept {
    marginals_.add_batch(ids, count);
    if (!with_pairs) return;
    for (std::size_t i = 0; i < count; ++i) add_pairs(ids[i]);
  }

  void reset() noexcept {
    marginals_.reset();
    pair_ones_.fill(0);
  }

  [[nodiscard]] const BitCounters& marginals() const noexcept {
    return marginals_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return marginals_.total();
  }

  /// q_ij for i < j. Requires a non-empty window.
  [[nodiscard]] double pair_probability(int i, int j) const {
    CANIDS_EXPECTS(i >= 0 && i < j && j < can::kStdIdBits);
    CANIDS_EXPECTS(total() > 0);
    return static_cast<double>(
               pair_ones_[static_cast<std::size_t>(pair_index(i, j))]) /
           static_cast<double>(total());
  }

  /// All q_ij in flat upper-triangle order.
  [[nodiscard]] PairValues pair_probabilities() const {
    PairValues out{};
    for (int i = 0; i < can::kStdIdBits - 1; ++i) {
      for (int j = i + 1; j < can::kStdIdBits; ++j) {
        out[static_cast<std::size_t>(pair_index(i, j))] =
            pair_probability(i, j);
      }
    }
    return out;
  }

  [[nodiscard]] static constexpr std::size_t state_bytes() noexcept {
    return BitCounters::state_bytes() + sizeof(pair_ones_);
  }

 private:
  void add_pairs(std::uint32_t raw_id) noexcept {
    std::uint32_t rest = raw_id & BitCounters::kIdMask;
    while (rest != 0) {
      const int hi = std::bit_width(rest) - 1;  // highest set bit, LSB = 0
      const int i = can::kStdIdBits - 1 - hi;   // MSB-first index
      rest &= ~(1u << hi);
      for (std::uint32_t lower = rest; lower != 0; lower &= lower - 1) {
        const int j = can::kStdIdBits - 1 - std::countr_zero(lower);
        ++pair_ones_[static_cast<std::size_t>(pair_index(i, j))];
      }
    }
  }

  BitCounters marginals_;
  std::array<std::uint64_t, static_cast<std::size_t>(kPairCount)> pair_ones_{};
};

}  // namespace canids::ids
