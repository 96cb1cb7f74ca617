// The dispatched integer kernels behind the batched BitCountersT hot path:
// lane-table accumulation (add) and lane widening into the 64-bit per-bit
// counters (spill). Every level — scalar, SSE2, AVX2 — computes the exact
// same 64-bit sums, so counter state is bit-identical whichever level
// util::active_simd_level() selects; the level is purely a speed knob.
//
// Lane-table rows and the lane accumulator block are padded to
// kLaneRowWords u64 words (one 256-bit vector), so the kernels never need
// a per-row tail loop; padding words hold zero and contribute nothing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace canids::ids::simd {

/// u64 words per lane-table row / per lane-accumulator block.
inline constexpr int kLaneRowWords = 4;

/// Accumulate `count` lane-table rows into `lanes` (kLaneRowWords words):
/// lanes[w] += table[(ids[i] & mask) * kLaneRowWords + w] for every id.
/// The caller guarantees no 16-bit lane can saturate within the batch.
using LaneAddFn = void (*)(std::uint64_t* lanes, const std::uint64_t* table,
                           std::uint32_t mask, const std::uint32_t* ids,
                           std::size_t count);

/// Widen `words` lane words (4 x 16-bit lanes each) into the per-bit
/// counters: ones[4 * w + l] += lane l of lanes[w]. `ones` must have
/// 4 * words slots — BitCountersT pads its counter array for this.
using LaneSpillFn = void (*)(const std::uint64_t* lanes, std::uint64_t* ones,
                             int words);

/// Kernels for util::active_simd_level(), resolved fresh per call — fetch
/// once per batch, not per frame.
[[nodiscard]] LaneAddFn lane_add_kernel() noexcept;
[[nodiscard]] LaneSpillFn lane_spill_kernel() noexcept;

// The individual levels, exposed for the equality tests.
// SSE2 variants exist only in x86 builds; AVX2 variants only when the
// build compiles them (CANIDS_ENABLE_AVX2) — reach them through the
// dispatchers above, which never select a missing level.
void lane_add_scalar(std::uint64_t* lanes, const std::uint64_t* table,
                     std::uint32_t mask, const std::uint32_t* ids,
                     std::size_t count) noexcept;
void lane_spill_scalar(const std::uint64_t* lanes, std::uint64_t* ones,
                       int words) noexcept;
void lane_add_sse2(std::uint64_t* lanes, const std::uint64_t* table,
                   std::uint32_t mask, const std::uint32_t* ids,
                   std::size_t count) noexcept;
void lane_spill_sse2(const std::uint64_t* lanes, std::uint64_t* ones,
                     int words) noexcept;
void lane_add_avx2(std::uint64_t* lanes, const std::uint64_t* table,
                   std::uint32_t mask, const std::uint32_t* ids,
                   std::size_t count) noexcept;
void lane_spill_avx2(const std::uint64_t* lanes, std::uint64_t* ones,
                     int words) noexcept;

}  // namespace canids::ids::simd
