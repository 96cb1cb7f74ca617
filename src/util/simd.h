// Runtime SIMD capability detection and the process-wide kernel-level
// switch. The dispatched kernels (ids/simd_kernels.h) are integer-exact:
// every level produces bit-identical counters, so the level is purely a
// throughput knob — switchable in-process via set_simd_level() and
// overridable with the CANIDS_SIMD environment variable
// (scalar | sse2 | avx2) for the CI byte-identity checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace canids::util {

enum class SimdLevel : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

/// Parse "scalar" / "sse2" / "avx2" (the CANIDS_SIMD tokens).
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(
    std::string_view name) noexcept;

/// Best level both this CPU and this build support (AVX2 kernels may be
/// compiled out entirely with -DCANIDS_ENABLE_AVX2=OFF).
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// The level the dispatched kernels currently run at: detected_simd_level()
/// lowered by set_simd_level() or the CANIDS_SIMD environment variable
/// (read once, at first use).
[[nodiscard]] SimdLevel active_simd_level() noexcept;

/// Select the kernel level, clamped to detected_simd_level(). A bench/test
/// knob — set it before spawning scoring threads, not concurrently with
/// them.
void set_simd_level(SimdLevel level) noexcept;

}  // namespace canids::util
