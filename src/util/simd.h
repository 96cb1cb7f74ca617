// The counting kernel a build runs, for host records. There is one on
// every CPU: the portable integer loop in ids/bit_counters.h.
#pragma once

#include <cstdint>

namespace canids::util {

enum class SimdLevel : std::uint8_t { kScalar };

[[nodiscard]] constexpr const char* simd_level_name(SimdLevel) noexcept {
  return "scalar";
}

[[nodiscard]] constexpr SimdLevel detected_simd_level() noexcept {
  return SimdLevel::kScalar;
}

}  // namespace canids::util
