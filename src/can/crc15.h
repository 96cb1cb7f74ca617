// CRC-15/CAN as specified by ISO 11898-1: polynomial
// x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1 (0x4599), init 0,
// no reflection, no final XOR. The CRC is computed over the unstuffed bit
// sequence from SOF through the last data bit.
#pragma once

#include <cstdint>

namespace canids::can {

inline constexpr std::uint16_t kCrc15Polynomial = 0x4599;
inline constexpr std::uint16_t kCrc15Mask = 0x7FFF;

/// Incremental CRC-15 register (bit-at-a-time, as the hardware shifts).
class Crc15 {
 public:
  /// Shift in a single bit (MSB-first order on the wire).
  constexpr void push_bit(bool bit) noexcept {
    const bool crc_msb = (reg_ & 0x4000) != 0;
    reg_ = static_cast<std::uint16_t>((reg_ << 1) & kCrc15Mask);
    if (bit != crc_msb) reg_ ^= kCrc15Polynomial;
  }

  [[nodiscard]] constexpr std::uint16_t value() const noexcept { return reg_; }

  constexpr void reset() noexcept { reg_ = 0; }

 private:
  std::uint16_t reg_ = 0;
};

}  // namespace canids::can
