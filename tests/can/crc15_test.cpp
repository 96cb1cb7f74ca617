#include "can/crc15.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "util/rng.h"

namespace canids::can {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

/// Shift `count` bits of `value` in MSB-first through push_bit, the one
/// entry point serialize() uses.
void push_msb_first(Crc15& crc, std::uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) crc.push_bit(((value >> i) & 1u) != 0);
}

std::uint16_t crc_of(const std::vector<std::uint8_t>& bytes) {
  Crc15 crc;
  for (std::uint8_t byte : bytes) push_msb_first(crc, byte, 8);
  return crc.value();
}

TEST(Crc15Test, CheckValueForStandardTestVector) {
  // CRC-15/CAN check value: crc("123456789") == 0x059E (reveng catalogue).
  EXPECT_EQ(crc_of(bytes_of("123456789")), 0x059E);
}

TEST(Crc15Test, EmptyInputIsZero) {
  EXPECT_EQ(crc_of({}), 0x0000);
}

TEST(Crc15Test, SingleZeroByteStaysZero) {
  // All-zero input never sets the register with init=0.
  const std::vector<std::uint8_t> zeros(4, 0x00);
  EXPECT_EQ(crc_of(zeros), 0x0000);
}

TEST(Crc15Test, ValueStaysWithin15Bits) {
  util::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(rng.below(16));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_LE(crc_of(data), kCrc15Mask);
  }
}

TEST(Crc15Test, SensitiveToSingleBitFlip) {
  const auto base = bytes_of("hello-can-bus");
  const std::uint16_t reference = crc_of(base);
  for (std::size_t byte = 0; byte < base.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = base;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc_of(mutated), reference)
          << "flip at byte " << byte << " bit " << bit << " undetected";
    }
  }
}

TEST(Crc15Test, ResetRestoresInitialState) {
  Crc15 crc;
  push_msb_first(crc, 0xABCD, 16);
  ASSERT_NE(crc.value(), 0);
  crc.reset();
  EXPECT_EQ(crc.value(), 0);
  crc.push_bit(true);
  Crc15 fresh;
  fresh.push_bit(true);
  EXPECT_EQ(crc.value(), fresh.value());
}

TEST(Crc15Test, LeadingZeroBitsChangeNothingWithZeroInit) {
  // With init=0, leading zero bits leave the register at zero — a known
  // property of this CRC configuration (and why SOF inclusion matters only
  // once payload bits arrive).
  Crc15 with_leading;
  push_msb_first(with_leading, 0x0, 4);
  push_msb_first(with_leading, 0x5A, 8);
  Crc15 without;
  push_msb_first(without, 0x5A, 8);
  EXPECT_EQ(with_leading.value(), without.value());
}

}  // namespace
}  // namespace canids::can
