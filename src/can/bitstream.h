// Frame serialization to the physical bit sequence (Fig. 1 of the paper),
// including CRC computation and bit stuffing. Used for exact frame timing in
// the bus simulator and for the FIG1 reproduction bench.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "can/frame.h"
#include "util/time.h"

namespace canids::can {

/// A sequence of bus-level bits. true = recessive (logic 1),
/// false = dominant (logic 0), matching the CanId::bit convention.
class BitString {
 public:
  BitString() = default;
  explicit BitString(std::vector<bool> bits) : bits_(std::move(bits)) {}

  void push_back(bool bit) { bits_.push_back(bit); }

  /// Append `count` bits of `value`, MSB-first.
  void append_bits(std::uint32_t value, int count);

  /// Append `count` copies of `bit`.
  void append_repeated(bool bit, int count);

  [[nodiscard]] std::size_t size() const noexcept { return bits_.size(); }
  [[nodiscard]] bool empty() const noexcept { return bits_.empty(); }
  [[nodiscard]] bool operator[](std::size_t i) const { return bits_[i]; }

  [[nodiscard]] const std::vector<bool>& bits() const noexcept { return bits_; }

  /// Render as '0'/'1' characters, MSB (first on the wire) first.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const BitString&, const BitString&) = default;

 private:
  std::vector<bool> bits_;
};

/// Offsets of each field inside the unstuffed serialization, for reporting
/// and tests. All ranges are [begin, end).
struct FrameLayout {
  std::size_t sof_begin = 0;
  std::size_t arbitration_begin = 0;  ///< ID (+ SRR/IDE/18-bit tail) + RTR
  std::size_t control_begin = 0;      ///< IDE/r bits + DLC
  std::size_t data_begin = 0;
  std::size_t crc_begin = 0;          ///< 15 CRC bits
  std::size_t crc_delimiter = 0;
  std::size_t ack_slot = 0;
  std::size_t ack_delimiter = 0;
  std::size_t eof_begin = 0;          ///< 7 recessive bits
  std::size_t total_bits = 0;
};

/// Serialized frame: the unstuffed bits, the stuffed on-wire bits, and the
/// field layout. Stuffing applies from SOF through the end of the CRC
/// sequence; the delimiter/ACK/EOF tail has a fixed form.
struct SerializedFrame {
  BitString unstuffed;
  BitString stuffed;
  FrameLayout layout;
  std::uint16_t crc = 0;
  int stuff_bits_inserted = 0;
};

/// Serialize a frame, computing its CRC and applying bit stuffing.
[[nodiscard]] SerializedFrame serialize(const Frame& frame);

/// Insert a complementary stuff bit after every run of five identical bits.
/// Only the first `stuffable_bits` of the input are subject to stuffing (the
/// tail is copied verbatim), matching CAN's SOF..CRC stuffing region.
[[nodiscard]] BitString stuff(const BitString& raw, std::size_t stuffable_bits);

/// Number of on-wire bits of the frame including stuff bits (SOF..EOF).
[[nodiscard]] std::size_t wire_bit_length(const Frame& frame);

/// Transmission duration at `bitrate_bps` (excluding interframe space).
[[nodiscard]] util::TimeNs transmit_duration(const Frame& frame,
                                             std::uint32_t bitrate_bps);

}  // namespace canids::can
