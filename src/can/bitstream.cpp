#include "can/bitstream.h"

#include "can/crc15.h"

namespace canids::can {

namespace {

constexpr bool kDominant = false;
constexpr bool kRecessive = true;

}  // namespace

void BitString::append_bits(std::uint32_t value, int count) {
  CANIDS_EXPECTS(count >= 0 && count <= 32);
  for (int i = count - 1; i >= 0; --i) {
    bits_.push_back(((value >> i) & 1u) != 0);
  }
}

void BitString::append_repeated(bool bit, int count) {
  CANIDS_EXPECTS(count >= 0);
  bits_.insert(bits_.end(), static_cast<std::size_t>(count), bit);
}

std::string BitString::to_string() const {
  std::string out;
  out.reserve(bits_.size());
  for (bool b : bits_) out.push_back(b ? '1' : '0');
  return out;
}

SerializedFrame serialize(const Frame& frame) {
  SerializedFrame out;
  BitString& bits = out.unstuffed;
  FrameLayout& layout = out.layout;

  // --- Start of frame ------------------------------------------------------
  layout.sof_begin = bits.size();
  bits.push_back(kDominant);

  // --- Arbitration field ---------------------------------------------------
  layout.arbitration_begin = bits.size();
  const CanId id = frame.id();
  if (!id.is_extended()) {
    bits.append_bits(id.raw(), kStdIdBits);
    bits.push_back(frame.is_remote() ? kRecessive : kDominant);  // RTR
    // --- Control field: IDE (dominant = standard) + r0 + DLC --------------
    layout.control_begin = bits.size();
    bits.push_back(kDominant);  // IDE
    bits.push_back(kDominant);  // r0
  } else {
    bits.append_bits(id.raw() >> 18, kStdIdBits);  // ID[28..18]
    bits.push_back(kRecessive);                    // SRR
    bits.push_back(kRecessive);                    // IDE (recessive = extended)
    bits.append_bits(id.raw() & 0x3FFFFu, 18);     // ID[17..0]
    bits.push_back(frame.is_remote() ? kRecessive : kDominant);  // RTR
    // --- Control field: r1 + r0 + DLC --------------------------------------
    layout.control_begin = bits.size();
    bits.push_back(kDominant);  // r1
    bits.push_back(kDominant);  // r0
  }
  bits.append_bits(frame.dlc(), 4);

  // --- Data field -----------------------------------------------------------
  layout.data_begin = bits.size();
  for (std::uint8_t byte : frame.payload()) {
    bits.append_bits(byte, 8);
  }

  // --- CRC sequence over SOF..data -----------------------------------------
  Crc15 crc;
  for (std::size_t i = 0; i < bits.size(); ++i) crc.push_bit(bits[i]);
  out.crc = crc.value();
  layout.crc_begin = bits.size();
  bits.append_bits(out.crc, 15);

  const std::size_t stuffable = bits.size();  // SOF..CRC is the stuff region

  // --- Fixed-form tail -------------------------------------------------------
  layout.crc_delimiter = bits.size();
  bits.push_back(kRecessive);  // CRC delimiter
  layout.ack_slot = bits.size();
  bits.push_back(kDominant);  // ACK slot (assume acknowledged)
  layout.ack_delimiter = bits.size();
  bits.push_back(kRecessive);  // ACK delimiter
  layout.eof_begin = bits.size();
  bits.append_repeated(kRecessive, 7);  // EOF
  layout.total_bits = bits.size();

  out.stuffed = stuff(bits, stuffable);
  out.stuff_bits_inserted =
      static_cast<int>(out.stuffed.size() - bits.size());
  return out;
}

BitString stuff(const BitString& raw, std::size_t stuffable_bits) {
  CANIDS_EXPECTS(stuffable_bits <= raw.size());
  BitString out;
  int run = 0;
  bool run_bit = kRecessive;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const bool bit = raw[i];
    out.push_back(bit);
    if (i >= stuffable_bits) continue;  // tail is never stuffed
    if (run > 0 && bit == run_bit) {
      ++run;
    } else {
      run = 1;
      run_bit = bit;
    }
    if (run == 5) {
      const bool stuffed_bit = !run_bit;
      out.push_back(stuffed_bit);
      // The stuff bit starts a new run of length 1.
      run = 1;
      run_bit = stuffed_bit;
    }
  }
  return out;
}

std::size_t wire_bit_length(const Frame& frame) {
  return serialize(frame).stuffed.size();
}

util::TimeNs transmit_duration(const Frame& frame, std::uint32_t bitrate_bps) {
  CANIDS_EXPECTS(bitrate_bps > 0);
  const auto bits = static_cast<std::int64_t>(wire_bit_length(frame));
  return bits * util::kSecond / static_cast<std::int64_t>(bitrate_bps);
}

}  // namespace canids::can
