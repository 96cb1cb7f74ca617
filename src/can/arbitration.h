// Bitwise CAN arbitration. When several nodes start transmitting in the same
// bit slot, each transmits its arbitration field (ID + RTR, plus SRR/IDE for
// extended frames) bit by bit; a node that sends recessive (1) while the bus
// carries dominant (0) loses and backs off. The entropy IDS exists precisely
// because injected frames must win this contest by choosing dominant ID bits.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "can/bitstream.h"
#include "can/frame.h"

namespace canids::can {

/// The exact bit sequence a frame transmits during arbitration. Standard
/// data frames additionally expose their dominant IDE bit, which is what
/// makes a standard frame beat an extended frame with the same leading
/// 11 ID bits.
[[nodiscard]] BitString arbitration_bits(const Frame& frame);

/// Outcome of one arbitration round.
struct ArbitrationResult {
  /// Index into the contender span of the winning frame.
  std::size_t winner = 0;
  /// For each contender: the bit position at which it lost (transmitted
  /// recessive while the bus was dominant), or nullopt for the winner.
  std::vector<std::optional<std::size_t>> lost_at_bit;
  /// Indices of contenders whose arbitration field equals the winner's.
  /// Non-empty means a protocol-violating tie (counted as a collision by
  /// the bus simulator; the lowest index is kept as winner).
  std::vector<std::size_t> tied_with_winner;
};

/// Run one arbitration round over the contenders. Requires at least one.
[[nodiscard]] ArbitrationResult arbitrate(std::span<const Frame> contenders);

}  // namespace canids::can
