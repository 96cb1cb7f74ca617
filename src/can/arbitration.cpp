#include "can/arbitration.h"

#include <algorithm>

namespace canids::can {

namespace {
constexpr bool kDominant = false;
constexpr bool kRecessive = true;
}  // namespace

BitString arbitration_bits(const Frame& frame) {
  BitString bits;
  const CanId id = frame.id();
  if (!id.is_extended()) {
    bits.append_bits(id.raw(), kStdIdBits);
    bits.push_back(frame.is_remote() ? kRecessive : kDominant);  // RTR
    // The IDE bit is transmitted dominant by standard frames while an
    // extended frame with the same 11 leading bits sends recessive SRR/IDE,
    // so including it captures standard-beats-extended semantics.
    bits.push_back(kDominant);  // IDE
  } else {
    bits.append_bits(id.raw() >> 18, kStdIdBits);
    bits.push_back(kRecessive);  // SRR
    bits.push_back(kRecessive);  // IDE
    bits.append_bits(id.raw() & 0x3FFFFu, 18);
    bits.push_back(frame.is_remote() ? kRecessive : kDominant);  // RTR
  }
  return bits;
}

ArbitrationResult arbitrate(std::span<const Frame> contenders) {
  CANIDS_EXPECTS(!contenders.empty());

  std::vector<BitString> fields;
  fields.reserve(contenders.size());
  std::size_t max_len = 0;
  for (const Frame& f : contenders) {
    fields.push_back(arbitration_bits(f));
    max_len = std::max(max_len, fields.back().size());
  }

  ArbitrationResult result;
  result.lost_at_bit.assign(contenders.size(), std::nullopt);

  std::vector<std::size_t> alive(contenders.size());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;

  for (std::size_t bit = 0; bit < max_len && alive.size() > 1; ++bit) {
    // The bus level is the wired-AND of all transmitters: dominant if any
    // alive contender sends dominant. A contender whose field is exhausted
    // has fully transmitted its arbitration sequence; model its next level
    // as dominant (a data frame's IDE/r0 are dominant), which also gives
    // shorter-field-wins for prefix relationships.
    bool bus_dominant = false;
    for (std::size_t idx : alive) {
      const bool sent = bit < fields[idx].size() ? fields[idx][bit] : kDominant;
      if (sent == kDominant) {
        bus_dominant = true;
        break;
      }
    }
    if (!bus_dominant) continue;  // everyone recessive: no one drops out

    std::vector<std::size_t> still_alive;
    still_alive.reserve(alive.size());
    for (std::size_t idx : alive) {
      const bool sent = bit < fields[idx].size() ? fields[idx][bit] : kDominant;
      if (sent == kRecessive) {
        result.lost_at_bit[idx] = bit;
      } else {
        still_alive.push_back(idx);
      }
    }
    alive = std::move(still_alive);
  }

  // All remaining contenders transmitted identical arbitration fields.
  result.winner = alive.front();
  for (std::size_t i = 1; i < alive.size(); ++i) {
    result.tied_with_winner.push_back(alive[i]);
  }
  return result;
}

}  // namespace canids::can
