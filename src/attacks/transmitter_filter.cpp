#include "attacks/transmitter_filter.h"

#include <algorithm>

namespace canids::attacks {

TransmitterFilter::TransmitterFilter(std::vector<std::uint32_t> allowed)
    : allowed_(std::move(allowed)) {
  std::sort(allowed_.begin(), allowed_.end());
  allowed_.erase(std::unique(allowed_.begin(), allowed_.end()),
                 allowed_.end());
}

bool TransmitterFilter::allows(const can::Frame& frame) const noexcept {
  if (frame.id().is_extended()) return false;  // vehicle uses standard IDs
  return std::binary_search(allowed_.begin(), allowed_.end(),
                            frame.id().raw());
}

std::function<bool(const can::Frame&)> TransmitterFilter::as_predicate()
    const {
  // Copy the filter (a small sorted set) so the predicate outlives it.
  return [filter = *this](const can::Frame& frame) {
    return filter.allows(frame);
  };
}

}  // namespace canids::attacks
