#include "util/rng.h"

#include "util/contracts.h"

namespace canids::util {

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Classic unbiased rejection: discard draws below 2^64 mod bound. The
  // rejection probability is < bound / 2^64, negligible for our bounds.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t x = (*this)();
    if (x >= threshold) return x % bound;
  }
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  // 53 random mantissa bits -> uniform in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

Rng Rng::fork() noexcept {
  Rng child(0);
  std::uint64_t sm = (*this)();
  for (auto& word : child.state_) word = splitmix64(sm);
  return child;
}

}  // namespace canids::util
