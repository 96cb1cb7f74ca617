#include "ids/golden_template.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "util/contracts.h"

namespace canids::ids {

double GoldenTemplate::entropy_range(int bit) const {
  CANIDS_EXPECTS(bit >= 0 && bit < can::kStdIdBits);
  return max_entropy[static_cast<std::size_t>(bit)] -
         min_entropy[static_cast<std::size_t>(bit)];
}

double GoldenTemplate::probability_range(int bit) const {
  CANIDS_EXPECTS(bit >= 0 && bit < can::kStdIdBits);
  return max_probability[static_cast<std::size_t>(bit)] -
         min_probability[static_cast<std::size_t>(bit)];
}

namespace {

/// Fold one window's values into running sums and bounds; the first
/// window seeds the bounds.
template <std::size_t N>
void fold(const std::array<double, N>& values, bool first,
          std::array<double, N>& sum, std::array<double, N>& lo,
          std::array<double, N>& hi) {
  for (std::size_t i = 0; i < N; ++i) {
    lo[i] = first ? values[i] : std::min(lo[i], values[i]);
    hi[i] = first ? values[i] : std::max(hi[i], values[i]);
    sum[i] += values[i];
  }
}

}  // namespace

void TemplateBuilder::add_window(const WindowSnapshot& window) {
  CANIDS_EXPECTS(window.frames > 0);
  const bool first = windows_ == 0;
  fold(window.entropies, first, sum_entropy_, min_entropy_, max_entropy_);
  fold(window.probabilities, first, sum_probability_, min_probability_,
       max_probability_);
  if (!window.pair_probabilities) {
    pairs_in_every_window_ = false;
  } else if (pairs_in_every_window_) {
    fold(*window.pair_probabilities, first, sum_pair_, min_pair_, max_pair_);
  }
  ++windows_;
}

GoldenTemplate TemplateBuilder::build(std::size_t min_windows) const {
  CANIDS_EXPECTS(min_windows >= 2);
  if (windows_ < min_windows) {
    throw std::runtime_error(
        "golden template needs at least " + std::to_string(min_windows) +
        " training windows, got " + std::to_string(windows_));
  }
  const auto windows = static_cast<double>(windows_);
  GoldenTemplate tpl;
  tpl.training_windows = windows_;
  for (std::size_t b = 0; b < sum_entropy_.size(); ++b) {
    tpl.mean_entropy[b] = sum_entropy_[b] / windows;
    tpl.mean_probability[b] = sum_probability_[b] / windows;
  }
  tpl.min_entropy = min_entropy_;
  tpl.max_entropy = max_entropy_;
  tpl.min_probability = min_probability_;
  tpl.max_probability = max_probability_;
  tpl.has_pairs = pairs_in_every_window_;
  if (tpl.has_pairs) {
    for (std::size_t idx = 0; idx < sum_pair_.size(); ++idx) {
      tpl.mean_pair_probability[idx] = sum_pair_[idx] / windows;
    }
    tpl.min_pair_probability = min_pair_;
    tpl.max_pair_probability = max_pair_;
  }
  return tpl;
}

}  // namespace canids::ids
