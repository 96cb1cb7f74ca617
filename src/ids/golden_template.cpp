#include "ids/golden_template.h"

#include <algorithm>
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

void TemplateBuilder::add_window(const WindowSnapshot& window) {
  CANIDS_EXPECTS(window.width() == can::kStdIdBits);
  CANIDS_EXPECTS(window.frames > 0);
  for (std::size_t b = 0; b < kBits; ++b) {
    const double h = window.entropies[b];
    const double p = window.probabilities[b];
    if (windows_ == 0) {
      min_entropy_[b] = max_entropy_[b] = h;
      min_probability_[b] = max_probability_[b] = p;
    } else {
      min_entropy_[b] = std::min(min_entropy_[b], h);
      max_entropy_[b] = std::max(max_entropy_[b], h);
      min_probability_[b] = std::min(min_probability_[b], p);
      max_probability_[b] = std::max(max_probability_[b], p);
    }
    sum_entropy_[b] += h;
    sum_probability_[b] += p;
  }
  if (window.has_pairs()) {
    CANIDS_EXPECTS(window.pair_probabilities.size() == kPairs);
    for (std::size_t idx = 0; idx < kPairs; ++idx) {
      const double q = window.pair_probabilities[idx];
      if (windows_with_pairs_ == 0) {
        min_pair_[idx] = max_pair_[idx] = q;
      } else {
        min_pair_[idx] = std::min(min_pair_[idx], q);
        max_pair_[idx] = std::max(max_pair_[idx], q);
      }
      sum_pair_[idx] += q;
    }
    ++windows_with_pairs_;
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
  GoldenTemplate tpl;
  tpl.training_windows = windows_;
  tpl.mean_entropy.resize(kBits);
  tpl.mean_probability.resize(kBits);
  for (std::size_t b = 0; b < kBits; ++b) {
    tpl.mean_entropy[b] = sum_entropy_[b] / static_cast<double>(windows_);
    tpl.mean_probability[b] =
        sum_probability_[b] / static_cast<double>(windows_);
  }
  tpl.min_entropy = min_entropy_;
  tpl.max_entropy = max_entropy_;
  tpl.min_probability = min_probability_;
  tpl.max_probability = max_probability_;
  // Pair statistics are only meaningful when every window supplied them.
  if (windows_with_pairs_ == windows_ && windows_with_pairs_ > 0) {
    tpl.mean_pair_probability.resize(kPairs);
    for (std::size_t idx = 0; idx < kPairs; ++idx) {
      tpl.mean_pair_probability[idx] =
          sum_pair_[idx] / static_cast<double>(windows_);
    }
    tpl.min_pair_probability = min_pair_;
    tpl.max_pair_probability = max_pair_;
  }
  return tpl;
}

}  // namespace canids::ids
