// The golden template (§IV.B): per-bit statistics of the entropy vector
// collected over normal-driving windows. The paper averages 35 measurements
// from diverse driving behaviours; per bit it keeps the mean entropy H_temp
// and the observed range max(H_i)-min(H_i) from which the detection
// threshold Th = alpha * range derives. We additionally keep the same
// statistics on the raw bit probabilities, which the malicious-ID inference
// uses (see DESIGN.md, "Design clarifications").
#pragma once

#include <cstdint>
#include <vector>

#include "ids/window.h"

namespace canids::ids {

/// Number of training windows the paper uses. TemplateBuilder::build accepts
/// any count >= 2 but callers reproducing the paper should supply 35.
inline constexpr std::size_t kPaperTrainingWindows = 35;

/// Statistics of the 11 bits of a standard identifier.
struct GoldenTemplate {
  std::size_t training_windows = 0;

  std::vector<double> mean_entropy;       ///< H_temp per bit
  std::vector<double> min_entropy;
  std::vector<double> max_entropy;
  std::vector<double> mean_probability;   ///< p̄_i per bit
  std::vector<double> min_probability;
  std::vector<double> max_probability;
  /// Pairwise co-occurrence statistics q̄_ij (flat upper-triangle order);
  /// empty when training windows carried no pair data. Inference-only.
  std::vector<double> mean_pair_probability;
  std::vector<double> min_pair_probability;
  std::vector<double> max_pair_probability;

  /// max - min of entropy per bit; the paper's threshold base.
  [[nodiscard]] double entropy_range(int bit) const;
  /// max - min of probability per bit; the inference noise base.
  [[nodiscard]] double probability_range(int bit) const;

  [[nodiscard]] bool has_pairs() const noexcept {
    return !mean_pair_probability.empty();
  }

  friend bool operator==(const GoldenTemplate&,
                         const GoldenTemplate&) = default;
};

/// Accumulates training windows into a GoldenTemplate.
class TemplateBuilder {
 public:
  /// Add one normal-driving window. Windows with zero frames are rejected.
  void add_window(const WindowSnapshot& window);

  [[nodiscard]] std::size_t window_count() const noexcept { return windows_; }

  /// Build the template. Requires at least `min_windows` training windows
  /// (>= 2 so ranges are meaningful).
  [[nodiscard]] GoldenTemplate build(std::size_t min_windows = 2) const;

 private:
  static constexpr auto kBits = static_cast<std::size_t>(can::kStdIdBits);
  static constexpr auto kPairs = static_cast<std::size_t>(kPairCount);

  std::size_t windows_ = 0;
  std::size_t windows_with_pairs_ = 0;
  std::vector<double> sum_entropy_ = std::vector<double>(kBits);
  std::vector<double> min_entropy_ = std::vector<double>(kBits);
  std::vector<double> max_entropy_ = std::vector<double>(kBits);
  std::vector<double> sum_probability_ = std::vector<double>(kBits);
  std::vector<double> min_probability_ = std::vector<double>(kBits);
  std::vector<double> max_probability_ = std::vector<double>(kBits);
  std::vector<double> sum_pair_ = std::vector<double>(kPairs);
  std::vector<double> min_pair_ = std::vector<double>(kPairs);
  std::vector<double> max_pair_ = std::vector<double>(kPairs);
};

}  // namespace canids::ids
