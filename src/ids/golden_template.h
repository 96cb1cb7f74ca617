// The golden template (§IV.B): per-bit statistics of the entropy vector
// collected over normal-driving windows. The paper averages 35 measurements
// from diverse driving behaviours; per bit it keeps the mean entropy H_temp
// and the observed range max(H_i)-min(H_i) from which the detection
// threshold Th = alpha * range derives. We additionally keep the same
// statistics on the raw bit probabilities, which the malicious-ID inference
// uses: an injection shifts p_i linearly in the injected traffic share,
// which H_b(p_i) does not (see ids/inference.h).
#pragma once

#include <cstdint>
#include <type_traits>

#include "ids/window.h"

namespace canids::ids {

/// Number of training windows the paper uses. TemplateBuilder::build accepts
/// any count >= 2 but callers reproducing the paper should supply 35.
inline constexpr std::size_t kPaperTrainingWindows = 35;

/// Statistics of the 11 bits of a standard identifier. A plain value.
struct GoldenTemplate {
  std::size_t training_windows = 0;

  BitValues mean_entropy{};      ///< H_temp per bit
  BitValues min_entropy{};
  BitValues max_entropy{};
  BitValues mean_probability{};  ///< p̄_i per bit
  BitValues min_probability{};
  BitValues max_probability{};
  /// Whether every training window carried pair data, and so whether the
  /// three pair arrays below hold statistics (zeros otherwise).
  bool has_pairs = false;
  /// Pairwise co-occurrence statistics q̄_ij (flat upper-triangle order).
  /// Inference-only.
  PairValues mean_pair_probability{};
  PairValues min_pair_probability{};
  PairValues max_pair_probability{};

  /// max - min of entropy per bit; the paper's threshold base.
  [[nodiscard]] double entropy_range(int bit) const;
  /// max - min of probability per bit; the inference noise base.
  [[nodiscard]] double probability_range(int bit) const;

  friend bool operator==(const GoldenTemplate&,
                         const GoldenTemplate&) = default;
};
static_assert(std::is_trivially_copyable_v<GoldenTemplate>);

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
  std::size_t windows_ = 0;
  /// Cleared by the first window without pair data: pair statistics are
  /// only meaningful when every window supplied them.
  bool pairs_in_every_window_ = true;
  BitValues sum_entropy_{};
  BitValues min_entropy_{};
  BitValues max_entropy_{};
  BitValues sum_probability_{};
  BitValues min_probability_{};
  BitValues max_probability_{};
  PairValues sum_pair_{};
  PairValues min_pair_{};
  PairValues max_pair_{};
};

}  // namespace canids::ids
