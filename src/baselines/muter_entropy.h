// Baseline [8]: Müter & Asaj, "Entropy-based anomaly detection for
// in-vehicle networks" (IV 2011), as characterised by the paper's §V.E —
// the identifier is treated as one inseparable symbol and the Shannon
// entropy of the whole ID distribution in a window is compared against a
// learned band. Requires one counter per distinct identifier (memory grows
// with the ID set) and offers no bit-level malicious-ID inference.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "can/frame.h"
#include "util/time.h"

namespace canids::baselines {

/// Shannon entropy (bits/symbol) of an identifier histogram.
[[nodiscard]] double id_distribution_entropy(
    const std::unordered_map<std::uint32_t, std::uint64_t>& counts,
    std::uint64_t total) noexcept;

/// Per-window symbol-level measurement.
struct SymbolWindow {
  util::TimeNs start = 0;
  util::TimeNs end = 0;
  std::uint64_t frames = 0;
  double entropy = 0.0;          ///< H of the ID distribution
  std::size_t distinct_ids = 0;  ///< histogram size = memory driver
};

/// Windowed ID-distribution entropy accumulator (time-based).
class SymbolEntropyAccumulator {
 public:
  explicit SymbolEntropyAccumulator(util::TimeNs window = util::kSecond);

  std::optional<SymbolWindow> add(util::TimeNs timestamp, std::uint32_t id);
  std::optional<SymbolWindow> flush();

  /// Bytes of live histogram state right now (the §V.E storage argument).
  [[nodiscard]] std::size_t state_bytes() const noexcept;

 private:
  [[nodiscard]] SymbolWindow snapshot(util::TimeNs start,
                                      util::TimeNs end) const;

  util::WindowClock clock_;
  util::TimeNs last_timestamp_ = 0;
  std::uint64_t total_ = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> counts_;
};

struct MuterConfig {
  double alpha = 5.0;          ///< same threshold rule as the bit-level IDS
  double min_threshold = 0.01;
  std::uint64_t min_window_frames = 20;
};

/// Trained whole-distribution entropy detector.
class MuterEntropyIds {
 public:
  /// `training` must contain at least two windows.
  MuterEntropyIds(const std::vector<SymbolWindow>& training,
                  MuterConfig config = {});

  /// Restore a trained detector from persisted state (config(),
  /// mean_entropy() and threshold()). Both values must be finite and >= 0.
  MuterEntropyIds(MuterConfig config, double mean_entropy, double threshold);

  struct Result {
    bool evaluated = false;
    bool alert = false;
    double entropy = 0.0;
    double deviation = 0.0;
    double threshold = 0.0;
  };

  [[nodiscard]] Result evaluate(const SymbolWindow& window) const;

  [[nodiscard]] double mean_entropy() const noexcept { return mean_; }
  [[nodiscard]] double threshold() const noexcept { return threshold_; }
  [[nodiscard]] const MuterConfig& config() const noexcept { return config_; }

 private:
  MuterConfig config_;
  double mean_ = 0.0;
  double threshold_ = 0.0;
};

}  // namespace canids::baselines
