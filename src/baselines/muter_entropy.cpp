#include "baselines/muter_entropy.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/contracts.h"

namespace canids::baselines {

double id_distribution_entropy(
    const std::unordered_map<std::uint32_t, std::uint64_t>& counts,
    std::uint64_t total) noexcept {
  if (total == 0) return 0.0;
  double entropy = 0.0;
  for (const auto& [id, count] : counts) {
    if (count == 0) continue;
    const double q =
        static_cast<double>(count) / static_cast<double>(total);
    entropy -= q * std::log2(q);
  }
  return entropy;
}

SymbolEntropyAccumulator::SymbolEntropyAccumulator(util::TimeNs window)
    : clock_(window) {
  CANIDS_EXPECTS(window > 0);
}

SymbolWindow SymbolEntropyAccumulator::snapshot(util::TimeNs start,
                                                util::TimeNs end) const {
  SymbolWindow out;
  out.start = start;
  out.end = end;
  out.frames = total_;
  out.entropy = id_distribution_entropy(counts_, total_);
  out.distinct_ids = counts_.size();
  return out;
}

std::optional<SymbolWindow> SymbolEntropyAccumulator::add(
    util::TimeNs timestamp, std::uint32_t id) {
  std::optional<SymbolWindow> emitted;
  if (const auto end = clock_.advance(timestamp)) {
    if (total_ > 0) emitted = snapshot(*end - clock_.duration(), *end);
    counts_.clear();
    total_ = 0;
  }
  ++counts_[id];
  ++total_;
  last_timestamp_ = timestamp;
  return emitted;
}

std::optional<SymbolWindow> SymbolEntropyAccumulator::flush() {
  if (total_ == 0) return std::nullopt;
  const SymbolWindow out = snapshot(clock_.start(), last_timestamp_);
  counts_.clear();
  total_ = 0;
  clock_.restart(last_timestamp_);
  return out;
}

std::size_t SymbolEntropyAccumulator::state_bytes() const noexcept {
  // One bucket per distinct identifier plus the hash-table overhead; we
  // charge only the payload (key + count) to be generous to the baseline.
  return counts_.size() *
             (sizeof(std::uint32_t) + sizeof(std::uint64_t)) +
         sizeof(total_);
}

MuterEntropyIds::MuterEntropyIds(const std::vector<SymbolWindow>& training,
                                 MuterConfig config)
    : config_(config) {
  CANIDS_EXPECTS_MSG(training.size() >= 2,
                     "MuterEntropyIds needs at least 2 training windows to "
                     "learn an entropy band, got " +
                         std::to_string(training.size()) +
                         " — record more clean traffic before training");
  CANIDS_EXPECTS(config_.alpha > 0.0);
  CANIDS_EXPECTS(config_.min_threshold >= 0.0);
  for (std::size_t i = 0; i < training.size(); ++i) {
    const SymbolWindow& w = training[i];
    CANIDS_EXPECTS_MSG(w.frames > 0,
                       "degenerate training window " + std::to_string(i) +
                           " has zero frames — empty windows carry no "
                           "entropy measurement");
    CANIDS_EXPECTS_MSG(
        std::isfinite(w.entropy) && w.entropy >= 0.0,
        "degenerate training window " + std::to_string(i) +
            " has invalid entropy " + std::to_string(w.entropy));
  }
  double sum = 0.0;
  double lo = training.front().entropy;
  double hi = training.front().entropy;
  for (const SymbolWindow& w : training) {
    sum += w.entropy;
    lo = std::min(lo, w.entropy);
    hi = std::max(hi, w.entropy);
  }
  mean_ = sum / static_cast<double>(training.size());
  threshold_ = std::max(config_.alpha * (hi - lo), config_.min_threshold);
}

MuterEntropyIds::MuterEntropyIds(MuterConfig config, double mean_entropy,
                                 double threshold)
    : config_(config), mean_(mean_entropy), threshold_(threshold) {
  CANIDS_EXPECTS(config_.alpha > 0.0);
  CANIDS_EXPECTS(config_.min_threshold >= 0.0);
  CANIDS_EXPECTS_MSG(std::isfinite(mean_) && mean_ >= 0.0,
                     "restored muter model has invalid mean entropy " +
                         std::to_string(mean_));
  CANIDS_EXPECTS_MSG(std::isfinite(threshold_) && threshold_ >= 0.0,
                     "restored muter model has invalid threshold " +
                         std::to_string(threshold_));
}

MuterEntropyIds::Result MuterEntropyIds::evaluate(
    const SymbolWindow& window) const {
  Result result;
  result.entropy = window.entropy;
  if (window.frames < config_.min_window_frames) return result;
  result.evaluated = true;
  result.deviation = std::abs(window.entropy - mean_);
  result.threshold = threshold_;
  result.alert = result.deviation > threshold_;
  return result;
}

}  // namespace canids::baselines
