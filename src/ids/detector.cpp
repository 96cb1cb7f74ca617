#include "ids/detector.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace canids::ids {

Detector::Detector(std::shared_ptr<const GoldenTemplate> golden,
                   DetectorConfig config)
    : golden_(std::move(golden)), config_(config) {
  CANIDS_EXPECTS(golden_ != nullptr);
  CANIDS_EXPECTS(config_.alpha > 0.0);
  CANIDS_EXPECTS(config_.min_threshold >= 0.0);
  CANIDS_EXPECTS(golden_->width > 0);
  CANIDS_EXPECTS(golden_->mean_entropy.size() ==
                 static_cast<std::size_t>(golden_->width));

  thresholds_.resize(static_cast<std::size_t>(golden_->width));
  for (int i = 0; i < golden_->width; ++i) {
    thresholds_[static_cast<std::size_t>(i)] =
        std::max(config_.alpha * golden_->entropy_range(i),
                 config_.min_threshold);
  }
}

DetectionResult Detector::evaluate(const WindowSnapshot& window) const {
  const GoldenTemplate& golden = *golden_;
  CANIDS_EXPECTS(window.width() == golden.width);

  DetectionResult result;
  result.window_start = window.start;
  result.window_end = window.end;
  result.frames = window.frames;

  if (window.frames < config_.min_window_frames) {
    return result;  // not evaluated
  }
  result.evaluated = true;

  result.bits.reserve(static_cast<std::size_t>(golden.width));
  for (int i = 0; i < golden.width; ++i) {
    const auto b = static_cast<std::size_t>(i);
    BitDeviation dev;
    dev.bit = i;
    dev.observed_entropy = window.entropies[b];
    dev.template_entropy = golden.mean_entropy[b];
    dev.delta_entropy = dev.observed_entropy - dev.template_entropy;
    dev.deviation = std::abs(dev.delta_entropy);
    dev.threshold = thresholds_[b];
    const bool beyond = dev.deviation > dev.threshold;
    switch (config_.tails) {
      case AlertTails::kBoth:
        dev.alerted = beyond;
        break;
      case AlertTails::kBelow:
        dev.alerted = beyond && dev.delta_entropy < 0.0;
        break;
      case AlertTails::kAbove:
        dev.alerted = beyond && dev.delta_entropy > 0.0;
        break;
    }
    dev.delta_probability =
        window.probabilities[b] - golden.mean_probability[b];
    if (dev.alerted) {
      result.alert = true;
      result.alerted_bits.push_back(i);
    }
    result.bits.push_back(dev);
  }
  return result;
}

}  // namespace canids::ids
