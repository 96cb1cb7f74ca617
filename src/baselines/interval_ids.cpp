#include "baselines/interval_ids.h"

#include <algorithm>

#include "util/contracts.h"

namespace canids::baselines {

IntervalIds::IntervalIds(IntervalConfig config) : config_(config) {
  CANIDS_EXPECTS(config_.fast_ratio > 0.0 && config_.fast_ratio < 1.0);
  CANIDS_EXPECTS(config_.violations_to_alert >= 1);
}

IntervalIds::IntervalIds(IntervalConfig config,
                         const std::vector<Period>& periods)
    : IntervalIds(config) {
  for (const auto& [id, mean_interval] : periods) {
    CANIDS_EXPECTS(mean_interval > 0);
    RunState state;
    state.mean_interval = mean_interval;
    const bool distinct = learned_.emplace(id, state).second;
    CANIDS_EXPECTS(distinct);
  }
  trained_ = true;
}

void IntervalIds::train(util::TimeNs timestamp, std::uint32_t id) {
  CANIDS_EXPECTS(!trained_);
  TrainState& state = training_[id];
  if (state.last_seen >= 0 && timestamp > state.last_seen) {
    state.interval_sum += timestamp - state.last_seen;
    ++state.intervals;
  }
  state.last_seen = timestamp;
}

void IntervalIds::finish_training() {
  CANIDS_EXPECTS(!trained_);
  for (const auto& [id, state] : training_) {
    if (state.intervals == 0) continue;  // one sighting: no period known
    RunState run;
    run.mean_interval =
        state.interval_sum / static_cast<std::int64_t>(state.intervals);
    learned_.emplace(id, run);
  }
  training_.clear();
  trained_ = true;
}

IntervalIds::FrameVerdict IntervalIds::observe(util::TimeNs timestamp,
                                               std::uint32_t id) {
  CANIDS_EXPECTS(trained_);
  FrameVerdict verdict;
  const auto it = learned_.find(id);
  if (it == learned_.end()) {
    verdict.known_id = false;
    ++unseen_frames_;
    if (config_.alert_on_unseen) {
      verdict.too_fast = true;
      window_alert_ = true;
    }
    return verdict;
  }
  RunState& state = it->second;
  if (state.last_seen >= 0) {
    const util::TimeNs interval = timestamp - state.last_seen;
    const auto fast_bound = static_cast<util::TimeNs>(
        config_.fast_ratio * static_cast<double>(state.mean_interval));
    if (interval < fast_bound) {
      verdict.too_fast = true;
      ++state.window_violations;
      if (state.window_violations > window_peak_violations_) {
        window_peak_violations_ = state.window_violations;
      }
      if (state.window_violations >= config_.violations_to_alert) {
        window_alert_ = true;
      }
    }
  }
  state.last_seen = timestamp;
  return verdict;
}

bool IntervalIds::window_alert_and_reset() {
  const bool alert = window_alert_;
  window_alert_ = false;
  window_peak_violations_ = 0;
  for (auto& [id, state] : learned_) state.window_violations = 0;
  return alert;
}

std::vector<IntervalIds::Period> IntervalIds::periods() const {
  std::vector<Period> rows;
  rows.reserve(learned_.size());
  for (const auto& [id, state] : learned_) {
    rows.emplace_back(id, state.mean_interval);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::size_t IntervalIds::state_bytes() const noexcept {
  return learned_.size() * (sizeof(std::uint32_t) + sizeof(RunState));
}

}  // namespace canids::baselines
