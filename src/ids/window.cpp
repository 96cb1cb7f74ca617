#include "ids/window.h"

#include "util/contracts.h"

namespace canids::ids {

WindowAccumulator::WindowAccumulator(WindowConfig config)
    : config_(config), clock_(config.duration) {
  CANIDS_EXPECTS(config_.duration > 0);
}

WindowSnapshot WindowAccumulator::snapshot(util::TimeNs start,
                                           util::TimeNs end) const {
  WindowSnapshot snap;
  snap.start = start;
  snap.end = end;
  snap.frames = counters_.total();
  counters_.marginals().snapshot_into(snap.probabilities, snap.entropies);
  if (config_.track_pairs) {
    snap.pair_probabilities = counters_.pair_probabilities();
  }
  return snap;
}

std::optional<WindowSnapshot> WindowAccumulator::add(util::TimeNs timestamp,
                                                     const can::CanId& id) {
  std::optional<WindowSnapshot> emitted = advance(timestamp);
  if (id.is_extended()) {
    ++dropped_;
  } else {
    count_one(id);
  }
  return emitted;
}

void WindowAccumulator::add_batch(const can::TimedId* frames,
                                  std::size_t count,
                                  std::vector<WindowSnapshot>& out) {
  std::size_t i = 0;
  while (i < count) {
    if (!clock_.started()) clock_.restart(frames[i].timestamp);
    // The longest prefix that stays inside the open window; everything in
    // it lands in one block-counted add_batch call.
    const util::TimeNs boundary = clock_.start() + config_.duration;
    std::size_t j = i;
    while (j < count && frames[j].timestamp < boundary) ++j;
    if (j > i) {
      scratch_ids_.clear();
      scratch_ids_.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) {
        if (frames[k].id.is_extended()) {
          ++dropped_;
        } else {
          scratch_ids_.push_back(frames[k].id.raw());
        }
      }
      counters_.add_batch(scratch_ids_.data(), scratch_ids_.size(),
                          config_.track_pairs);
      last_timestamp_ = frames[j - 1].timestamp;
      i = j;
    }
    if (i < count) {
      // frames[i] reaches the boundary: close (and possibly skip silent)
      // windows exactly like the per-frame path, then loop — the frame
      // itself is counted in the freshly opened window.
      if (auto snap = advance(frames[i].timestamp)) {
        out.push_back(std::move(*snap));
      }
    }
  }
}

std::optional<WindowSnapshot> WindowAccumulator::advance(
    util::TimeNs timestamp) {
  std::optional<WindowSnapshot> emitted;
  if (const auto end = clock_.advance(timestamp)) {
    if (counters_.total() > 0) {
      emitted = snapshot(*end - config_.duration, *end);
    }
    counters_.reset();
  }
  last_timestamp_ = timestamp;
  return emitted;
}

std::optional<WindowSnapshot> WindowAccumulator::flush() {
  if (counters_.total() == 0) return std::nullopt;
  const WindowSnapshot snap = snapshot(clock_.start(), last_timestamp_);
  counters_.reset();
  clock_.restart(last_timestamp_);
  return snap;
}

std::vector<WindowSnapshot> windows_of(
    const std::vector<can::TimedFrame>& frames, const WindowConfig& config) {
  WindowAccumulator acc(config);
  std::vector<WindowSnapshot> out;
  for (const can::TimedFrame& tf : frames) {
    if (auto snap = acc.add(tf.timestamp, tf.frame.id())) {
      out.push_back(std::move(*snap));
    }
  }
  if (auto snap = acc.flush()) out.push_back(std::move(*snap));
  return out;
}

}  // namespace canids::ids
