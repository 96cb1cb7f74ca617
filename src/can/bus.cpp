#include "can/bus.h"

#include <algorithm>

#include "util/contracts.h"

namespace canids::can {

BusSimulator::BusSimulator(BusConfig config) : config_(config) {
  CANIDS_EXPECTS(config_.bitrate_bps > 0);
  CANIDS_EXPECTS(config_.interframe_bits >= 0);
  CANIDS_EXPECTS(config_.retry_delay_bits >= 0);
  bit_time_ = util::kSecond / static_cast<std::int64_t>(config_.bitrate_bps);
}

int BusSimulator::add_node(std::unique_ptr<Node> node) {
  CANIDS_EXPECTS(node != nullptr);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

Node& BusSimulator::node(int index) {
  CANIDS_EXPECTS(index >= 0 && static_cast<std::size_t>(index) < nodes_.size());
  return *nodes_[static_cast<std::size_t>(index)];
}

int BusSimulator::find_node(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

void BusSimulator::add_listener(std::function<void(const TimedFrame&)> listener) {
  CANIDS_EXPECTS(listener != nullptr);
  listeners_.push_back(std::move(listener));
}

std::vector<int> BusSimulator::eligible_contenders() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = *nodes_[i];
    if (!n.disabled() && n.has_pending() && n.retry_not_before() <= now_) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

util::TimeNs BusSimulator::next_activity_time() const {
  util::TimeNs earliest = util::kNever;
  for (const auto& node : nodes_) {
    if (node->disabled()) continue;
    earliest = std::min(earliest, node->next_production_time());
    if (node->has_pending()) {
      earliest = std::min(earliest, node->retry_not_before());
    }
  }
  return earliest;
}

void BusSimulator::deliver(const TimedFrame& frame) {
  for (const auto& listener : listeners_) listener(frame);
  for (const auto& node : nodes_) node->on_bus_frame(frame);
}

void BusSimulator::run_until(util::TimeNs end) {
  CANIDS_EXPECTS(end >= now_);
  const util::TimeNs start = now_;

  while (now_ < end) {
    for (const auto& node : nodes_) {
      if (!node->disabled()) node->produce(now_);
    }

    const std::vector<int> contenders = eligible_contenders();
    if (contenders.empty()) {
      const util::TimeNs next = next_activity_time();
      if (next == util::kNever || next >= end) {
        now_ = end;
        break;
      }
      now_ = std::max(now_, next);
      continue;
    }

    // --- Arbitration round -------------------------------------------------
    std::vector<Frame> heads;
    heads.reserve(contenders.size());
    for (int idx : contenders) heads.push_back(node(idx).head());

    const ArbitrationResult result =
        arbitrate(std::span<const Frame>(heads.data(), heads.size()));
    ++stats_.arbitration_rounds;
    if (contenders.size() > 1) ++stats_.contested_rounds;

    const int winner_index = contenders[result.winner];
    Node& winner = node(winner_index);

    for (std::size_t c = 0; c < contenders.size(); ++c) {
      node(contenders[c]).stats().arbitration_attempts += 1;
    }
    winner.stats().arbitration_wins += 1;
    for (std::size_t tied : result.tied_with_winner) {
      ++stats_.collisions;
      node(contenders[tied]).stats().collisions += 1;
      winner.stats().collisions += 1;
    }

    const Frame frame = winner.head();

    const util::TimeNs duration = transmit_duration(frame, config_.bitrate_bps);

    winner.pop_head();
    const util::TimeNs t_end = now_ + duration;
    stats_.busy_time += duration;
    ++stats_.frames_transmitted;
    winner.stats().transmitted += 1;

    // Losers back off per config before re-entering contention.
    const util::TimeNs retry_at =
        t_end + static_cast<std::int64_t>(config_.retry_delay_bits) * bit_time_;
    for (std::size_t c = 0; c < contenders.size(); ++c) {
      if (contenders[c] == winner_index) continue;
      node(contenders[c]).set_retry_not_before(retry_at);
    }

    deliver(TimedFrame{t_end, frame, winner_index});

    now_ = t_end +
           static_cast<std::int64_t>(config_.interframe_bits) * bit_time_;
  }

  stats_.observed_time += now_ - start;
}

}  // namespace canids::can
