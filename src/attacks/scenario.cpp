#include "attacks/scenario.h"

#include <algorithm>

#include "can/bus.h"
#include "util/contracts.h"

namespace canids::attacks {

AttackNode::AttackNode(std::string name, AttackConfig config,
                       std::size_t queue_capacity,
                       can::OverflowPolicy overflow)
    : can::Node(std::move(name), queue_capacity, overflow), config_(config) {
  CANIDS_EXPECTS(config_.dlc <= can::kMaxDataBytes);
  CANIDS_EXPECTS(config_.start < config_.stop);
}

void AttackNode::bind(can::BusSimulator& bus) { (void)bus; }

void AttackNode::note_id(std::uint32_t id) {
  const auto it = std::lower_bound(ids_used_.begin(), ids_used_.end(), id);
  if (it == ids_used_.end() || *it != id) ids_used_.insert(it, id);
}

InjectionNode::InjectionNode(std::string name, AttackConfig config,
                             IdSelector selector, util::Rng rng)
    : AttackNode(std::move(name), config),
      selector_(std::move(selector)),
      rng_(rng),
      next_due_(config.start) {
  CANIDS_EXPECTS(config_.frequency_hz > 0.0);
  CANIDS_EXPECTS(selector_ != nullptr);
  period_ = static_cast<util::TimeNs>(
      static_cast<double>(util::kSecond) / config_.frequency_hz);
  CANIDS_EXPECTS(period_ > 0);
}

void InjectionNode::produce(util::TimeNs now) {
  while (next_due_ <= now && next_due_ < config_.stop) {
    const can::CanId id = selector_(sequence_);
    std::array<std::uint8_t, can::kMaxDataBytes> payload{};
    for (std::size_t b = 0; b < config_.dlc; ++b) {
      payload[b] = static_cast<std::uint8_t>(rng_.below(256));
    }
    submit(can::Frame::data_frame(
        id, std::span<const std::uint8_t>(payload.data(), config_.dlc)));
    note_id(id.raw());

    ++sequence_;
    next_due_ += period_;
  }
}

util::TimeNs InjectionNode::next_production_time() const {
  return next_due_ < config_.stop ? next_due_ : util::kNever;
}

ReplayNode::ReplayNode(std::string name, AttackConfig config)
    : AttackNode(std::move(name), config, /*queue_capacity=*/64,
                 can::OverflowPolicy::kDropNewest) {
  // An attack starting at 0 has no recording phase and replays silence.
  CANIDS_EXPECTS(config_.start > 0);
}

void ReplayNode::on_bus_frame(const can::TimedFrame& frame) {
  // Record only the pre-attack traffic; everything delivered from `start`
  // on (including our own replayed frames) stays out of the recording.
  if (frame.timestamp < config_.start) {
    recording_.emplace_back(frame.timestamp, frame.frame);
  }
}

util::TimeNs ReplayNode::due_time() const noexcept {
  // Loop L maps a frame recorded at t in [0, start) to
  // (L + 1) * start + t: the first pass starts at `start`, gaps inside a
  // pass are the recorded inter-arrival gaps, and each pass spans exactly
  // the recording interval.
  return static_cast<util::TimeNs>(loop_ + 1) * config_.start +
         recording_[cursor_].first;
}

void ReplayNode::produce(util::TimeNs now) {
  // Once the attack window opens the recording is whatever was captured;
  // an empty one must report kNever below or an idle bus would spin on a
  // stale next_production_time() forever.
  if (now >= config_.start) recording_closed_ = true;
  if (recording_.empty()) return;
  while (true) {
    const util::TimeNs due = due_time();
    if (due > now || due >= config_.stop) break;
    submit(recording_[cursor_].second);
    note_id(recording_[cursor_].second.id().raw());
    if (++cursor_ == recording_.size()) {
      cursor_ = 0;
      ++loop_;
    }
  }
}

util::TimeNs ReplayNode::next_production_time() const {
  if (recording_.empty()) {
    // Still recording: wake at `start` (one no-op produce() if the
    // lead-in turned out silent). A closed empty recording replays
    // nothing, ever.
    return recording_closed_ ? util::kNever : config_.start;
  }
  const util::TimeNs due = due_time();
  return due < config_.stop ? due : util::kNever;
}

EcuSuspendNode::EcuSuspendNode(std::string name, AttackConfig config,
                               std::string victim_node)
    : AttackNode(std::move(name), config),
      victim_node_(std::move(victim_node)) {
  CANIDS_EXPECTS(!victim_node_.empty());
}

void EcuSuspendNode::bind(can::BusSimulator& bus) {
  const int index = bus.find_node(victim_node_);
  CANIDS_EXPECTS(index >= 0 && "suspend victim is not attached to the bus");
  victim_ = &bus.node(index);
}

void EcuSuspendNode::produce(util::TimeNs now) {
  if (suspended_ || now < config_.start) return;
  CANIDS_EXPECTS(victim_ != nullptr &&
                 "suspend attacker was never bound (use attach_attack)");
  victim_->set_disabled(true);
  suspended_ = true;
}

util::TimeNs EcuSuspendNode::next_production_time() const {
  return suspended_ ? util::kNever : config_.start;
}

MasqueradeNode::MasqueradeNode(std::string name, AttackConfig config,
                               std::string victim_node,
                               can::MessageSpec target, util::Rng rng)
    : EcuSuspendNode(std::move(name), config, std::move(victim_node)),
      target_(target),
      rng_(rng) {
  CANIDS_EXPECTS(target_.period > 0);
  CANIDS_EXPECTS(target_.dlc <= can::kMaxDataBytes);
}

void MasqueradeNode::on_bus_frame(const can::TimedFrame& frame) {
  // Track the victim's cadence so the first forged frame continues it.
  if (frame.timestamp < config_.start &&
      frame.frame.id().raw() == target_.id.raw()) {
    last_seen_ = frame.timestamp;
  }
}

void MasqueradeNode::produce(util::TimeNs now) {
  EcuSuspendNode::produce(now);  // silence the victim at `start`
  if (now < config_.start) return;
  if (!forging_) {
    forging_ = true;
    next_due_ = last_seen_ >= 0
                    ? std::max(last_seen_ + target_.period, config_.start)
                    : config_.start;
  }
  while (next_due_ <= now && next_due_ < config_.stop) {
    std::array<std::uint8_t, can::kMaxDataBytes> payload{};
    for (std::size_t b = 0; b < target_.dlc; ++b) {
      payload[b] = static_cast<std::uint8_t>(rng_.below(256));
    }
    submit(can::Frame::data_frame(
        target_.id, std::span<const std::uint8_t>(payload.data(),
                                                  target_.dlc)));
    note_id(target_.id.raw());
    next_due_ += target_.period;
  }
}

util::TimeNs MasqueradeNode::next_production_time() const {
  if (!forging_) return config_.start;
  return next_due_ < config_.stop ? next_due_ : util::kNever;
}

namespace {

const ScenarioTraits& traits_of(ScenarioKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  static constexpr ScenarioTraits kUnknown{ScenarioKind::kScenarioKindCount_,
                                           "unknown", "unknown", 0, false};
  return index < kScenarioTraits.size() ? kScenarioTraits[index] : kUnknown;
}

}  // namespace

std::string_view scenario_name(ScenarioKind kind) noexcept {
  return traits_of(kind).name;
}

std::string_view scenario_token(ScenarioKind kind) noexcept {
  return traits_of(kind).token;
}

bool scenario_inferable(ScenarioKind kind) noexcept {
  return traits_of(kind).inferable;
}

AttachedAttack attach_attack(can::BusSimulator& bus, BuiltAttack& attack) {
  CANIDS_EXPECTS(attack.node != nullptr);
  AttackNode* node = attack.node.get();
  const int index = bus.add_node(std::move(attack.node));
  node->bind(bus);
  return AttachedAttack{node, index};
}

BuiltAttack make_scenario(ScenarioKind kind,
                          const trace::SyntheticVehicle& vehicle,
                          const AttackConfig& config, util::Rng rng) {
  const std::vector<std::uint32_t>& pool = vehicle.id_pool();
  CANIDS_EXPECTS(!pool.empty());

  auto pick_distinct = [&rng, &pool](int count) {
    std::vector<std::uint32_t> picked;
    while (static_cast<int>(picked.size()) < count) {
      const std::uint32_t id = pool[rng.below(pool.size())];
      if (std::find(picked.begin(), picked.end(), id) == picked.end()) {
        picked.push_back(id);
      }
    }
    return picked;
  };

  // Compromise one of the vehicle's ECUs (weak/suspend/masquerade).
  auto pick_ecu = [&rng, &vehicle] {
    return static_cast<std::size_t>(rng.below(vehicle.ecus().size()));
  };

  switch (kind) {
    case ScenarioKind::kFlood:
      return make_flooding_attack(config, rng);
    case ScenarioKind::kSingle:
      return make_single_id_attack(config, pick_distinct(1).front(), rng);
    case ScenarioKind::kMulti2:
      return make_multi_id_attack(config, pick_distinct(2), rng);
    case ScenarioKind::kMulti3:
      return make_multi_id_attack(config, pick_distinct(3), rng);
    case ScenarioKind::kMulti4:
      return make_multi_id_attack(config, pick_distinct(4), rng);
    case ScenarioKind::kWeak: {
      // Compromise one ECU; abuse two of its legal IDs (whatever the
      // filter lets through — the attacker has no choice of other IDs).
      const std::size_t ecu_index = pick_ecu();
      std::vector<std::uint32_t> legal = vehicle.ids_of_ecu(ecu_index);
      CANIDS_EXPECTS(!legal.empty());
      std::vector<std::uint32_t> ids;
      const int use = std::min<int>(2, static_cast<int>(legal.size()));
      while (static_cast<int>(ids.size()) < use) {
        const std::uint32_t id = legal[rng.below(legal.size())];
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      return make_weak_attack(config, std::move(legal), std::move(ids), rng);
    }
    case ScenarioKind::kReplay:
      return make_replay_attack(config);
    case ScenarioKind::kSuspend: {
      const std::size_t ecu_index = pick_ecu();
      return make_suspend_attack(config, vehicle.ecus()[ecu_index].name,
                                 vehicle.ids_of_ecu(ecu_index));
    }
    case ScenarioKind::kFuzzing:
      return make_fuzzing_attack(config, rng);
    case ScenarioKind::kMasquerade: {
      const std::size_t ecu_index = pick_ecu();
      const trace::EcuDescriptor& ecu = vehicle.ecus()[ecu_index];
      CANIDS_EXPECTS(!ecu.messages.empty());
      // Impersonate the victim's highest-rate periodic message: the one
      // whose absence would be most visible, hence the one a masquerade
      // attacker must keep alive.
      const can::MessageSpec* target = &ecu.messages.front();
      for (const can::MessageSpec& spec : ecu.messages) {
        if (spec.period < target->period) target = &spec;
      }
      return make_masquerade_attack(config, ecu.name,
                                    vehicle.ids_of_ecu(ecu_index), *target,
                                    rng);
    }
    case ScenarioKind::kScenarioKindCount_:
      break;
  }
  CANIDS_EXPECTS(false && "unreachable scenario kind");
  return {};
}

}  // namespace canids::attacks
