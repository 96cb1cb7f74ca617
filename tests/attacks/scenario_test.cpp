#include "attacks/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "campaign/spec.h"
#include "can/bus.h"

namespace canids::attacks {
namespace {

using util::kMillisecond;
using util::kSecond;

AttackConfig config_at(double hz) {
  AttackConfig config;
  config.frequency_hz = hz;
  config.start = 0;
  config.stop = util::kNever;
  return config;
}

TEST(InjectionNodeTest, GeneratesAtConfiguredFrequency) {
  auto attack = make_single_id_attack(config_at(100.0), 0x123, util::Rng(1));
  attack.node->produce(kSecond);
  // 100 Hz over [0, 1s]: frames due at 0, 10ms, ..., 1000ms -> 101.
  EXPECT_EQ(attack.node->stats().generated, 101u);
}

TEST(InjectionNodeTest, RespectsStartAndStop) {
  AttackConfig config = config_at(100.0);
  config.start = 500 * kMillisecond;
  config.stop = 600 * kMillisecond;
  auto attack = make_single_id_attack(config, 0x123, util::Rng(1));
  attack.node->produce(400 * kMillisecond);
  EXPECT_EQ(attack.node->stats().generated, 0u);
  attack.node->produce(2 * kSecond);
  // Frames at 500..590 ms -> 10 generated, none at/after stop.
  EXPECT_EQ(attack.node->stats().generated, 10u);
  EXPECT_EQ(attack.node->next_production_time(), util::kNever);
}

TEST(InjectionNodeTest, MailboxDepthOneKeepsLatest) {
  auto attack = make_single_id_attack(config_at(1000.0), 0x123, util::Rng(1));
  attack.node->produce(kSecond);
  // Only one pending mailbox: everything else was overwritten.
  std::size_t pending = 0;
  while (attack.node->has_pending()) {
    attack.node->pop_head();
    ++pending;
  }
  EXPECT_EQ(pending, 1u);
  EXPECT_GT(attack.node->stats().dropped_overflow, 900u);
}

TEST(InjectionNodeTest, RejectsNonPositiveFrequency) {
  EXPECT_THROW(make_single_id_attack(config_at(0.0), 0x123, util::Rng(1)),
               canids::ContractViolation);
}

TEST(SingleAttackTest, UsesExactlyOneId) {
  auto attack = make_single_id_attack(config_at(50.0), 0x2A7, util::Rng(3));
  ASSERT_EQ(attack.planned_ids.size(), 1u);
  EXPECT_EQ(attack.planned_ids[0], 0x2A7u);
  attack.node->produce(kSecond);
  EXPECT_EQ(attack.node->ids_used(), attack.planned_ids);
  EXPECT_EQ(attack.kind, ScenarioKind::kSingle);
}

TEST(FloodAttackTest, UsesManyChangeableHighPriorityIds) {
  auto attack = make_flooding_attack(config_at(500.0), util::Rng(5));
  attack.node->produce(2 * kSecond);
  const auto ids = attack.node->ids_used();
  EXPECT_GT(ids.size(), 20u);  // changeable identifiers
  for (std::uint32_t id : ids) {
    EXPECT_GE(id, 0x001u);  // never the raw zero-flood ID
    EXPECT_LE(id, 0x07Fu);  // high-priority region
  }
  EXPECT_TRUE(attack.planned_ids.empty());
  EXPECT_EQ(attack.kind, ScenarioKind::kFlood);
}

TEST(MultiAttackTest, CyclesAllIdsAndScalesRate) {
  auto attack = make_multi_id_attack(config_at(50.0), {0x300, 0x100, 0x200},
                                     util::Rng(7));
  ASSERT_EQ(attack.planned_ids.size(), 3u);
  // planned_ids are sorted ascending.
  EXPECT_TRUE(std::is_sorted(attack.planned_ids.begin(),
                             attack.planned_ids.end()));
  attack.node->produce(kSecond);
  // Per-ID rate 50 Hz, aggregate 150 Hz -> ~151 generated.
  EXPECT_NEAR(static_cast<double>(attack.node->stats().generated), 151.0, 2.0);
  EXPECT_EQ(attack.node->ids_used(), attack.planned_ids);
  EXPECT_EQ(attack.kind, ScenarioKind::kMulti3);
}

TEST(MultiAttackTest, DeduplicatesIds) {
  auto attack = make_multi_id_attack(config_at(10.0), {0x100, 0x100},
                                     util::Rng(7));
  EXPECT_EQ(attack.planned_ids.size(), 1u);
  EXPECT_EQ(attack.kind, ScenarioKind::kSingle);
}

TEST(WeakAttackTest, FilterBlocksIllegalIds) {
  auto attack = make_weak_attack(config_at(100.0), {0x150, 0x250},
                                 {0x150}, util::Rng(9));
  EXPECT_EQ(attack.kind, ScenarioKind::kWeak);
  attack.node->produce(kSecond);
  // All generated frames use the legal ID and pass the filter.
  EXPECT_EQ(attack.node->stats().blocked_by_filter, 0u);
  EXPECT_EQ(attack.node->ids_used(), std::vector<std::uint32_t>{0x150u});
}

TEST(WeakAttackTest, RejectsIdsOutsideLegalSet) {
  EXPECT_THROW(make_weak_attack(config_at(10.0), {0x100}, {0x999},
                                util::Rng(1)),
               canids::ContractViolation);
}

TEST(ScenarioFactoryTest, BuildsEveryKindAgainstVehicle) {
  const trace::SyntheticVehicle vehicle;
  for (ScenarioKind kind : kAllScenarios) {
    // Replay (and only replay) requires a pre-attack recording phase.
    AttackConfig config = config_at(20.0);
    config.start = kSecond;
    auto attack = make_scenario(kind, vehicle, config, util::Rng(11));
    ASSERT_NE(attack.node, nullptr) << scenario_name(kind);
    EXPECT_EQ(attack.kind, kind);
    const int expected_ids =
        kScenarioTraits[static_cast<std::size_t>(kind)].id_count;
    if (expected_ids == 0) {
      EXPECT_TRUE(attack.planned_ids.empty()) << scenario_name(kind);
    } else if (kind == ScenarioKind::kWeak) {
      EXPECT_GE(static_cast<int>(attack.planned_ids.size()), 1);
      EXPECT_LE(static_cast<int>(attack.planned_ids.size()), expected_ids);
    } else {
      EXPECT_EQ(static_cast<int>(attack.planned_ids.size()), expected_ids);
    }
    // Attackers forging specific identifiers pick from the legal pool.
    const auto& pool = vehicle.id_pool();
    for (std::uint32_t id : attack.planned_ids) {
      EXPECT_TRUE(std::binary_search(pool.begin(), pool.end(), id))
          << scenario_name(kind);
    }
    // ECU-compromising scenarios name a real vehicle ECU and its IDs.
    if (kind == ScenarioKind::kSuspend || kind == ScenarioKind::kMasquerade) {
      EXPECT_FALSE(attack.victim_node.empty());
      EXPECT_FALSE(attack.silenced_ids.empty());
      for (std::uint32_t id : attack.silenced_ids) {
        EXPECT_TRUE(std::binary_search(pool.begin(), pool.end(), id));
      }
    } else {
      EXPECT_TRUE(attack.victim_node.empty()) << scenario_name(kind);
    }
  }
}

TEST(ScenarioFactoryTest, ScenarioMetadataConsistent) {
  const auto id_count = [](ScenarioKind kind) {
    return kScenarioTraits[static_cast<std::size_t>(kind)].id_count;
  };
  EXPECT_EQ(id_count(ScenarioKind::kMulti2), 2);
  EXPECT_EQ(id_count(ScenarioKind::kMulti3), 3);
  EXPECT_EQ(id_count(ScenarioKind::kMulti4), 4);
  EXPECT_FALSE(scenario_inferable(ScenarioKind::kFlood));
  EXPECT_TRUE(scenario_inferable(ScenarioKind::kSingle));
  for (ScenarioKind kind : kAllScenarios) {
    EXPECT_NE(scenario_name(kind), "unknown");
  }
}

TEST(ScenarioFactoryTest, TraitsTableIsExhaustiveAndRoundTrips) {
  // kAllScenarios derives from the traits table, which static_asserts its
  // size and order against the enum — so iterating it IS exhaustive.
  EXPECT_EQ(kAllScenarios.size(), kScenarioKindCount);
  std::set<std::string_view> names;
  std::set<std::string_view> tokens;
  for (ScenarioKind kind : kAllScenarios) {
    EXPECT_NE(scenario_name(kind), "unknown");
    EXPECT_NE(scenario_token(kind), "unknown");
    names.insert(scenario_name(kind));
    tokens.insert(scenario_token(kind));
    // Token -> kind round-trips through the table row.
    const auto parsed = campaign::scenario_from_token(scenario_token(kind));
    ASSERT_TRUE(parsed.has_value()) << scenario_token(kind);
    EXPECT_EQ(*parsed, kind);
  }
  // No two kinds may share a name or token (reports key on them).
  EXPECT_EQ(names.size(), kAllScenarios.size());
  EXPECT_EQ(tokens.size(), kAllScenarios.size());
  // The sentinel is not a scenario.
  EXPECT_EQ(scenario_name(ScenarioKind::kScenarioKindCount_), "unknown");
}

TEST(ReplayAttackTest, PreservesRecordedInterArrivalTiming) {
  AttackConfig config;
  config.start = kSecond;
  config.stop = util::kNever;
  auto attack = make_replay_attack(config);
  ASSERT_EQ(attack.kind, ScenarioKind::kReplay);
  auto* node = static_cast<ReplayNode*>(attack.node.get());

  const auto legit = [](std::uint32_t id) {
    return can::Frame::data_frame(can::CanId::standard(id),
                                  std::span<const std::uint8_t>());
  };
  node->on_bus_frame({100 * kMillisecond, legit(0x100), 0});
  node->on_bus_frame({250 * kMillisecond, legit(0x200), 1});
  node->on_bus_frame({400 * kMillisecond, legit(0x300), 2});
  ASSERT_EQ(node->recorded_frames(), 3u);

  // First pass starts at `start`, keeping each frame's offset — so the
  // recorded 150 ms / 150 ms gaps survive verbatim.
  EXPECT_EQ(node->next_production_time(), kSecond + 100 * kMillisecond);
  node->produce(kSecond + 100 * kMillisecond);
  EXPECT_EQ(node->stats().generated, 1u);
  EXPECT_EQ(node->next_production_time(), kSecond + 250 * kMillisecond);
  node->produce(kSecond + 400 * kMillisecond);
  EXPECT_EQ(node->stats().generated, 3u);
  // The recording loops: pass 2 begins one whole `start` interval later.
  EXPECT_EQ(node->next_production_time(), 2 * kSecond + 100 * kMillisecond);

  // Frames delivered inside the attack window (e.g. our own replays)
  // never enter the recording.
  node->on_bus_frame({kSecond + 500 * kMillisecond, legit(0x400), 3});
  EXPECT_EQ(node->recorded_frames(), 3u);

  // Only recorded identifiers were replayed.
  const auto used = node->ids_used();
  EXPECT_EQ(used, (std::vector<std::uint32_t>{0x100, 0x200, 0x300}));
}

TEST(ReplayAttackTest, RequiresARecordingPhase) {
  AttackConfig config;
  config.start = 0;
  EXPECT_THROW(make_replay_attack(config), canids::ContractViolation);
}

TEST(SuspendAttackTest, VictimFramesStopAtAttackStart) {
  const trace::SyntheticVehicle vehicle;
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 42);

  AttackConfig config;
  config.start = 2 * kSecond;
  config.stop = util::kNever;
  auto attack = make_suspend_attack(config, vehicle.ecus()[0].name,
                                    vehicle.ids_of_ecu(0));
  const std::set<std::uint32_t> silenced(attack.silenced_ids.begin(),
                                         attack.silenced_ids.end());
  const auto attached = attach_attack(bus, attack);

  std::uint64_t victim_before = 0;
  std::uint64_t victim_after = 0;
  // A frame already in flight at `start` may still complete; judge from a
  // small guard after the silencing instant.
  const util::TimeNs guard = config.start + 100 * kMillisecond;
  bus.add_listener([&](const can::TimedFrame& frame) {
    if (silenced.count(frame.frame.id().raw()) == 0) return;
    if (frame.timestamp < config.start) ++victim_before;
    if (frame.timestamp >= guard) ++victim_after;
  });

  bus.run_until(4 * kSecond);
  EXPECT_GT(victim_before, 50u);  // the victim was alive pre-attack
  EXPECT_EQ(victim_after, 0u);    // and fully silent after it
  // The suspend attacker itself transmits nothing, ever.
  EXPECT_EQ(attached.node->stats().generated, 0u);
  EXPECT_TRUE(static_cast<EcuSuspendNode*>(attached.node)->suspended());
}

TEST(MasqueradeAttackTest, MatchesSilencedEcuIdAndTiming) {
  const trace::SyntheticVehicle vehicle;
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 7);

  const trace::EcuDescriptor& ecu = vehicle.ecus()[0];
  const can::MessageSpec* target = &ecu.messages.front();
  for (const can::MessageSpec& spec : ecu.messages) {
    if (spec.period < target->period) target = &spec;
  }

  AttackConfig config;
  config.start = 2 * kSecond;
  config.stop = util::kNever;
  auto attack = make_masquerade_attack(config, ecu.name, vehicle.ids_of_ecu(0),
                                       *target, util::Rng(5));
  EXPECT_EQ(attack.planned_ids,
            std::vector<std::uint32_t>{target->id.raw()});
  const std::set<std::uint32_t> silenced(attack.silenced_ids.begin(),
                                         attack.silenced_ids.end());
  EXPECT_EQ(silenced.count(target->id.raw()), 0u);
  attach_attack(bus, attack);

  std::vector<util::TimeNs> target_times;
  std::uint64_t others_after = 0;
  const util::TimeNs guard = config.start + 100 * kMillisecond;
  bus.add_listener([&](const can::TimedFrame& frame) {
    const std::uint32_t id = frame.frame.id().raw();
    if (id == target->id.raw() && frame.timestamp >= guard) {
      target_times.push_back(frame.timestamp);
    }
    if (silenced.count(id) != 0 && frame.timestamp >= guard) ++others_after;
  });

  bus.run_until(6 * kSecond);

  // The impersonated message keeps flowing after the takeover...
  ASSERT_GT(target_times.size(), 10u);
  // ...at the victim's own cadence (arbitration adds per-frame jitter,
  // so judge the mean gap, not individual ones).
  double gap_sum = 0.0;
  for (std::size_t i = 1; i < target_times.size(); ++i) {
    gap_sum += static_cast<double>(target_times[i] - target_times[i - 1]);
  }
  const double mean_gap =
      gap_sum / static_cast<double>(target_times.size() - 1);
  EXPECT_GT(mean_gap, 0.7 * static_cast<double>(target->period));
  EXPECT_LT(mean_gap, 1.3 * static_cast<double>(target->period));
  // The victim's remaining messages are gone — the residual signature.
  EXPECT_EQ(others_after, 0u);
}

TEST(ScenarioFactoryTest, DifferentSeedsPickDifferentIds) {
  const trace::SyntheticVehicle vehicle;
  std::set<std::uint32_t> chosen;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto attack = make_scenario(ScenarioKind::kSingle, vehicle,
                                config_at(10.0), util::Rng(seed));
    chosen.insert(attack.planned_ids[0]);
  }
  EXPECT_GT(chosen.size(), 5u);
}

}  // namespace
}  // namespace canids::attacks
