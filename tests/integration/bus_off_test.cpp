// The bus-off suppression attack (paper ref [10]) end to end: induced bit
// errors drive a victim ECU off the bus, its periodic traffic vanishes, and
// the entropy IDS flags the resulting probability shift even though not a
// single frame was injected.
#include <gtest/gtest.h>

#include "analysis/backends.h"
#include "attacks/bus_off.h"
#include "metrics/experiment.h"

namespace canids {
namespace {

using util::kMillisecond;
using util::kSecond;

can::MessageSpec spec_of(std::uint32_t id, util::TimeNs period) {
  can::MessageSpec spec;
  spec.id = can::CanId::standard(id);
  spec.period = period;
  spec.dlc = 4;
  spec.payload = can::PayloadKind::kCounter;
  spec.jitter_fraction = 0.0;
  return spec;
}

TEST(BusOffAttackTest, FaultHookDestroysOnlyVictimFramesInWindow) {
  attacks::BusOffConfig config;
  config.victim_id = 0x123;
  config.start = kSecond;
  config.stop = 2 * kSecond;
  auto state = std::make_shared<attacks::BusOffState>();
  auto hook = attacks::make_bus_off_fault(config, state);

  can::TimedFrame victim{kSecond + 1, can::Frame::data_frame(
                                          can::CanId::standard(0x123), {}),
                         0};
  can::TimedFrame other{kSecond + 1, can::Frame::data_frame(
                                         can::CanId::standard(0x124), {}),
                        0};
  can::TimedFrame early{kSecond - 1, victim.frame, 0};
  EXPECT_TRUE(hook(victim));
  EXPECT_FALSE(hook(other));
  EXPECT_FALSE(hook(early));
  EXPECT_EQ(state->frames_destroyed, 1u);
}

TEST(BusOffAttackTest, VictimReachesBusOffAfter32Errors) {
  can::BusSimulator bus;
  auto& victim = bus.emplace_node<can::PeriodicSender>(
      "victim", std::vector<can::MessageSpec>{spec_of(0x123, 10 * kMillisecond)},
      util::Rng(1));
  bus.emplace_node<can::PeriodicSender>(
      "bystander",
      std::vector<can::MessageSpec>{spec_of(0x300, 20 * kMillisecond)},
      util::Rng(2));

  attacks::BusOffConfig config;
  config.victim_id = 0x123;
  auto state = std::make_shared<attacks::BusOffState>();
  bus.set_fault_hook(attacks::make_bus_off_fault(config, state));

  std::uint64_t victim_frames_seen = 0;
  bus.add_listener([&](const can::TimedFrame& frame) {
    if (frame.frame.id().raw() == 0x123) ++victim_frames_seen;
  });

  bus.run_until(5 * kSecond);

  // 32 destroyed attempts at +8 TEC each push the victim over 255.
  EXPECT_TRUE(victim.errors().bus_off());
  EXPECT_TRUE(victim.disabled());
  EXPECT_GE(state->frames_destroyed, 32u);
  EXPECT_EQ(victim_frames_seen, 0u);  // suppression is total
  EXPECT_EQ(bus.stats().bus_off_events, 1u);
  EXPECT_GE(bus.stats().error_frames, 32u);

  // The bystander is unaffected.
  const can::Node& bystander = bus.node(bus.find_node("bystander"));
  EXPECT_FALSE(bystander.disabled());
  EXPECT_GT(bystander.stats().transmitted, 200u);
  EXPECT_EQ(bystander.errors().transmit_errors(), 0);
}

TEST(BusOffAttackTest, IntermittentFaultsStillReachBusOff) {
  can::BusSimulator bus;
  auto& victim = bus.emplace_node<can::PeriodicSender>(
      "victim", std::vector<can::MessageSpec>{spec_of(0x123, 5 * kMillisecond)},
      util::Rng(1));

  // Destroy only every second victim frame: +8 then -1, still divergent.
  std::uint64_t counter = 0;
  bus.set_fault_hook([&counter](const can::TimedFrame& frame) {
    if (frame.frame.id().raw() != 0x123) return false;
    return (counter++ % 2) == 0;
  });
  bus.run_until(3 * kSecond);
  EXPECT_TRUE(victim.errors().bus_off());
}

TEST(BusOffAttackTest, EntropyIdsDetectsSuppression) {
  // Full pipeline: train on the synthetic vehicle, then bus-off one of its
  // fast-tier ECclass IDs mid-drive. No frames are injected; the detector
  // must still alert on the shifted mix.
  metrics::ExperimentConfig config;
  config.training_windows = 14;
  metrics::ExperimentRunner runner(config);
  const auto golden = runner.train_shared();
  const trace::SyntheticVehicle& vehicle = runner.vehicle();

  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 77);

  // Suppress the most dominant (fast-tier, 10 ms) identifier: ~100 frames/s
  // of traffic disappear once the ECU is bus-off.
  attacks::BusOffConfig attack;
  attack.victim_id = vehicle.id_pool().front();
  attack.start = 4 * kSecond;
  auto state = std::make_shared<attacks::BusOffState>();
  bus.set_fault_hook(attacks::make_bus_off_fault(attack, state));

  analysis::BitEntropyBackend backend(golden, vehicle.id_pool());
  std::uint64_t alerts_before = 0;
  std::uint64_t alerts_after = 0;
  bus.add_listener([&](const can::TimedFrame& frame) {
    if (auto verdict = backend.on_frame(frame.timestamp, frame.frame.id())) {
      if (!verdict->alert) return;
      if (verdict->start < attack.start) {
        ++alerts_before;
      } else {
        ++alerts_after;
      }
    }
  });
  bus.run_until(12 * kSecond);

  EXPECT_GT(state->frames_destroyed, 30u);
  EXPECT_EQ(alerts_before, 0u);
  EXPECT_GE(alerts_after, 4u);  // sustained suppression, sustained alarm
}

}  // namespace
}  // namespace canids
