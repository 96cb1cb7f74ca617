#include "can/bus.h"

#include <gtest/gtest.h>

#include <vector>

namespace canids::can {
namespace {

using util::kMillisecond;
using util::kSecond;
using util::TimeNs;

MessageSpec spec_of(std::uint32_t id, TimeNs period, TimeNs offset = 0) {
  MessageSpec spec;
  spec.id = CanId::standard(id);
  spec.period = period;
  spec.offset = offset;
  spec.dlc = 4;
  spec.payload = PayloadKind::kConstant;
  spec.jitter_fraction = 0.0;
  return spec;
}

TEST(BusSimulatorTest, DeliversPeriodicTraffic) {
  BusSimulator bus;
  bus.emplace_node<PeriodicSender>(
      "ecu", std::vector<MessageSpec>{spec_of(0x123, 10 * kMillisecond)},
      util::Rng(1));
  std::vector<TimedFrame> seen;
  bus.add_listener([&](const TimedFrame& f) { seen.push_back(f); });
  bus.run_until(kSecond);
  // 100 frames (0..990 ms), all with the right ID and increasing time.
  EXPECT_EQ(seen.size(), 100u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].frame.id().raw(), 0x123u);
    if (i > 0) {
      EXPECT_GT(seen[i].timestamp, seen[i - 1].timestamp);
    }
  }
}

TEST(BusSimulatorTest, HigherPriorityWinsContention) {
  BusSimulator bus;
  // Both due at exactly t=0 repeatedly: lower ID must always transmit first.
  bus.emplace_node<PeriodicSender>(
      "low-id", std::vector<MessageSpec>{spec_of(0x100, 10 * kMillisecond)},
      util::Rng(1));
  bus.emplace_node<PeriodicSender>(
      "high-id", std::vector<MessageSpec>{spec_of(0x700, 10 * kMillisecond)},
      util::Rng(2));
  std::vector<std::uint32_t> order;
  bus.add_listener(
      [&](const TimedFrame& f) { order.push_back(f.frame.id().raw()); });
  bus.run_until(100 * kMillisecond);
  ASSERT_GE(order.size(), 4u);
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    EXPECT_EQ(order[i], 0x100u);
    EXPECT_EQ(order[i + 1], 0x700u);
  }
}

TEST(BusSimulatorTest, LoserRetriesAndEventuallyTransmits) {
  BusSimulator bus;
  bus.emplace_node<PeriodicSender>(
      "fast", std::vector<MessageSpec>{spec_of(0x050, 2 * kMillisecond)},
      util::Rng(1));
  bus.emplace_node<PeriodicSender>(
      "slow", std::vector<MessageSpec>{spec_of(0x600, 50 * kMillisecond)},
      util::Rng(2));
  std::uint64_t slow_seen = 0;
  bus.add_listener([&](const TimedFrame& f) {
    if (f.frame.id().raw() == 0x600) ++slow_seen;
  });
  bus.run_until(kSecond);
  const Node& slow = bus.node(bus.find_node("slow"));
  EXPECT_GT(slow.stats().arbitration_attempts, slow.stats().arbitration_wins);
  EXPECT_EQ(slow_seen, slow.stats().transmitted);
  EXPECT_GE(slow_seen, 18u);  // all ~20 frames eventually go out
}

TEST(BusSimulatorTest, TimestampsSpacedByFrameDuration) {
  BusSimulator bus;
  bus.emplace_node<PeriodicSender>(
      "ecu", std::vector<MessageSpec>{spec_of(0x123, 1 * kMillisecond)},
      util::Rng(1));
  std::vector<TimedFrame> seen;
  bus.add_listener([&](const TimedFrame& f) { seen.push_back(f); });
  bus.run_until(100 * kMillisecond);
  ASSERT_GE(seen.size(), 3u);
  // At 125 kbit/s a 4-byte frame takes ~600+ us; back-to-back deliveries
  // must be separated by at least a frame duration.
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].timestamp - seen[i - 1].timestamp,
              60 * 8000 /* 60 bits at 8 us/bit */);
  }
}

TEST(BusSimulatorTest, BusLoadReflectsTraffic) {
  BusSimulator bus;
  bus.emplace_node<PeriodicSender>(
      "ecu", std::vector<MessageSpec>{spec_of(0x123, 2 * kMillisecond)},
      util::Rng(1));
  bus.run_until(kSecond);
  // ~500 frames of ~70 bits at 8 us/bit ~= 0.28 busy fraction.
  EXPECT_GT(bus.stats().load(), 0.15);
  EXPECT_LT(bus.stats().load(), 0.5);
}

TEST(BusSimulatorTest, SourceNodeTaggedOnDeliveries) {
  BusSimulator bus;
  auto& a = bus.emplace_node<PeriodicSender>(
      "a", std::vector<MessageSpec>{spec_of(0x100, 10 * kMillisecond)},
      util::Rng(1));
  auto& b = bus.emplace_node<PeriodicSender>(
      "b", std::vector<MessageSpec>{spec_of(0x200, 10 * kMillisecond)},
      util::Rng(2));
  (void)a;
  (void)b;
  const int a_index = bus.find_node("a");
  const int b_index = bus.find_node("b");
  bus.add_listener([&](const TimedFrame& f) {
    if (f.frame.id().raw() == 0x100) {
      EXPECT_EQ(f.source_node, a_index);
    } else {
      EXPECT_EQ(f.source_node, b_index);
    }
  });
  bus.run_until(100 * kMillisecond);
}

TEST(BusSimulatorTest, CollisionCountedForIdenticalFrames) {
  BusSimulator bus;
  // Two nodes with the same ID and phase: a protocol violation the
  // simulator surfaces as a collision statistic.
  bus.emplace_node<PeriodicSender>(
      "n1", std::vector<MessageSpec>{spec_of(0x111, 10 * kMillisecond)},
      util::Rng(1));
  bus.emplace_node<PeriodicSender>(
      "n2", std::vector<MessageSpec>{spec_of(0x111, 10 * kMillisecond)},
      util::Rng(1));
  bus.run_until(50 * kMillisecond);
  EXPECT_GT(bus.stats().collisions, 0u);
}

TEST(BusSimulatorTest, RunUntilIsMonotoneAndResumable) {
  BusSimulator bus;
  bus.emplace_node<PeriodicSender>(
      "ecu", std::vector<MessageSpec>{spec_of(0x123, 10 * kMillisecond)},
      util::Rng(1));
  std::uint64_t count = 0;
  bus.add_listener([&](const TimedFrame&) { ++count; });
  bus.run_until(100 * kMillisecond);
  const auto first_batch = count;
  bus.run_until(200 * kMillisecond);
  EXPECT_GT(count, first_batch);
  EXPECT_THROW(bus.run_until(50 * kMillisecond), canids::ContractViolation);
}

TEST(BusSimulatorTest, IdleBusAdvancesToEnd) {
  BusSimulator bus;
  bus.run_until(kSecond);
  EXPECT_EQ(bus.now(), kSecond);
  EXPECT_EQ(bus.stats().frames_transmitted, 0u);
  EXPECT_DOUBLE_EQ(bus.stats().load(), 0.0);
}

TEST(BusSimulatorTest, DisabledNodeDoesNotTransmit) {
  BusSimulator bus;
  auto& node = bus.emplace_node<PeriodicSender>(
      "ecu", std::vector<MessageSpec>{spec_of(0x123, 10 * kMillisecond)},
      util::Rng(1));
  node.set_disabled(true);
  bus.run_until(100 * kMillisecond);
  EXPECT_EQ(bus.stats().frames_transmitted, 0u);
}

TEST(BusSimulatorTest, HoldBusDominantTripsGuardAndDisables) {
  BusConfig config;
  config.transceiver.dominant_timeout = 800 * util::kMicrosecond;
  BusSimulator bus(config);
  auto& attacker = bus.emplace_node<PeriodicSender>(
      "attacker", std::vector<MessageSpec>{spec_of(0x000, kSecond)},
      util::Rng(1));
  const int index = bus.find_node("attacker");
  const TimeNs held = bus.hold_bus_dominant(index, 5 * kMillisecond);
  // The transceiver cuts the hold at its timeout and disables the node.
  EXPECT_EQ(held, 800 * util::kMicrosecond);
  EXPECT_TRUE(attacker.guard().tripped());
  EXPECT_TRUE(attacker.disabled());
  // A disabled holder cannot grab the bus again.
  EXPECT_EQ(bus.hold_bus_dominant(index, kMillisecond), 0);
}

TEST(BusSimulatorTest, ShortHoldDoesNotTrip) {
  BusSimulator bus;
  bus.emplace_node<PeriodicSender>(
      "n", std::vector<MessageSpec>{spec_of(0x100, kSecond)}, util::Rng(1));
  const int index = bus.find_node("n");
  const TimeNs held = bus.hold_bus_dominant(index, 100 * util::kMicrosecond);
  EXPECT_EQ(held, 100 * util::kMicrosecond);
  EXPECT_FALSE(bus.node(index).disabled());
}

TEST(BusSimulatorTest, WellFormedTrafficNeverTripsGuard) {
  BusConfig config;
  config.transceiver.dominant_timeout = 200 * util::kMicrosecond;
  BusSimulator bus(config);
  // Even the most dominant legal frames keep runs <= 6 bits (48 us).
  bus.emplace_node<PeriodicSender>(
      "zeros", std::vector<MessageSpec>{spec_of(0x000, kMillisecond)},
      util::Rng(1));
  bus.run_until(kSecond);
  EXPECT_FALSE(bus.node(0).disabled());
  EXPECT_GT(bus.stats().frames_transmitted, 900u);
}

TEST(BusSimulatorTest, FindNodeByName) {
  BusSimulator bus;
  bus.emplace_node<PeriodicSender>(
      "abc", std::vector<MessageSpec>{spec_of(0x100, kSecond)}, util::Rng(1));
  EXPECT_EQ(bus.find_node("abc"), 0);
  EXPECT_EQ(bus.find_node("missing"), -1);
}

TEST(BusSimulatorTest, RejectsInvalidNodeAccess) {
  BusSimulator bus;
  EXPECT_THROW((void)bus.node(0), canids::ContractViolation);
  EXPECT_THROW((void)bus.node(-1), canids::ContractViolation);
}

// Conservation property: every generated frame is accounted for exactly
// once — transmitted, dropped on overflow, blocked by a filter, or still
// pending — across random node populations and loads.
class BusConservationProperty : public ::testing::TestWithParam<int> {};

TEST_P(BusConservationProperty, FramesNeitherLostNorDuplicated) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  BusSimulator bus;
  const int node_count = 2 + static_cast<int>(rng.below(6));
  for (int n = 0; n < node_count; ++n) {
    std::vector<MessageSpec> specs;
    const int messages = 1 + static_cast<int>(rng.below(4));
    for (int m = 0; m < messages; ++m) {
      MessageSpec spec = spec_of(
          static_cast<std::uint32_t>(rng.below(0x800)),
          (1 + static_cast<TimeNs>(rng.below(40))) * kMillisecond,
          static_cast<TimeNs>(rng.below(10)) * kMillisecond);
      specs.push_back(spec);
    }
    bus.emplace_node<PeriodicSender>("ecu" + std::to_string(n), specs,
                                     rng.fork(),
                                     /*queue_capacity=*/2 + rng.below(6));
  }

  std::uint64_t delivered = 0;
  bus.add_listener([&](const TimedFrame&) { ++delivered; });
  bus.run_until(3 * kSecond);

  std::uint64_t generated = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t blocked = 0;
  std::uint64_t pending = 0;
  for (std::size_t n = 0; n < bus.node_count(); ++n) {
    Node& node = bus.node(static_cast<int>(n));
    generated += node.stats().generated;
    transmitted += node.stats().transmitted;
    dropped += node.stats().dropped_overflow;
    blocked += node.stats().blocked_by_filter;
    while (node.has_pending()) {
      node.pop_head();
      ++pending;
    }
  }
  EXPECT_EQ(generated, transmitted + dropped + blocked + pending);
  EXPECT_EQ(delivered, transmitted);
  EXPECT_EQ(delivered, bus.stats().frames_transmitted);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, BusConservationProperty,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace canids::can
