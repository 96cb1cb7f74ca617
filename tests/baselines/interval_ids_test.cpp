#include "baselines/interval_ids.h"

#include <gtest/gtest.h>

#include "util/contracts.h"
#include "util/rng.h"

namespace canids::baselines {
namespace {

using util::kMillisecond;
using util::kSecond;

IntervalIds trained_on_100ms_id(std::uint32_t id = 0x100,
                                IntervalConfig config = {}) {
  IntervalIds ids(config);
  for (int i = 0; i < 100; ++i) {
    ids.train(static_cast<util::TimeNs>(i) * 100 * kMillisecond, id);
  }
  ids.finish_training();
  return ids;
}

TEST(IntervalIdsTest, LearnsMeanPeriod) {
  const IntervalIds ids = trained_on_100ms_id();
  EXPECT_EQ(ids.tracked_ids(), 1u);
  const std::vector<IntervalIds::Period> periods = ids.periods();
  ASSERT_EQ(periods.size(), 1u);  // nothing learned for any other ID
  EXPECT_EQ(periods[0].first, 0x100u);
  EXPECT_EQ(periods[0].second, 100 * kMillisecond);
}

TEST(IntervalIdsTest, NormalRateDoesNotAlert) {
  IntervalIds ids = trained_on_100ms_id();
  for (int i = 0; i < 50; ++i) {
    const auto v = ids.observe(
        static_cast<util::TimeNs>(i) * 100 * kMillisecond, 0x100);
    EXPECT_TRUE(v.known_id);
    EXPECT_FALSE(v.too_fast);
  }
  EXPECT_FALSE(ids.window_alert_and_reset());
}

TEST(IntervalIdsTest, InjectionSpeedupAlerts) {
  IntervalIds ids = trained_on_100ms_id();
  // Frames arriving at 10 ms: ten times the learned rate.
  for (int i = 0; i < 20; ++i) {
    ids.observe(static_cast<util::TimeNs>(i) * 10 * kMillisecond, 0x100);
  }
  EXPECT_TRUE(ids.window_alert_and_reset());
  // Reset clears the verdict.
  EXPECT_FALSE(ids.window_alert_and_reset());
}

TEST(IntervalIdsTest, SingleJitteredFrameTolerated) {
  IntervalConfig config;
  config.violations_to_alert = 3;
  IntervalIds ids = trained_on_100ms_id(0x100, config);
  ids.observe(0, 0x100);
  // One early frame (40 ms instead of 100 ms) then normal cadence.
  ids.observe(40 * kMillisecond, 0x100);
  ids.observe(140 * kMillisecond, 0x100);
  ids.observe(240 * kMillisecond, 0x100);
  EXPECT_FALSE(ids.window_alert_and_reset());
}

TEST(IntervalIdsTest, UnseenIdInvisibleByDefault) {
  IntervalIds ids = trained_on_100ms_id();
  // Attacker floods with an identifier never seen in training: the interval
  // IDS is blind to it — the §V.E criticism this baseline demonstrates.
  for (int i = 0; i < 200; ++i) {
    const auto v = ids.observe(
        static_cast<util::TimeNs>(i) * kMillisecond, 0x666);
    EXPECT_FALSE(v.known_id);
  }
  EXPECT_FALSE(ids.window_alert_and_reset());
}

TEST(IntervalIdsTest, UnseenIdAlertsWhenHardened) {
  IntervalConfig config;
  config.alert_on_unseen = true;
  IntervalIds ids = trained_on_100ms_id(0x100, config);
  ids.observe(0, 0x666);
  EXPECT_TRUE(ids.window_alert_and_reset());
}

TEST(IntervalIdsTest, StateGrowsWithTrackedIds) {
  IntervalIds ids;
  for (std::uint32_t id = 0; id < 50; ++id) {
    for (int i = 0; i < 3; ++i) {
      ids.train(static_cast<util::TimeNs>(i) * kSecond +
                    static_cast<util::TimeNs>(id),
                id);
    }
  }
  ids.finish_training();
  EXPECT_EQ(ids.tracked_ids(), 50u);
  EXPECT_GE(ids.state_bytes(), 50 * sizeof(std::uint32_t));
}

TEST(IntervalIdsTest, SingleSightingIdsNotTracked) {
  IntervalIds ids;
  ids.train(0, 0x100);      // only once: no interval known
  ids.train(0, 0x200);
  ids.train(kSecond, 0x200);
  ids.finish_training();
  EXPECT_EQ(ids.tracked_ids(), 1u);
  const std::vector<IntervalIds::Period> periods = ids.periods();
  ASSERT_EQ(periods.size(), 1u);
  EXPECT_EQ(periods[0].first, 0x200u);  // 0x100 has no interval
}

TEST(IntervalIdsTest, LifecycleContractsEnforced) {
  IntervalIds ids;
  EXPECT_THROW(ids.observe(0, 0x100), canids::ContractViolation);
  ids.train(0, 0x100);
  ids.finish_training();
  EXPECT_THROW(ids.train(0, 0x100), canids::ContractViolation);
  EXPECT_THROW(ids.finish_training(), canids::ContractViolation);
}

TEST(IntervalIdsTest, RejectsBadConfig) {
  IntervalConfig bad;
  bad.fast_ratio = 0.0;
  EXPECT_THROW(IntervalIds{bad}, canids::ContractViolation);
  bad.fast_ratio = 1.0;
  EXPECT_THROW(IntervalIds{bad}, canids::ContractViolation);
  IntervalConfig bad2;
  bad2.violations_to_alert = 0;
  EXPECT_THROW(IntervalIds{bad2}, canids::ContractViolation);
}

}  // namespace
}  // namespace canids::baselines
