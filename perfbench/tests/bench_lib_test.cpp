// The benchmark's own tests: the closing-frame matcher against
// util::WindowClock, the percentile functions, the accounting identity, and
// seed determinism of the generator.
#include <gtest/gtest.h>

#include <vector>

#include "bench_lib.h"
#include "ids/pipeline.h"
#include "util/time.h"

namespace perfbench {
namespace {

using canids::util::kSecond;

/// Every (window, closing frame) pair util::WindowClock produces.
std::vector<std::pair<TimeNs, std::size_t>> clock_closings(
    const std::vector<TimeNs>& timestamps, TimeNs duration) {
  canids::util::WindowClock clock(duration);
  std::vector<std::pair<TimeNs, std::size_t>> out;
  for (std::size_t k = 0; k < timestamps.size(); ++k) {
    if (const auto end = clock.advance(timestamps[k])) out.emplace_back(*end, k);
  }
  return out;
}

TEST(ClosingFrame, MatchesWindowClockIncludingSilentGaps) {
  // Anchored at 0.3 s; a silent stretch from 2.9 s to 6.1 s skips windows.
  const std::vector<TimeNs> ts = {
      300'000'000, 500'000'000,   1'299'999'999, 1'300'000'000,
      2'000'000'000, 2'900'000'000, 6'100'000'000, 6'200'000'000,
      7'300'000'000};
  const auto closings = clock_closings(ts, kSecond);
  ASSERT_EQ(closings.size(), 4u);
  for (const auto& [end, frame] : closings) {
    const auto matched = closing_frame(ts, end - kSecond, end, kSecond);
    ASSERT_TRUE(matched.has_value());
    EXPECT_EQ(*matched, frame) << "window ending " << end;
  }
  // The frame stamped exactly on the boundary closes the window.
  EXPECT_EQ(closing_frame(ts, 300'000'000, 1'300'000'000, kSecond), 3u);
}

TEST(ClosingFrame, FinalFlushAndPastTheEndAreNotFrameClosed) {
  const std::vector<TimeNs> ts = {0, 400'000'000, 1'100'000'000, 1'500'000'000};
  // finish() flushes [1.0 s, 1.5 s): shorter than a window.
  EXPECT_FALSE(closing_frame(ts, kSecond, 1'500'000'000, kSecond).has_value());
  // A full-length window ending after the last frame has no closer.
  EXPECT_FALSE(closing_frame(ts, kSecond, 2 * kSecond, kSecond).has_value());
}

TEST(ClosingFrame, RepeatedStreamMatchesMaterializedTimestamps) {
  auto base = std::make_shared<BaseDrive>();
  base->duration = 3 * kSecond;
  for (TimeNs t : {100'000'000LL, 900'000'000LL, 1'200'000'000LL,
                   2'050'000'000LL, 2'700'000'000LL}) {
    canids::can::TimedFrame frame;
    frame.timestamp = t;
    base->frames.push_back(frame);
    base->timestamps.push_back(t);
  }
  StreamInput stream;
  stream.base = base;
  stream.reps = 3;
  std::vector<TimeNs> all;
  for (std::size_t k = 0; k < stream.size(); ++k) all.push_back(stream.timestamp(k));
  for (const auto& [end, frame] : clock_closings(all, kSecond)) {
    EXPECT_EQ(stream.closing_frame(end - kSecond, end, kSecond), frame);
  }
}

TEST(Percentile, ExactOnRawSamples) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 50.0), 50.5);
  EXPECT_DOUBLE_EQ(percentile(samples, 99.0), 99.01);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  std::vector<double> big(2000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  const Tail p99 = supported_tail(big);
  EXPECT_TRUE(p99.supported);
  EXPECT_DOUBLE_EQ(p99.percentile, 99.0);
  EXPECT_EQ(p99.samples, 2000u);

  std::vector<double> mid(200, 1.0);
  const Tail p95 = supported_tail(mid);
  EXPECT_TRUE(p95.supported);
  EXPECT_DOUBLE_EQ(p95.percentile, 95.0);  // 10 of 200 lie beyond

  const Tail few = supported_tail({5.0, 1.0, 3.0});
  EXPECT_FALSE(few.supported);
  EXPECT_DOUBLE_EQ(few.percentile, 50.0);
  EXPECT_DOUBLE_EQ(few.value, 3.0);
}

TEST(Accounting, IdentityOverStreamCounters) {
  canids::ids::PipelineCounters c;
  c.frames = 1000;         // fed to the backend, width-dropped included
  c.dropped_frames = 7;
  c.queue_dropped = 20;
  c.parse_errors = 3;
  Accounting a = accounting_of(1023, c);
  EXPECT_EQ(a.judged, 993u);
  EXPECT_EQ(a.failed(), 30u);
  EXPECT_TRUE(a.holds());
  a.offered = 1024;  // one frame unaccounted for
  EXPECT_FALSE(a.holds());

  Accounting sum = accounting_of(1023, c);
  sum += accounting_of(1023, c);
  EXPECT_EQ(sum.offered, 2046u);
  EXPECT_TRUE(sum.holds());
}

TEST(Generator, SameSeedGivesIdenticalBytes) {
  const canids::trace::SyntheticVehicle vehicle;
  const auto drive = [&](std::uint64_t seed) {
    DriveSpec spec;
    spec.run_seed = derive_seed(seed, 0);
    spec.attack = canids::attacks::ScenarioKind::kMulti4;
    spec.duration = 2 * kSecond;
    StreamInput stream;
    stream.key = "veh";
    stream.base = std::make_shared<const BaseDrive>(make_drive(vehicle, spec));
    stream.reps = 2;
    return stream;
  };
  const StreamInput a = drive(7), b = drive(7), c = drive(8);
  EXPECT_GT(a.size(), 1000u);
  EXPECT_EQ(encode_binary_file(a), encode_binary_file(b));
  EXPECT_EQ(encode_candump_text(a, nullptr), encode_candump_text(b, nullptr));
  EXPECT_EQ(a.base->planned_ids, b.base->planned_ids);
  EXPECT_NE(encode_binary_file(a), encode_binary_file(c));
  // Repetitions shift by the drive duration, so timestamps keep rising.
  for (std::size_t k = 1; k < a.size(); ++k) {
    ASSERT_LT(a.timestamp(k - 1), a.timestamp(k));
  }
}

TEST(Generator, TextWireRoundTripsToTheSameIds) {
  const canids::trace::SyntheticVehicle vehicle;
  DriveSpec spec;
  spec.run_seed = 3;
  spec.duration = kSecond;
  StreamInput stream;
  stream.base = std::make_shared<const BaseDrive>(make_drive(vehicle, spec));
  std::vector<std::size_t> ends;
  const std::string text = encode_candump_text(stream, &ends);
  const std::vector<canids::can::TimedId> parsed = parse_candump_text(text);
  const std::vector<canids::can::TimedId> ids = stream.ids();
  ASSERT_EQ(parsed.size(), ids.size());
  ASSERT_EQ(ends.back(), text.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(parsed[k].id, ids[k].id);
    // candump text carries microseconds: the stamp rounds to the nearest.
    EXPECT_EQ(parsed[k].timestamp % 1000, 0);
    EXPECT_LE(std::llabs(parsed[k].timestamp - ids[k].timestamp), 500);
  }
}

}  // namespace
}  // namespace perfbench
