#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "telemetry/event_log.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace canids::telemetry {
namespace {

// ---------------------------------------------------------------- counters

TEST(Counter, AddAccumulates) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, FoldOnlyMovesUp) {
  Counter c;
  c.fold(100);
  EXPECT_EQ(c.value(), 100u);
  c.fold(50);  // recomputed totals may lag; the counter must not regress
  EXPECT_EQ(c.value(), 100u);
  c.fold(250);
  EXPECT_EQ(c.value(), 250u);
}

// --------------------------------------------------------------- histograms

TEST(Histogram, BoundsMustBeStrictlyIncreasing) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({5, 5}), std::invalid_argument);
  EXPECT_THROW(Histogram({5, 3}), std::invalid_argument);
  EXPECT_NO_THROW(Histogram({1, 2, 3}));
}

/// Bucket upper bounds are inclusive: a value exactly equal to a bound
/// belongs to that bound's bucket, one more spills into the next.
TEST(Histogram, BucketBoundariesAreInclusive) {
  Histogram h({10, 100, 1000});
  EXPECT_EQ(h.bucket_index(0), 0u);
  EXPECT_EQ(h.bucket_index(10), 0u);
  EXPECT_EQ(h.bucket_index(11), 1u);
  EXPECT_EQ(h.bucket_index(100), 1u);
  EXPECT_EQ(h.bucket_index(101), 2u);
  EXPECT_EQ(h.bucket_index(1000), 2u);
  // Overflow bucket.
  EXPECT_EQ(h.bucket_index(1001), 3u);
  EXPECT_EQ(h.bucket_index(UINT64_MAX), 3u);
}

TEST(Histogram, ObserveCountsAndSums) {
  Histogram h({10, 100});
  h.observe(5);
  h.observe(10);
  h.observe(11);
  h.observe(5000);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.counts, (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(snap.sum, 5026u);
  EXPECT_EQ(snap.count(), 4u);
}

/// A cheap deterministic value stream, different per shard; spans the
/// whole latency ladder including the overflow bucket.
void feed_shard(Histogram& h, std::uint64_t seed, int observations) {
  std::uint64_t v = seed;
  for (int i = 0; i < observations; ++i) {
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    h.observe(v % 2'000'000'000ULL);
  }
}

HistogramSnapshot shard_snapshot(std::uint64_t seed, int observations) {
  Histogram h(latency_bounds_ns());
  feed_shard(h, seed, observations);
  return h.snapshot();
}

/// The acceptance criterion: merging per-shard snapshots must be
/// associative, and any merge order must be byte-identical — snapshot
/// equality AND exposition text equality — to observing everything in a
/// single histogram.
TEST(Histogram, MergeIsAssociativeAndMatchesSingleShard) {
  const HistogramSnapshot a = shard_snapshot(1, 400);
  const HistogramSnapshot b = shard_snapshot(2, 300);
  const HistogramSnapshot c = shard_snapshot(3, 500);

  HistogramSnapshot left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  HistogramSnapshot right = b;  // a + (b + c)
  right.merge(c);
  HistogramSnapshot a_first = a;
  a_first.merge(right);
  EXPECT_EQ(left, a_first);

  // Single-shard ground truth: one histogram fed all three value streams.
  Histogram combined(latency_bounds_ns());
  feed_shard(combined, 1, 400);
  feed_shard(combined, 2, 300);
  feed_shard(combined, 3, 500);
  const HistogramSnapshot single = combined.snapshot();
  EXPECT_EQ(left, single);
  EXPECT_EQ(single.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(single.sum, a.sum + b.sum + c.sum);

  // Byte-identical exposition: render the merged snapshot and the
  // single-shard snapshot through the same writer.
  MetricsRegistry::Family family;
  family.name = "canids_merge_check_ns";
  family.help = "merge determinism probe";
  family.kind = MetricKind::kHistogram;
  family.series.push_back({});
  family.series.back().histogram = left;
  const std::string merged_text = to_prometheus_text({family});
  family.series.back().histogram = single;
  EXPECT_EQ(to_prometheus_text({family}), merged_text);
}

TEST(Histogram, MergeRejectsMismatchedBounds) {
  Histogram a({1, 2});
  Histogram b({1, 3});
  HistogramSnapshot sa = a.snapshot();
  EXPECT_THROW(sa.merge(b.snapshot()), std::invalid_argument);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h({100, 200, 300});
  for (int i = 0; i < 100; ++i) h.observe(150);  // all in (100, 200]
  const HistogramSnapshot snap = h.snapshot();
  const double p50 = snap.quantile(0.5);
  EXPECT_GT(p50, 100.0);
  EXPECT_LE(p50, 200.0);
  // Overflow-bucket quantiles report the largest finite bound.
  Histogram over({100});
  over.observe(5000);
  EXPECT_EQ(over.snapshot().quantile(0.99), 100.0);
  // Empty histogram.
  EXPECT_EQ(Histogram({100}).snapshot().quantile(0.5), 0.0);

  // On the shared latency ladder, over a sample spread like real fan-out
  // latencies (2 µs .. 2 ms), each exact sorted-sample percentile and the
  // histogram's estimate land in the same bucket (a bucketed estimator
  // cannot promise more), and count and sum are exact.
  std::vector<std::uint64_t> sample;
  std::uint64_t sum = 0;
  util::Rng rng(99);
  Histogram latency(latency_bounds_ns());
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = 2'000 + rng.below(2'000'000);
    sample.push_back(v);
    sum += v;
    latency.observe(v);
  }
  const HistogramSnapshot latency_snap = latency.snapshot();
  EXPECT_EQ(latency_snap.count(), sample.size());
  EXPECT_EQ(latency_snap.sum, sum);
  std::sort(sample.begin(), sample.end());
  for (const double q : {0.5, 0.99}) {
    const std::uint64_t exact = sample[static_cast<std::size_t>(
        q * static_cast<double>(sample.size()))];
    const auto estimated =
        static_cast<std::uint64_t>(latency_snap.quantile(q));
    EXPECT_EQ(latency.bucket_index(exact), latency.bucket_index(estimated))
        << "q=" << q << " exact " << exact << " estimated " << estimated;
  }
}

TEST(Histogram, LadderHelpers) {
  const auto latency = latency_bounds_ns();
  EXPECT_EQ(latency.front(), 1000u);          // 1 µs
  EXPECT_EQ(latency.back(), 1'000'000'000u);  // 1 s
  const auto pow2 = pow2_bounds(4);
  EXPECT_EQ(pow2, (std::vector<std::uint64_t>{1, 2, 4, 8}));
  EXPECT_THROW(pow2_bounds(0), std::invalid_argument);
  EXPECT_THROW(pow2_bounds(64), std::invalid_argument);
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, HandlesAreStableAndIdempotent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("canids_frames_total", "frames");
  a.add(7);
  Counter& b = reg.counter("canids_frames_total", "frames");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);

  // Distinct label sets are distinct series; key order does not matter.
  Counter& s1 = reg.counter("canids_labeled_total", "x",
                            {{"stream", "v0"}, {"shard", "0"}});
  Counter& s2 = reg.counter("canids_labeled_total", "x",
                            {{"shard", "0"}, {"stream", "v0"}});
  EXPECT_EQ(&s1, &s2);
  Counter& other =
      reg.counter("canids_labeled_total", "x", {{"shard", "1"}, {"stream", "v0"}});
  EXPECT_NE(&s1, &other);
}

TEST(MetricsRegistry, RejectsMisuse) {
  MetricsRegistry reg;
  reg.counter("canids_ok_total", "help");
  // Same name, different kind.
  EXPECT_THROW(reg.gauge("canids_ok_total", "help"), std::invalid_argument);
  // Histogram bound mismatch on re-registration.
  reg.histogram("canids_lat_ns", "help", {1, 2, 3});
  EXPECT_THROW(reg.histogram("canids_lat_ns", "help", {1, 2, 4}),
               std::invalid_argument);
  // Bad metric / label names, reserved label.
  EXPECT_THROW(reg.counter("bad name", "help"), std::invalid_argument);
  EXPECT_THROW(reg.counter("canids_x_total", "help", {{"bad key", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(reg.counter("canids_x_total", "help", {{"le", "v"}}),
               std::invalid_argument);
}

// --------------------------------------------------------------- exposition

/// Byte-exact golden for a small fixed registry: families sorted by name,
/// series by labels, histogram rendered as cumulative buckets + sum +
/// count, HELP/label-value escaping applied.
TEST(Exposition, GoldenText) {
  MetricsRegistry reg;
  reg.gauge("canids_streams_active", "Streams currently open").set(-2);
  reg.counter("canids_frames_total", "Frames ingested").add(9326);
  reg.counter("canids_alerts_total", "Alerting windows",
              {{"stream", "veh\"0\\"}})
      .add(6);
  Histogram& h = reg.histogram("canids_scoring_batch_ns",
                               "Batch scoring latency\nnanoseconds", {10, 20});
  h.observe(5);
  h.observe(20);
  h.observe(99);

  const std::string expected =
      "# HELP canids_alerts_total Alerting windows\n"
      "# TYPE canids_alerts_total counter\n"
      "canids_alerts_total{stream=\"veh\\\"0\\\\\"} 6\n"
      "# HELP canids_frames_total Frames ingested\n"
      "# TYPE canids_frames_total counter\n"
      "canids_frames_total 9326\n"
      "# HELP canids_scoring_batch_ns Batch scoring latency\\nnanoseconds\n"
      "# TYPE canids_scoring_batch_ns histogram\n"
      "canids_scoring_batch_ns_bucket{le=\"10\"} 1\n"
      "canids_scoring_batch_ns_bucket{le=\"20\"} 2\n"
      "canids_scoring_batch_ns_bucket{le=\"+Inf\"} 3\n"
      "canids_scoring_batch_ns_sum 124\n"
      "canids_scoring_batch_ns_count 3\n"
      "# HELP canids_streams_active Streams currently open\n"
      "# TYPE canids_streams_active gauge\n"
      "canids_streams_active -2\n";
  EXPECT_EQ(to_prometheus_text(reg), expected);
  // Determinism: rendering twice yields the same bytes.
  EXPECT_EQ(to_prometheus_text(reg), expected);
}

// ---------------------------------------------------------------- event log

// A bool has no event field to render as; it must not become an integer.
static_assert(!std::is_constructible_v<EventLog::Value, bool>);

/// An event file in the test temp dir, removed on destruction.
struct EventFile {
  std::string path;
  explicit EventFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~EventFile() { std::remove(path.c_str()); }
  EventFile(const EventFile&) = delete;
  EventFile& operator=(const EventFile&) = delete;

  /// Every line of the file with its `ts_ns` value replaced by "T", after
  /// checking that value lies within [lo, hi] (two wall_now_ns() reads
  /// taken around the emits).
  [[nodiscard]] std::vector<std::string> lines(std::int64_t lo,
                                               std::int64_t hi) const {
    std::ifstream in(path);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);) {
      const std::string key = "\"ts_ns\":";
      const std::size_t at = line.find(key);
      const std::size_t begin = at + key.size();
      const std::size_t end = line.find(',', begin);
      EXPECT_TRUE(at != std::string::npos && end != std::string::npos)
          << line;
      if (at == std::string::npos || end == std::string::npos) continue;
      const std::int64_t ts = std::stoll(line.substr(begin, end - begin));
      EXPECT_GE(ts, lo) << line;
      EXPECT_LE(ts, hi) << line;
      out.push_back(line.substr(0, begin) + "T" + line.substr(end));
    }
    return out;
  }
};

TEST(EventLog, RendersFixedLines) {
  const EventFile file("canids_events_render.jsonl");
  const std::int64_t lo = wall_now_ns();
  {
    EventLog log(file.path);
    EXPECT_EQ(
        log.emit("serve_start", {{"uds", "/tmp/x.sock"}, {"tcp_port", -1}}),
        0u);
    EXPECT_EQ(log.emit("model_reload", {{"generation", std::uint64_t{3}},
                                        {"streams", std::int64_t{-7}}}),
              1u);
    log.flush();
    EXPECT_TRUE(log.ok());
  }
  const std::int64_t hi = wall_now_ns();
  EXPECT_EQ(file.lines(lo, hi),
            (std::vector<std::string>{
                "{\"seq\":0,\"ts_ns\":T,\"type\":\"serve_start\","
                "\"uds\":\"/tmp/x.sock\",\"tcp_port\":-1}",
                "{\"seq\":1,\"ts_ns\":T,\"type\":\"model_reload\","
                "\"generation\":3,\"streams\":-7}"}));
}

TEST(EventLog, EscapesStrings) {
  const EventFile file("canids_events_escape.jsonl");
  const std::int64_t lo = wall_now_ns();
  {
    EventLog log(file.path);
    log.emit("stream_open", {{"stream", "a\"b\\c\nd"}});
  }
  const std::int64_t hi = wall_now_ns();
  EXPECT_EQ(file.lines(lo, hi),
            (std::vector<std::string>{
                "{\"seq\":0,\"ts_ns\":T,\"type\":\"stream_open\","
                "\"stream\":\"a\\\"b\\\\c\\nd\"}"}));
}

/// Sequence numbers must be strictly increasing in file order even when
/// many threads emit concurrently — seq assignment and the write share
/// one critical section.
TEST(EventLog, ConcurrentEmittersKeepFileOrder) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  const EventFile file("canids_events_concurrent.jsonl");
  const std::int64_t lo = wall_now_ns();
  {
    EventLog log(file.path);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, t] {
        for (int i = 0; i < kPerThread; ++i) {
          log.emit("tick", {{"thread", t}});
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(log.emit("done"),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  const std::int64_t hi = wall_now_ns();

  std::uint64_t expected_seq = 0;
  for (const std::string& line : file.lines(lo, hi)) {
    const std::string prefix = "{\"seq\":" + std::to_string(expected_seq) + ",";
    ASSERT_EQ(line.compare(0, prefix.size(), prefix), 0)
        << "line " << expected_seq << ": " << line;
    ++expected_seq;
  }
  EXPECT_EQ(expected_seq,
            static_cast<std::uint64_t>(kThreads * kPerThread + 1));
}

TEST(EventLog, FileSinkRoundTrip) {
  const EventFile file("canids_events_test.jsonl");
  const std::int64_t lo = wall_now_ns();
  {
    EventLog log(file.path);
    log.emit("serve_stop", {{"connections", std::uint64_t{4}}});
  }
  const std::int64_t hi = wall_now_ns();
  EXPECT_EQ(file.lines(lo, hi),
            (std::vector<std::string>{
                "{\"seq\":0,\"ts_ns\":T,\"type\":\"serve_stop\","
                "\"connections\":4}"}));
  EXPECT_THROW(EventLog("/nonexistent-dir/never/events.jsonl"),
               std::runtime_error);
}

/// A full disk loses the lines without taking detection down: emit() never
/// throws, and ok() reports the loss once the buffer is flushed.
TEST(EventLog, FullSinkReadsNotOkAfterFlush) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EventLog log("/dev/full");
  EXPECT_NO_THROW(log.emit("serve_start", {{"uds", "/tmp/x.sock"}}));
  EXPECT_NO_THROW(log.flush());
  EXPECT_FALSE(log.ok());
  EXPECT_NO_THROW(log.emit("serve_stop"));
  EXPECT_FALSE(log.ok());
}

}  // namespace
}  // namespace canids::telemetry
