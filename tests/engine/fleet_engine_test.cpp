#include "engine/fleet_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/registry.h"
#include "attacks/scenario.h"
#include "baselines/interval_ids.h"
#include "can/bus.h"
#include "ids/bit_counters.h"
#include "ids/golden_template.h"
#include "metrics/experiment.h"
#include "trace/synthetic_vehicle.h"
#include "trace/trace_source.h"
#include "util/rng.h"

namespace canids::engine {
namespace {

using ids::BitCounters;
using ids::GoldenTemplate;
using ids::PipelineConfig;
using ids::TemplateBuilder;
using ids::WindowSnapshot;
using util::kSecond;

/// Replays an in-memory frame list, standing in for a capture file.
class FrameListSource final : public trace::TraceSource {
 public:
  explicit FrameListSource(std::vector<can::TimedFrame> frames)
      : frames_(std::move(frames)) {}
  std::optional<can::TimedFrame> next() override {
    if (index_ >= frames_.size()) return std::nullopt;
    return frames_[index_++];
  }

 private:
  std::vector<can::TimedFrame> frames_;
  std::size_t index_ = 0;
};

/// One frame as a one-item batch (push_batch is the only way in).
void push_one(FleetEngine::Stream& stream, util::TimeNs timestamp,
              can::CanId id) {
  const FleetEngine::FrameItem item{timestamp, id};
  stream.push_batch(&item, 1);
}

/// Fleet fixture: one shared template, per-vehicle deterministic frame
/// streams (clean mix plus optional injected bursts), mirroring the
/// backend_test world.
struct FleetWorld {
  std::vector<std::uint32_t> pool = {0x080, 0x120, 0x1C0, 0x260, 0x300,
                                     0x3A0, 0x440, 0x4E0, 0x580, 0x620};
  std::shared_ptr<const GoldenTemplate> golden;

  FleetWorld() {
    TemplateBuilder builder;
    util::Rng rng(5);
    for (int w = 0; w < 40; ++w) {
      BitCounters counters;
      for (std::uint32_t id : pool) {
        const int count = 30 + static_cast<int>(rng.between(-1, 1));
        for (int i = 0; i < count; ++i) counters.add(id);
      }
      WindowSnapshot snap;
      snap.frames = counters.total();
      snap.probabilities = counters.probabilities();
      snap.entropies = counters.entropies();
      builder.add_window(snap);
    }
    golden = std::make_shared<const GoldenTemplate>(
        builder.build(ids::kPaperTrainingWindows));
  }

  /// `seconds` of traffic; seconds listed in `attacked` get 120 injected
  /// frames of pool[4]. Deterministic per (vehicle_seed).
  [[nodiscard]] std::vector<can::TimedFrame> make_trace(
      std::uint64_t vehicle_seed, int seconds,
      const std::vector<int>& attacked = {}) const {
    std::vector<can::TimedFrame> frames;
    for (int s = 0; s < seconds; ++s) {
      std::vector<std::uint32_t> stream;
      for (std::uint32_t id : pool) {
        for (int i = 0; i < 30; ++i) stream.push_back(id);
      }
      const bool attack =
          std::find(attacked.begin(), attacked.end(), s) != attacked.end();
      if (attack) {
        for (int i = 0; i < 120; ++i) stream.push_back(pool[4]);
      }
      util::Rng shuffle_rng(vehicle_seed * 1000 +
                            static_cast<std::uint64_t>(s));
      for (std::size_t i = stream.size(); i > 1; --i) {
        std::swap(stream[i - 1], stream[shuffle_rng.below(i)]);
      }
      const util::TimeNs start = static_cast<util::TimeNs>(s) * kSecond;
      const util::TimeNs step =
          kSecond / static_cast<util::TimeNs>(stream.size());
      for (std::size_t i = 0; i < stream.size(); ++i) {
        frames.push_back(can::TimedFrame{
            start + static_cast<util::TimeNs>(i) * step,
            can::Frame::data_frame(can::CanId::standard(stream[i]), {}),
            can::TimedFrame::kUnknownSource});
      }
    }
    return frames;
  }

  [[nodiscard]] PipelineConfig pipeline_config() const {
    PipelineConfig config;
    config.window.duration = kSecond;
    return config;
  }

  /// DetectorOptions driving any registered backend over this world.
  /// Baselines self-calibrate on each stream's first 3 windows.
  [[nodiscard]] analysis::DetectorOptions backend_options() const {
    analysis::DetectorOptions options;
    options.golden = golden;
    options.pipeline = pipeline_config();
    options.calibration_windows = 3;
    return options;
  }

  /// The bit-entropy prototype most tests shard: the world's template and
  /// pipeline config with an empty id pool, so only streams opened with a
  /// pool run malicious-ID inference.
  [[nodiscard]] std::unique_ptr<analysis::DetectorBackend> bit_entropy()
      const {
    return analysis::make_detector("bit-entropy", backend_options());
  }
};

/// Sequential reference: one cloned backend over the same frames.
[[nodiscard]] std::vector<analysis::WindowVerdict> sequential_verdicts(
    const analysis::DetectorBackend& prototype,
    const std::vector<std::uint32_t>& pool,
    const std::vector<can::TimedFrame>& frames) {
  const std::unique_ptr<analysis::DetectorBackend> backend =
      prototype.clone_for_stream(pool);
  std::vector<analysis::WindowVerdict> verdicts;
  for (const can::TimedFrame& frame : frames) {
    if (auto verdict = backend->on_frame(frame.timestamp, frame.frame.id())) {
      verdicts.push_back(std::move(*verdict));
    }
  }
  if (auto verdict = backend->finish()) verdicts.push_back(std::move(*verdict));
  return verdicts;
}

/// The acceptance bar for every registered backend: a sharded fleet run
/// produces byte-identical per-stream verdicts to a sequential run,
/// whatever the shard count. With the streams' pool on the prototype too,
/// every bit-entropy stream shares the prototype's inference engine across
/// shards; without it, each stream builds its own.
TEST(FleetEngineTest, ShardedRunMatchesSequentialForEveryRegisteredBackend) {
  const FleetWorld world;
  std::map<std::string, std::vector<can::TimedFrame>> traces;
  traces["car-00"] = world.make_trace(1, 6);
  traces["car-01"] = world.make_trace(2, 6, {2, 3});
  traces["car-02"] = world.make_trace(3, 6);
  traces["car-03"] = world.make_trace(4, 6, {1});

  for (const analysis::DetectorInfo& info :
       analysis::DetectorRegistry::instance().list()) {
    const std::string& name = info.name;
    const std::unique_ptr<analysis::DetectorBackend> reference =
        analysis::make_detector(name, world.backend_options());

    for (const bool pooled_prototype : {false, true}) {
      for (const int shards : {1, 3, 8}) {
        FleetConfig config;
        config.shards = shards;
        config.queue_capacity = 256;  // small queues: exercise backpressure
        config.collect_verdicts = true;

        analysis::DetectorOptions options = world.backend_options();
        if (pooled_prototype) options.id_pool = world.pool;
        FleetEngine engine(analysis::make_detector(name, options), config);
        std::vector<NamedSource> sources;
        for (const auto& [key, frames] : traces) {
          sources.push_back(NamedSource{
              key, std::make_unique<FrameListSource>(frames), world.pool});
        }
        FleetRunResult run = run_fleet(engine, std::move(sources));
        ASSERT_TRUE(run.errors.empty());
        ASSERT_EQ(run.streams.size(), traces.size());

        for (const StreamResult& stream : run.streams) {
          const std::vector<analysis::WindowVerdict> expected =
              sequential_verdicts(*reference, world.pool,
                                  traces.at(stream.key));
          EXPECT_EQ(stream.verdicts, expected)
              << "backend " << name << ", stream " << stream.key
              << " diverged at " << shards << " shards"
              << (pooled_prototype ? " (pooled prototype)" : "");
          EXPECT_EQ(stream.counters.frames, traces.at(stream.key).size());
          EXPECT_EQ(stream.counters.parse_errors, 0u);
        }
      }
    }
  }
}

TEST(FleetEngineTest, TotalsAggregateAllStreams) {
  const FleetWorld world;
  FleetConfig config;
  config.shards = 2;

  FleetEngine engine(world.bit_entropy(), config);
  std::vector<NamedSource> sources;
  std::size_t expected_frames = 0;
  for (int v = 0; v < 5; ++v) {
    auto frames = world.make_trace(static_cast<std::uint64_t>(v) + 10, 4);
    expected_frames += frames.size();
    sources.push_back(NamedSource{
        "veh-" + std::to_string(v),
        std::make_unique<FrameListSource>(std::move(frames)),
        {}});
  }
  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_TRUE(run.errors.empty());

  ids::PipelineCounters sum;
  for (const StreamResult& stream : run.streams) sum += stream.counters;
  EXPECT_EQ(engine.totals(), sum);
  EXPECT_EQ(engine.totals().frames, expected_frames);
  EXPECT_GT(engine.totals().windows_closed, 0u);
}

TEST(FleetEngineTest, AlertSinkSeesOnlyAttackedStreams) {
  const FleetWorld world;
  FleetConfig config;
  config.shards = 4;

  FleetEngine engine(world.bit_entropy(), config);
  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "clean",
      std::make_unique<FrameListSource>(world.make_trace(21, 6)),
      world.pool});
  sources.push_back(NamedSource{
      "attacked",
      std::make_unique<FrameListSource>(
          world.make_trace(22, 6, {1, 2, 3})),
      world.pool});

  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_TRUE(run.errors.empty());

  const std::vector<FleetAlert> alerts = engine.alerts().take();
  ASSERT_FALSE(alerts.empty());
  std::size_t counted = 0;
  for (const FleetAlert& alert : alerts) {
    EXPECT_EQ(alert.stream, "attacked");
    EXPECT_TRUE(alert.verdict.alert);
    ASSERT_TRUE(alert.verdict.detail.has_value());
    // Inference runs because the stream was opened with an id pool.
    EXPECT_FALSE(alert.verdict.detail->ranked_candidates.empty());
    ++counted;
  }
  EXPECT_EQ(engine.totals().alerts, counted);
  for (const StreamResult& stream : run.streams) {
    if (stream.key == "clean") {
      EXPECT_EQ(stream.counters.alerts, 0u);
    }
    if (stream.key == "attacked") {
      EXPECT_EQ(stream.counters.alerts, counted);
    }
  }
}

TEST(AlertSinkTest, HandlerModeStreamsWithoutRetaining) {
  AlertSink sink;
  std::size_t seen = 0;
  sink.set_handler([&seen](const FleetAlert&) { ++seen; });
  sink.publish(FleetAlert{"s", {}});
  sink.publish(FleetAlert{"s", {}});
  EXPECT_EQ(seen, 2u);
  EXPECT_TRUE(sink.take().empty()) << "handler mode must not retain";
}

TEST(FleetEngineTest, StreamKeysRouteToStableShards) {
  const FleetWorld world;
  FleetConfig config;
  config.shards = 4;
  FleetEngine engine(world.bit_entropy(), config);
  EXPECT_EQ(engine.shards(), 4);
  for (const std::string key : {"a", "bb", "ccc"}) {
    const int shard = engine.shard_of(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, engine.shard_of(key)) << "unstable hash for " << key;
  }
}

TEST(FleetEngineTest, FatalIngestErrorsAreReportedPerStream) {
  const FleetWorld world;

  /// A source that yields a few frames, then fails hard (I/O error,
  /// truncated container) — unlike a per-line ParseError, this ends the
  /// stream.
  class FailingSource final : public trace::TraceSource {
   public:
    explicit FailingSource(std::vector<can::TimedFrame> frames)
        : frames_(std::move(frames)) {}
    std::optional<can::TimedFrame> next() override {
      if (index_ < frames_.size()) return frames_[index_++];
      throw std::runtime_error("synthetic I/O failure");
    }

   private:
    std::vector<can::TimedFrame> frames_;
    std::size_t index_ = 0;
  };

  FleetConfig config;
  config.shards = 2;
  FleetEngine engine(world.bit_entropy(), config);

  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "good", std::make_unique<FrameListSource>(world.make_trace(31, 3)),
      {}});
  sources.push_back(NamedSource{
      "bad", std::make_unique<FailingSource>(world.make_trace(32, 1)), {}});

  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_EQ(run.errors.size(), 1u);
  EXPECT_EQ(run.errors[0].first, "bad");
  EXPECT_NE(run.errors[0].second.find("synthetic I/O failure"),
            std::string::npos);
  // Both streams still produce results; the bad one kept its pre-failure
  // frames.
  ASSERT_EQ(run.streams.size(), 2u);
  for (const StreamResult& stream : run.streams) {
    EXPECT_GT(stream.counters.frames, 0u) << stream.key;
  }
}

TEST(FleetEngineTest, ParseErrorsAreCountedAndIngestRecovers) {
  const FleetWorld world;

  /// Simulates a capture with malformed lines sprinkled between frames:
  /// throws ParseError every `period`-th call, like a real parser that has
  /// consumed the bad line and can continue.
  class FlakySource final : public trace::TraceSource {
   public:
    FlakySource(std::vector<can::TimedFrame> frames, std::size_t period)
        : frames_(std::move(frames)), period_(period) {}
    std::optional<can::TimedFrame> next() override {
      ++calls_;
      if (calls_ % period_ == 0) {
        throw trace::ParseError("bad line", calls_);
      }
      if (index_ < frames_.size()) return frames_[index_++];
      return std::nullopt;
    }

   private:
    std::vector<can::TimedFrame> frames_;
    std::size_t period_;
    std::size_t calls_ = 0;
    std::size_t index_ = 0;
  };

  FleetConfig config;
  config.shards = 2;
  FleetEngine engine(world.bit_entropy(), config);

  const std::vector<can::TimedFrame> frames = world.make_trace(41, 3);
  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "flaky", std::make_unique<FlakySource>(frames, 100), {}});
  sources.push_back(NamedSource{
      "clean", std::make_unique<FrameListSource>(frames), {}});

  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_TRUE(run.errors.empty())
      << "per-line parse errors must not be fatal";
  ASSERT_EQ(run.streams.size(), 2u);
  for (const StreamResult& stream : run.streams) {
    // Every real frame made it through, malformed lines or not.
    EXPECT_EQ(stream.counters.frames, frames.size()) << stream.key;
    if (stream.key == "flaky") {
      EXPECT_GT(stream.counters.parse_errors, 0u);
    } else {
      EXPECT_EQ(stream.counters.parse_errors, 0u);
    }
  }
  EXPECT_GT(engine.totals().parse_errors, 0u);
}

TEST(FleetEngineTest, RejectsInvalidQueueAndBatchConfig) {
  const FleetWorld world;
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1000},
                                     std::size_t{3}}) {
    FleetConfig config;
    config.queue_capacity = capacity;
    EXPECT_THROW(FleetEngine(world.bit_entropy(), config),
                 std::invalid_argument)
        << "queue_capacity " << capacity;
  }
  {
    FleetConfig config;
    config.drain_batch = 0;
    EXPECT_THROW(FleetEngine(world.bit_entropy(), config),
                 std::invalid_argument);
  }
  // Power-of-two capacities (including 1) construct fine.
  FleetConfig config;
  config.queue_capacity = 1;
  FleetEngine engine(world.bit_entropy(), config);
  EXPECT_EQ(engine.config().queue_capacity, 1u);
}

TEST(FleetEngineTest, TinyQueueAndDrainBatchStillMatchSequential) {
  // The batched queue publish/drain must degrade gracefully at the
  // smallest legal sizes — heavy backpressure, one frame per publish.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(51, 4, {2});

  const auto sequential = world.bit_entropy();
  for (const can::TimedFrame& frame : frames) {
    (void)sequential->on_frame(frame.timestamp, frame.frame.id());
  }
  (void)sequential->finish();
  const std::uint64_t expected_alerts = sequential->counters().alerts;

  FleetConfig config;
  config.shards = 2;
  config.queue_capacity = 2;
  config.drain_batch = 1;
  FleetEngine engine(world.bit_entropy(), config);
  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "tiny", std::make_unique<FrameListSource>(frames), {}});
  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_TRUE(run.errors.empty());
  EXPECT_EQ(engine.totals().frames, frames.size());
  EXPECT_EQ(engine.totals().alerts, expected_alerts);
}

TEST(FleetEngineTest, StreamsOpenedWhileRunningMatchPreStartStreams) {
  // The live-service pattern: clients connect after start(). A stream
  // opened mid-run must produce exactly the verdicts of one opened before.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(61, 5, {1, 3});

  const auto run_with = [&](bool open_before_start) {
    FleetConfig config;
    config.shards = 2;
    config.collect_verdicts = true;
    FleetEngine engine(world.bit_entropy(), config);
    std::optional<FleetEngine::Stream> stream;
    if (open_before_start) stream = engine.open_stream("veh");
    engine.start();
    if (!open_before_start) stream = engine.open_stream("veh");
    for (const can::TimedFrame& frame : frames) {
      push_one(*stream, frame.timestamp, frame.frame.id());
    }
    stream->close();
    std::vector<StreamResult> results = engine.finish();
    return results.at(0).verdicts;
  };

  const std::vector<analysis::WindowVerdict> before = run_with(true);
  const std::vector<analysis::WindowVerdict> after = run_with(false);
  ASSERT_FALSE(before.empty());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].start, after[i].start);
    EXPECT_EQ(before[i].frames, after[i].frames);
    EXPECT_EQ(before[i].alert, after[i].alert);
    EXPECT_EQ(before[i].metric, after[i].metric);
  }
}

TEST(FleetEngineTest, StreamCountIsSafeWhileStreamsOpen) {
  // A serve client waits for its connections this way: one thread opens
  // streams on the running engine while another polls stream_count()
  // until it reads them all. The TSan leg checks the read.
  const FleetWorld world;
  FleetConfig config;
  config.shards = 2;
  FleetEngine engine(world.bit_entropy(), config);
  engine.start();
  constexpr std::size_t kStreams = 16;
  std::vector<FleetEngine::Stream> streams;
  std::thread opener([&] {
    for (std::size_t i = 0; i < kStreams; ++i) {
      streams.push_back(engine.open_stream("veh-" + std::to_string(i)));
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::size_t seen = 0;
  while (seen < kStreams && std::chrono::steady_clock::now() < deadline) {
    const std::size_t count = engine.stream_count();
    EXPECT_GE(count, seen);
    seen = count;
    std::this_thread::yield();
  }
  opener.join();
  EXPECT_EQ(seen, kStreams);
  for (FleetEngine::Stream& stream : streams) stream.close();
  EXPECT_EQ(engine.finish().size(), kStreams);
}

TEST(FleetEngineTest, MidWindowDisconnectFlushesFinalPartialWindow) {
  // A client hanging up 2.5 windows in must still get the half window
  // judged — same accounting as a sequential backend's finish().
  const FleetWorld world;
  std::vector<can::TimedFrame> frames = world.make_trace(71, 3);
  // Truncate mid-window: keep everything before t = 2.5 s.
  std::erase_if(frames, [](const can::TimedFrame& frame) {
    return frame.timestamp >= 2 * kSecond + kSecond / 2;
  });

  const std::unique_ptr<analysis::DetectorBackend> sequential =
      analysis::make_detector("bit-entropy", world.backend_options())
          ->clone_for_stream();
  std::uint64_t sequential_windows = 0;
  for (const can::TimedFrame& frame : frames) {
    if (sequential->on_frame(frame.timestamp, frame.frame.id())) {
      ++sequential_windows;
    }
  }
  ASSERT_TRUE(sequential->finish().has_value());  // the partial window
  ++sequential_windows;
  EXPECT_EQ(sequential_windows, 3u);  // 2 full + 1 partial

  FleetConfig config;
  FleetEngine engine(world.bit_entropy(), config);
  engine.start();
  FleetEngine::Stream stream = engine.open_stream("veh");
  for (const can::TimedFrame& frame : frames) {
    push_one(stream, frame.timestamp, frame.frame.id());
  }
  stream.close();
  const std::vector<StreamResult> results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.windows_closed, sequential_windows);
  EXPECT_EQ(results[0].counters.frames, frames.size());
}

TEST(FleetEngineTest, DropNewestBackpressureCountsDiscardedFrames) {
  const FleetWorld world;
  FleetConfig config;
  config.queue_capacity = 8;
  config.on_full = BackpressurePolicy::kDropNewest;
  FleetEngine engine(world.bit_entropy(), config);

  // Workers not started: the queue cannot drain, so pushes past the ring's
  // usable capacity must be discarded and counted instead of blocking
  // forever. (The ring rounds up internally, so we assert the accounting
  // invariant rather than an exact in-flight count.)
  FleetEngine::Stream stream = engine.open_stream("veh");
  const std::uint64_t pushed = 50;
  for (std::uint64_t i = 0; i < pushed; ++i) {
    push_one(stream, static_cast<util::TimeNs>(i),
             can::CanId::standard(0x080));
  }
  EXPECT_GT(stream.queue_dropped(), 0u);
  EXPECT_LT(stream.queue_dropped(), pushed);

  engine.start();
  stream.close();
  const std::vector<StreamResult> results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  // Disjoint accounting: detector-fed frames + queue-dropped == pushed.
  EXPECT_EQ(results[0].counters.queue_dropped, stream.queue_dropped());
  EXPECT_EQ(results[0].counters.frames + results[0].counters.queue_dropped,
            pushed);
}

TEST(FleetEngineTest, ReloadingIdenticalModelsKeepsVerdictsAndBumpsGeneration) {
  // The hot-reload invariant the live service's CI gate rests on: swapping
  // in the same trained models mid-stream must not change any verdict,
  // even when the swap lands mid-window.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(81, 6, {2, 4});

  const auto run_with_reload_at = [&](std::size_t reload_index) {
    FleetConfig config;
    config.collect_verdicts = true;
    // Inference on (id_pool set): a reload must also preserve the ranked
    // malicious-ID candidates, not just the alert bit and metric.
    analysis::DetectorOptions options = world.backend_options();
    options.id_pool = world.pool;
    FleetEngine engine(analysis::make_detector("bit-entropy", options),
                       config);
    engine.start();
    FleetEngine::Stream stream = engine.open_stream("veh");
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i == reload_index) {
        model::StoredModels models;
        models.golden = world.golden;
        engine.reload_models(models);
      }
      push_one(stream, frames[i].timestamp, frames[i].frame.id());
    }
    stream.close();
    std::vector<StreamResult> results = engine.finish();
    return std::pair{engine.model_generation(),
                     std::move(results.at(0).verdicts)};
  };

  const auto [gen_none, baseline] = run_with_reload_at(frames.size() + 1);
  const auto [gen_mid, reloaded] = run_with_reload_at(frames.size() / 2);
  EXPECT_EQ(gen_none, 0u);
  EXPECT_EQ(gen_mid, 1u);
  ASSERT_FALSE(baseline.empty());
  ASSERT_EQ(baseline.size(), reloaded.size());
  bool saw_candidates = false;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].start, reloaded[i].start);
    EXPECT_EQ(baseline[i].frames, reloaded[i].frames);
    EXPECT_EQ(baseline[i].alert, reloaded[i].alert);
    EXPECT_EQ(baseline[i].metric, reloaded[i].metric);
    EXPECT_EQ(baseline[i].detail, reloaded[i].detail);
    if (baseline[i].detail && !baseline[i].detail->ranked_candidates.empty()) {
      saw_candidates = true;
    }
  }
  EXPECT_TRUE(saw_candidates);  // the trace must actually exercise inference
}

TEST(FleetEngineTest, ReloadRejectsIncompatibleModelsAtomically) {
  // An ensemble takes a model set all or nothing. This set's template would
  // suit the bit-entropy member, but its interval model is unfrozen, which
  // the interval member refuses: the reload must fail whole, leaving the
  // generation and the prototype (hence every stream cloned from it)
  // untouched.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(83, 6, {2, 4});
  TemplateBuilder single_id;
  for (int w = 0; w < 3; ++w) {
    BitCounters counters;
    for (int i = 0; i < 40; ++i) counters.add(world.pool[4]);
    WindowSnapshot snap;
    snap.frames = counters.total();
    snap.probabilities = counters.probabilities();
    snap.entropies = counters.entropies();
    single_id.add_window(snap);
  }
  model::StoredModels bad;
  bad.golden = std::make_shared<const GoldenTemplate>(single_id.build(3));
  bad.interval = std::make_shared<const baselines::IntervalIds>();

  const auto run = [&](bool try_reload) {
    FleetConfig config;
    config.collect_verdicts = true;
    FleetEngine engine(
        analysis::make_detector("ensemble", world.backend_options()), config);
    engine.start();
    if (try_reload) {
      EXPECT_THROW(engine.reload_models(bad), std::invalid_argument);
      EXPECT_EQ(engine.model_generation(), 0u);
    }
    FleetEngine::Stream stream = engine.open_stream("veh");
    for (const can::TimedFrame& frame : frames) {
      push_one(stream, frame.timestamp, frame.frame.id());
    }
    stream.close();
    std::vector<StreamResult> results = engine.finish();
    return std::move(results.at(0).verdicts);
  };
  const std::vector<analysis::WindowVerdict> untouched = run(false);
  ASSERT_FALSE(untouched.empty());
  EXPECT_EQ(run(true), untouched);
}

TEST(FleetEngineTest, FuzzedStreamLeavesCleanShardMateUndropped) {
  // The pace is set for release speed. Unoptimised and sanitizer builds
  // run inference many times slower, which says nothing about the engine.
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "paced test: needs an optimised build without sanitizers";
#endif
  // The live-service shape: one shard under drop-newest, a vehicle fuzzing
  // at 100 Hz whose every alert runs malicious-ID inference (the stream
  // has the vehicle's pool), and a clean vehicle on the same shard, both
  // paced at 30x real time. A window then lasts ~33 ms of wall time, and
  // inference runs inline on the shard worker, so the clean stream only
  // stays lossless while an alert's inference fits inside that. Each ring
  // holds 4,095 frames, ~4.6 s of the clean vehicle's traffic or ~150 ms
  // of wall time: enough for scheduling jitter, but a shard that falls
  // behind the pace overflows it within the drive. (The default ring
  // holds 16,383, nearly the whole 17,697-frame clean drive, so nothing
  // could overflow it here.)
  constexpr double kSpeedup = 30.0;
  constexpr util::TimeNs kDrive = 20 * kSecond;
  const trace::SyntheticVehicle vehicle;
  metrics::ExperimentRunner runner;
  analysis::DetectorOptions options;
  options.golden = runner.train_shared();
  options.id_pool = vehicle.id_pool();

  std::vector<can::TimedId> fuzzed;
  {
    can::BusSimulator bus(vehicle.config().bus);
    vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 21);
    attacks::AttackConfig attack_config;
    attack_config.frequency_hz = 100.0;
    attack_config.start = 2 * kSecond;
    attack_config.stop = kDrive - 2 * kSecond;
    attacks::BuiltAttack attack = attacks::make_scenario(
        attacks::ScenarioKind::kFuzzing, vehicle, attack_config,
        util::Rng(22));
    (void)attacks::attach_attack(bus, attack);
    bus.add_listener([&fuzzed](const can::TimedFrame& frame) {
      fuzzed.push_back(can::TimedId{frame.timestamp, frame.frame.id()});
    });
    bus.run_until(kDrive);
  }
  std::vector<can::TimedId> clean;
  for (const trace::LogRecord& record :
       vehicle.record_trace(trace::DrivingBehavior::kHighway, kDrive, 23)) {
    clean.push_back(can::TimedId{record.timestamp, record.frame.id()});
  }

  FleetConfig config;
  config.shards = 1;
  config.queue_capacity = 2048;
  config.on_full = BackpressurePolicy::kDropNewest;
  config.collect_verdicts = true;
  FleetEngine engine(analysis::make_detector("bit-entropy", options), config);
  FleetEngine::Stream attacked = engine.open_stream("fuzzed");
  FleetEngine::Stream quiet = engine.open_stream("clean");
  engine.start();
  // Open loop: each tick offers both streams everything due by then.
  std::size_t next_fuzzed = 0;
  std::size_t next_clean = 0;
  const auto offer = [](FleetEngine::Stream& stream,
                        const std::vector<can::TimedId>& frames,
                        std::size_t& next, util::TimeNs due) {
    std::size_t end = next;
    while (end < frames.size() && frames[end].timestamp <= due) ++end;
    stream.push_batch(frames.data() + next, end - next);
    next = end;
  };
  const auto start = std::chrono::steady_clock::now();
  while (next_fuzzed < fuzzed.size() || next_clean < clean.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::chrono::nanoseconds elapsed =
        std::chrono::steady_clock::now() - start;
    const auto due = static_cast<util::TimeNs>(
        static_cast<double>(elapsed.count()) * kSpeedup);
    offer(attacked, fuzzed, next_fuzzed, due);
    offer(quiet, clean, next_clean, due);
  }
  attacked.close();
  quiet.close();
  const std::vector<StreamResult> results = engine.finish();

  ASSERT_EQ(results.size(), 2u);
  const StreamResult& fuzzed_result =
      results[0].key == "fuzzed" ? results[0] : results[1];
  const StreamResult& clean_result =
      results[0].key == "clean" ? results[0] : results[1];
  EXPECT_EQ(clean_result.counters.queue_dropped, 0u);
  EXPECT_EQ(clean_result.counters.frames, clean.size());
  const bool inferred = std::any_of(
      fuzzed_result.verdicts.begin(), fuzzed_result.verdicts.end(),
      [](const analysis::WindowVerdict& verdict) {
        return verdict.alert && verdict.detail &&
               !verdict.detail->ranked_candidates.empty();
      });
  EXPECT_TRUE(inferred);  // the shard really ran inference
}

TEST(FleetEngineTest, StatusReportsLiveCountersAndDrainState) {
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(91, 3);
  FleetConfig config;
  FleetEngine engine(world.bit_entropy(), config);
  engine.start();

  FleetEngine::Stream stream = engine.open_stream("veh-a");
  for (const can::TimedFrame& frame : frames) {
    push_one(stream, frame.timestamp, frame.frame.id());
  }
  stream.record_parse_error();

  // Before close: the row exists, is not drained, and converges on the
  // pushed frame count as the worker catches up.
  std::vector<StreamStatus> status = engine.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].key, "veh-a");
  EXPECT_FALSE(status[0].drained);

  stream.close();
  for (int i = 0; i < 2000 && !status[0].drained; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    status = engine.status();
    ASSERT_EQ(status.size(), 1u);
  }
  EXPECT_TRUE(status[0].closed);
  EXPECT_TRUE(status[0].drained);
  EXPECT_EQ(status[0].counters.frames, frames.size());
  EXPECT_EQ(status[0].counters.parse_errors, 1u);
  EXPECT_EQ(status[0].queue_depth, 0u);

  engine.finish();
}

TEST(FleetEngineTest, TelemetrySamplingDoesNotChangeVerdicts) {
  // The zero-perturbation contract behind --telemetry-sample: timing the
  // hot path must never alter a verdict, only add histogram observations.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(71, 6, {1, 4});

  const auto run_with =
      [&](std::shared_ptr<telemetry::MetricsRegistry> registry,
          std::size_t sample) {
        FleetConfig config;
        config.shards = 2;
        config.collect_verdicts = true;
        config.metrics = std::move(registry);
        config.telemetry_sample = sample;
        FleetEngine engine(world.bit_entropy(), config);
        FleetEngine::Stream stream = engine.open_stream("veh");
        engine.start();
        for (const can::TimedFrame& frame : frames) {
          push_one(stream, frame.timestamp, frame.frame.id());
        }
        stream.close();
        std::vector<StreamResult> results = engine.finish();
        return results.at(0).verdicts;
      };

  const auto registry = std::make_shared<telemetry::MetricsRegistry>();
  const std::vector<analysis::WindowVerdict> plain = run_with(nullptr, 0);
  const std::vector<analysis::WindowVerdict> sampled = run_with(registry, 3);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, sampled);  // WindowVerdict compares member-wise

  // The sampled run actually recorded hot-path latencies.
  const auto families = registry->snapshot();
  const auto scoring = std::find_if(
      families.begin(), families.end(), [](const auto& family) {
        return family.name == "canids_scoring_batch_ns";
      });
  ASSERT_NE(scoring, families.end());
  ASSERT_EQ(scoring->series.size(), 1u);
  EXPECT_GT(scoring->series[0].histogram.count(), 0u);
}

TEST(FleetEngineTest, PublishMetricsFoldsStatusIntoRegistry) {
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(81, 4, {2});

  FleetConfig config;
  config.metrics = std::make_shared<telemetry::MetricsRegistry>();
  FleetEngine engine(world.bit_entropy(), config);
  FleetEngine::Stream stream = engine.open_stream("veh");
  engine.start();
  for (const can::TimedFrame& frame : frames) {
    push_one(stream, frame.timestamp, frame.frame.id());
  }
  stream.record_parse_error();
  stream.close();
  engine.finish();

  engine.publish_metrics();
  const auto value = [&](std::string_view name) {
    return config.metrics->counter(name, "").value();
  };
  // One source of truth: the registry folds the same totals status()
  // reports.
  EXPECT_EQ(value("canids_frames_total"), frames.size());
  EXPECT_EQ(value("canids_parse_errors_total"), 1u);
  EXPECT_EQ(value("canids_streams_opened_total"), 1u);
  EXPECT_EQ(value("canids_streams_drained_total"), 1u);
  EXPECT_EQ(value("canids_alerts_total"), engine.totals().alerts);
  EXPECT_GT(engine.totals().alerts, 0u);
  EXPECT_EQ(config.metrics->gauge("canids_model_generation", "").value(), 0);
  EXPECT_EQ(config.metrics->gauge("canids_streams_active", "").value(), 0);

  // publish_metrics is a fold — re-publishing never regresses a counter.
  engine.publish_metrics();
  EXPECT_EQ(value("canids_frames_total"), frames.size());
}

}  // namespace
}  // namespace canids::engine
