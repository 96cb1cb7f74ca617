// FLEET — aggregate detection throughput of the sharded engine vs. shard
// count, against the single-backend sequential baseline. The paper's
// detector keeps 11 counters per stream, so the per-frame work is tiny and
// the question is how well the shard fan-out turns cores into frames/sec.
//
//   ./bench_fleet_throughput
//
// Items processed = frames pushed through the full ingest -> window ->
// detect path. Shard counts above the machine's core count cannot add
// speed-up; run on a multi-core host to see the scaling curve.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/registry.h"
#include "engine/fleet_engine.h"
#include "ids/golden_template.h"
#include "ids/window.h"
#include "trace/synthetic_vehicle.h"
#include "trace/trace_source.h"

using namespace canids;

namespace {

constexpr int kVehicles = 8;
constexpr int kStreamsPerVehicle = 2;  // 16 streams total
constexpr util::TimeNs kDriveSeconds = 4 * util::kSecond;

/// One captured drive per simulated vehicle, shared across benchmarks.
const std::vector<std::vector<can::TimedFrame>>& fleet_traffic() {
  static const std::vector<std::vector<can::TimedFrame>> traffic = [] {
    std::vector<std::vector<can::TimedFrame>> all;
    const trace::SyntheticVehicle vehicle;
    for (int v = 0; v < kVehicles; ++v) {
      const auto behavior =
          trace::kAllBehaviors[static_cast<std::size_t>(v) %
                               trace::kAllBehaviors.size()];
      auto source = vehicle.stream_trace(behavior, kDriveSeconds,
                                         0xF1EE7 + static_cast<std::uint64_t>(v));
      all.push_back(source->drain());
    }
    return all;
  }();
  return traffic;
}

std::shared_ptr<const ids::GoldenTemplate> fleet_template() {
  static const std::shared_ptr<const ids::GoldenTemplate> golden = [] {
    const trace::SyntheticVehicle vehicle;
    ids::TemplateBuilder builder;
    for (int run = 0; run < 3; ++run) {
      auto source = vehicle.stream_trace(
          trace::kAllBehaviors[static_cast<std::size_t>(run)],
          8 * util::kSecond, 0xC0FFEE + static_cast<std::uint64_t>(run));
      ids::WindowConfig window;
      for (const ids::WindowSnapshot& snap :
           ids::windows_of(source->drain(), window)) {
        if (snap.end - snap.start == window.duration) {
          builder.add_window(snap);
        }
      }
    }
    return std::make_shared<const ids::GoldenTemplate>(builder.build());
  }();
  return golden;
}

std::size_t total_frames() {
  std::size_t frames = 0;
  for (const auto& trace : fleet_traffic()) {
    frames += trace.size() * kStreamsPerVehicle;
  }
  return frames;
}

void BM_Fleet_Throughput(benchmark::State& state) {
  const auto golden = fleet_template();
  const auto& traffic = fleet_traffic();
  const int shards = static_cast<int>(state.range(0));

  for (auto _ : state) {
    engine::FleetConfig config;
    config.shards = shards;
    analysis::DetectorOptions options;
    options.golden = golden;
    engine::FleetEngine fleet(analysis::make_detector("bit-entropy", options),
                              config);
    std::vector<engine::NamedSource> sources;
    for (int copy = 0; copy < kStreamsPerVehicle; ++copy) {
      for (std::size_t v = 0; v < traffic.size(); ++v) {
        sources.push_back(engine::NamedSource{
            "veh-" + std::to_string(copy * kVehicles) + std::to_string(v),
            std::make_unique<trace::MemorySource>(traffic[v]),
            {}});
      }
    }
    engine::FleetRunResult run = engine::run_fleet(fleet, std::move(sources));
    benchmark::DoNotOptimize(fleet.totals().windows_closed);
    if (!run.errors.empty()) state.SkipWithError("ingest error");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_frames()));
}
BENCHMARK(BM_Fleet_Throughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Baseline: the pre-engine model — one backend at a time, one thread.
void BM_Sequential_Baseline(benchmark::State& state) {
  const auto golden = fleet_template();
  const auto& traffic = fleet_traffic();

  for (auto _ : state) {
    std::uint64_t windows = 0;
    for (int copy = 0; copy < kStreamsPerVehicle; ++copy) {
      for (const auto& trace : traffic) {
        analysis::BitEntropyBackend backend(golden, {});
        for (const can::TimedFrame& frame : trace) {
          benchmark::DoNotOptimize(
              backend.on_frame(frame.timestamp, frame.frame.id()));
        }
        (void)backend.finish();
        windows += backend.counters().windows_closed;
      }
    }
    benchmark::DoNotOptimize(windows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_frames()));
}
BENCHMARK(BM_Sequential_Baseline)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
