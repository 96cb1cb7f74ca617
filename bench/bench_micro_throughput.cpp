// MICRO — the §V.E "light-weight detection algorithm" claim, measured with
// google-benchmark: per-frame monitoring cost and per-window decision cost
// of the bit-slice detector vs both baselines, plus the substrate hot paths
// (serialization, arbitration) for context.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "can/arbitration.h"
#include "can/bitstream.h"
#include "ids/bit_counters.h"
#include "ids/binary_entropy.h"
#include "trace/synthetic_vehicle.h"

using namespace canids;

namespace {

/// Shared captured traffic so every benchmark sees identical frames.
const trace::Trace& capture() {
  static const trace::Trace trace = [] {
    const trace::SyntheticVehicle vehicle;
    return vehicle.record_trace(trace::DrivingBehavior::kCity,
                                5 * util::kSecond, 4711);
  }();
  return trace;
}

void BM_BitSlice_CountFrame(benchmark::State& state) {
  const trace::Trace& trace = capture();
  ids::BitCounters counters;
  benchmark::DoNotOptimize(&counters);  // escape: keep the stores alive
  std::size_t i = 0;
  for (auto _ : state) {
    counters.add(trace[i].frame.id().raw());
    benchmark::ClobberMemory();
    i = (i + 1) % trace.size();
  }
  benchmark::DoNotOptimize(counters.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitSlice_CountFrame);

void BM_BitSlice_CountFramePairs(benchmark::State& state) {
  const trace::Trace& trace = capture();
  ids::PairCounters counters;
  benchmark::DoNotOptimize(&counters);
  std::size_t i = 0;
  for (auto _ : state) {
    counters.add(trace[i].frame.id().raw());
    benchmark::ClobberMemory();
    i = (i + 1) % trace.size();
  }
  benchmark::DoNotOptimize(counters.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitSlice_CountFramePairs);

void BM_Muter_CountFrame(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::unordered_map<std::uint32_t, std::uint64_t> histogram;
  std::size_t i = 0;
  for (auto _ : state) {
    ++histogram[trace[i].frame.id().raw()];
    i = (i + 1) % trace.size();
  }
  benchmark::DoNotOptimize(histogram.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Muter_CountFrame);

void BM_Interval_ObserveFrame(benchmark::State& state) {
  const trace::Trace& trace = capture();
  baselines::IntervalIds interval;
  for (const trace::LogRecord& r : trace) {
    interval.train(r.timestamp, r.frame.id().raw());
  }
  interval.finish_training();
  std::size_t i = 0;
  util::TimeNs shift = 0;
  for (auto _ : state) {
    if (i == 0) shift += 5 * util::kSecond;
    benchmark::DoNotOptimize(
        interval.observe(trace[i].timestamp + shift, trace[i].frame.id().raw()));
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Interval_ObserveFrame);

void BM_BitSlice_WindowDecision(benchmark::State& state) {
  const trace::Trace& trace = capture();
  ids::BitCounters counters;
  for (const trace::LogRecord& r : trace) {
    counters.add(r.frame.id().raw());
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (int bit = 0; bit < 11; ++bit) {
      sum += ids::binary_entropy(counters.probability(bit));
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitSlice_WindowDecision);

void BM_BitSlice_WindowSnapshot(benchmark::State& state) {
  const trace::Trace& trace = capture();
  ids::BitCounters counters;
  for (const trace::LogRecord& r : trace) {
    counters.add(r.frame.id().raw());
  }
  ids::BitValues probabilities;
  ids::BitValues entropies;
  for (auto _ : state) {
    counters.snapshot_into(probabilities, entropies);
    benchmark::DoNotOptimize(entropies.data());
  }
}
BENCHMARK(BM_BitSlice_WindowSnapshot);

void BM_Muter_WindowDecision(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::unordered_map<std::uint32_t, std::uint64_t> histogram;
  std::uint64_t total = 0;
  for (const trace::LogRecord& r : trace) {
    ++histogram[r.frame.id().raw()];
    ++total;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::id_distribution_entropy(histogram, total));
  }
}
BENCHMARK(BM_Muter_WindowDecision);

void BM_Substrate_SerializeFrame(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(can::serialize(trace[i].frame));
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Substrate_SerializeFrame);

void BM_Substrate_Arbitrate8(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::vector<can::Frame> contenders;
  for (std::size_t i = 0; i < 8; ++i) {
    contenders.push_back(trace[i * 37 % trace.size()].frame);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(can::arbitrate(contenders));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Substrate_Arbitrate8);

void BM_BinaryEntropy(benchmark::State& state) {
  double p = 0.0;
  for (auto _ : state) {
    p += 0.001;
    if (p >= 1.0) p = 0.0;
    benchmark::DoNotOptimize(ids::binary_entropy(p));
  }
}
BENCHMARK(BM_BinaryEntropy);

}  // namespace

BENCHMARK_MAIN();
