// Perf-trajectory emitter for the report-style benches. Every bench binary
// drops a machine-readable BENCH_<name>.json next to its human-readable
// table so CI can upload one artifact per run and the project's perf
// trajectory stays comparable across PRs (the same contract
// BENCH_campaign.json established).
#pragma once

#include <chrono>
#include <initializer_list>
#include <string>
#include <utility>

namespace canids::util {

/// Wall-clock timer started at construction — wrap main()'s body.
class BenchTimer {
 public:
  BenchTimer() : started_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point started_;
};

/// Write BENCH_<name>.json: {"bench": "<name>", "<field>": value, ...}.
/// Values are emitted with enough digits to round-trip; prints the
/// "perf -> BENCH_<name>.json" line the other bench emitters print.
void write_bench_json(
    const std::string& name,
    std::initializer_list<std::pair<const char*, double>> fields);

}  // namespace canids::util
