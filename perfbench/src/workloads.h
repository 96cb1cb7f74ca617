// The four benchmark workloads. Each generates its inputs from the seed,
// runs the system for the requested seconds (or, with trace, runs it
// briefly and then the traced ledger), checks every output against a
// reference, and fills `result`.
#pragma once

#include <cstdint>
#include <string>

#include "bench_lib.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Kept output directory (span files).
  std::string workdir;
  /// Per-run directory for the model bundle and socket, removed at exit.
  std::string scratch;

  [[nodiscard]] std::string spans_path() const {
    return workdir + "/spans-" + workload + "-seed" + std::to_string(seed) +
           ".jsonl";
  }
};

/// latency_tail_us reports the highest percentile up to this one that
/// leaves at least ten samples beyond it. Capped below p99 because a run
/// yields hundreds, not thousands, of latency samples on some workloads,
/// and a ten-sample tail does not repeat from run to run.
inline constexpr double kTailPercentile = 90.0;

/// Threads every workload may use: producers + shard workers + server +
/// client (or campaign workers) — the host must have at least this many.
inline constexpr unsigned kThreadBudget = 4;

void run_fleet_workload(const Options& options, bool attacked, Result& result);
void run_serve_workload(const Options& options, Result& result);
void run_campaign_workload(const Options& options, Result& result);

/// Fail the run when the workload would use more threads than the host has.
void check_threads(unsigned threads, Result& result);

}  // namespace perfbench
