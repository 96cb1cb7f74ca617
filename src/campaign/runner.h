// Multithreaded campaign execution. The runner cold-starts the shared
// models from a bundle (spec.model_path) or trains them exactly once
// (std::call_once), fans the spec's trial grid out over a worker pool —
// each worker owns an ExperimentRunner that adopts the shared bundle, so no
// worker ever re-trains — and aggregates the results in the canonical plan
// order. Per-trial seeds are fixed by the plan, and every trial writes into
// its own slot, so the report is byte-identical at any worker count — and
// byte-identical between a bundle cold-start and an in-process training run
// of the same spec (the model persistence round-trips bit-exactly).
// Capture-replay specs route each trial through the TraceSource layer over
// the recorded file instead of the synthetic vehicle.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "campaign/partial.h"
#include "campaign/report.h"
#include "campaign/spec.h"
#include "metrics/experiment.h"
#include "model/store.h"
#include "trace/capture_labels.h"

namespace canids::campaign {

/// Wall-clock execution stats — reported separately from the CampaignReport
/// on purpose: report artifacts must stay byte-identical across worker
/// counts, and timing is exactly what varies.
struct CampaignRunStats {
  std::size_t trials = 0;
  int workers = 0;
  double train_seconds = 0.0;
  double wall_seconds = 0.0;
  /// Models actually trained in-process (0 on a full bundle cold-start —
  /// the "no training happened" guarantee `campaign --model` asserts).
  std::uint64_t training_passes = 0;
  [[nodiscard]] double trials_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds
                              : 0.0;
  }
};

class CampaignRunner {
 public:
  /// Throws std::invalid_argument when the spec is degenerate.
  explicit CampaignRunner(CampaignSpec spec);

  /// As above, but seed the shared bundle with pretrained pieces (e.g.
  /// from a sibling campaign over the same ExperimentConfig). Absent
  /// entries are still trained once on the first run(); present ones are
  /// never re-trained.
  CampaignRunner(CampaignSpec spec, model::StoredModels pretrained);

  /// Execute the full grid and aggregate. Training happens once, on the
  /// first call; later runs (e.g. a re-sweep with the same runner) reuse
  /// the cached models. Worker exceptions propagate after the pool joins.
  /// Throws std::invalid_argument when the spec selects a shard — a slice
  /// cannot aggregate into a full report; use run_shard() and merge.
  [[nodiscard]] CampaignReport run();

  /// Execute only the spec's shard slice (the whole plan when no shard is
  /// set — so merge-of-one reproduces run() byte-identically) over the
  /// same worker pool, and return the mergeable partial report. Training
  /// and cold-start behave exactly as in run(): a shard started from a
  /// model bundle performs zero training passes.
  [[nodiscard]] PartialReport run_shard();

  /// Stats of the most recent run().
  [[nodiscard]] const CampaignRunStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }

  /// The shared model set, cold-starting or training it first if needed —
  /// the handle `campaign --save-models` persists so a later run (or a
  /// fleet deployment) skips training entirely.
  [[nodiscard]] const model::StoredModels& models();

  /// Worker count a spec resolves to on this machine: `spec.workers`, or
  /// hardware concurrency when 0, clamped to the trial count so a pool
  /// never holds threads that could not receive a trial (an empty sharded
  /// slice resolves to 0 workers and spawns no pool at all).
  [[nodiscard]] static int resolve_workers(const CampaignSpec& spec,
                                           std::size_t trials);

 private:
  void train_once();

  /// The worker pool shared by run() and run_shard(): executes `plan`'s
  /// trials into a result vector in plan order and refreshes stats_.
  [[nodiscard]] std::vector<metrics::InstrumentedTrial> execute(
      const std::vector<TrialPlan>& plan);

  CampaignSpec spec_;
  trace::CaptureLabels labels_;
  std::once_flag trained_;
  model::StoredModels models_;
  CampaignRunStats stats_;
};

}  // namespace canids::campaign
