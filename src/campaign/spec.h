// Declarative evaluation campaigns: the full grid of detector backend ×
// attack scenario (or single-ID sweep) × injection rate × seed that the
// comparative CAN-IDS literature demands, described as one value. A spec
// can be built in code, parsed from JSON (the CLI path), or taken from the
// built-in smoke preset; CampaignRunner executes the grid and make_report
// aggregates it. Per-trial seeds derive from the cell coordinates alone,
// so a spec pins its results regardless of worker count or scheduling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attacks/scenario.h"
#include "metrics/experiment.h"

namespace canids::campaign {

/// Short machine-readable scenario token used in specs and report columns
/// ("flood", "single", ..., "masquerade") — the same vocabulary `canids
/// simulate --attack` accepts. The token itself lives with the scenario
/// traits table (attacks/scenario.h); this alias keeps campaign callers
/// working.
using attacks::scenario_token;
[[nodiscard]] std::optional<attacks::ScenarioKind> scenario_from_token(
    std::string_view token);
/// Every scenario token in table order, '|'-separated: the list the
/// unknown-scenario errors print.
[[nodiscard]] std::string scenario_token_list();

/// One slice of a campaign's canonical trial plan, written "I/N" on the
/// command line (1-based I of N shards). Internally 0-based: shard `index`
/// owns every trial whose canonical plan index is congruent to it modulo
/// `count`. Striding keeps the detector-major plan balanced across shards,
/// and the slices are disjoint and cover the plan for ANY count — the
/// invariance `canids campaign merge` rebuilds a byte-identical report
/// from.
struct ShardSelector {
  std::uint32_t index = 0;  ///< 0-based shard position, < count
  std::uint32_t count = 1;  ///< total shards, >= 1

  [[nodiscard]] bool covers(std::size_t trial_index) const noexcept {
    return count > 0 && trial_index % count == index;
  }

  /// Parse the CLI form "I/N" (1-based, 1 <= I <= N). Throws
  /// std::invalid_argument on anything else — a silently mis-parsed shard
  /// would drop or duplicate trials.
  [[nodiscard]] static ShardSelector parse(std::string_view text);

  /// The CLI form back: index 0 of 3 prints "1/3".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ShardSelector&, const ShardSelector&) = default;
};

/// One planned trial: a fixed position in the campaign grid. The trial
/// seed depends only on the cell coordinates, never on which worker runs
/// it or when.
struct TrialPlan {
  std::size_t index = 0;  ///< position in the campaign's canonical order
  std::string detector;
  attacks::ScenarioKind kind{};
  /// Set in single-ID sweep mode; the trial injects this identifier.
  std::optional<std::uint32_t> sweep_id;
  /// Set in capture-replay mode; the recorded capture this trial replays
  /// (file name inside the spec's capture_dir). kind/frequency carry no
  /// meaning for such trials.
  std::string capture;
  double frequency_hz = 0.0;
  int seed_index = 0;
  std::uint64_t trial_seed = 0;
};

struct CampaignSpec {
  std::string name = "campaign";

  /// Detector backends by registry name.
  std::vector<std::string> detectors = {"bit-entropy"};
  /// Attack scenarios (ignored when sweep_ids is non-empty).
  std::vector<attacks::ScenarioKind> scenarios{attacks::kAllScenarios.begin(),
                                               attacks::kAllScenarios.end()};
  /// When non-empty, sweep single-ID injections over these identifiers
  /// instead of the scenario taxonomy (the Fig. 3 axis).
  std::vector<std::uint32_t> sweep_ids;
  /// Injection-rate sweep (frames per second the attacker generates).
  std::vector<double> rates_hz = {100.0, 50.0, 20.0, 10.0};
  /// Trials per cell; per-trial seeds are derived deterministically.
  int seeds = 2;

  /// Base experiment: master seed, timings, vehicle and pipeline knobs.
  metrics::ExperimentConfig experiment;

  /// Optional pretrained model bundle (see model::ModelBundle): the
  /// campaign cold-starts EVERY detector from it and performs zero
  /// training passes when the bundle covers all models the requested
  /// detectors need.
  std::string model_path;

  // ---- capture-replay mode -------------------------------------------------
  /// When set, the campaign replays recorded captures from this directory
  /// instead of driving the synthetic vehicle: the trial grid becomes
  /// detector x capture (scenarios/sweep_ids/rates_hz/seeds are unused),
  /// scored against the attack-window labels in labels_path.
  std::string capture_dir;
  /// Capture file names inside capture_dir, in trial order. Left empty in
  /// a spec file, the runner fills it by scanning capture_dir (sorted,
  /// labels file excluded) — after which the spec embedded in the report
  /// pins the exact file list.
  std::vector<std::string> captures;
  /// Attack-window sidecar CSV (see trace::read_capture_labels). Empty
  /// means capture_dir/labels.csv, and in that default case a missing file
  /// labels every capture clean.
  std::string labels_path;

  /// True when this spec replays recorded captures.
  [[nodiscard]] bool capture_mode() const noexcept {
    return !capture_dir.empty() || !captures.empty();
  }

  /// Detector-sensitivity multipliers swept for the ROC curve (windows are
  /// re-judged at score >= scale). The native operating point is scale 1;
  /// 0 alerts on every evaluated window.
  std::vector<double> threshold_scales = default_threshold_scales();

  /// Worker threads; 0 means hardware concurrency.
  int workers = 0;

  /// When set, this process executes only the selected slice of plan()
  /// (see sharded_plan()) and emits a PartialReport instead of a full
  /// report. Deliberately NOT serialized, like `workers`: the shard
  /// selector is an execution knob, and the report merged from N partials
  /// must be byte-identical to the unsharded run of the same spec.
  std::optional<ShardSelector> shard;

  [[nodiscard]] static std::vector<double> default_threshold_scales();

  /// Tiny preset sized for a CI smoke run (seconds, not minutes).
  [[nodiscard]] static CampaignSpec smoke();

  /// Parse a spec from its JSON form. Unknown keys and malformed values
  /// throw std::invalid_argument — nothing in a spec file is silently
  /// ignored.
  [[nodiscard]] static CampaignSpec from_json(std::string_view text);

  /// The spec as JSON (the exact form from_json accepts; also embedded in
  /// every report so results stay self-describing).
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t trial_count() const noexcept;

  /// The full grid in canonical order: detector-major, then scenario (or
  /// sweep ID), then rate, then seed. Trial seeds reproduce the historic
  /// bench orderings: scenario cells use a rate-major counter that restarts
  /// per scenario (Table I), sweep cells count per identifier (Fig. 3).
  [[nodiscard]] std::vector<TrialPlan> plan() const;

  /// plan() filtered to the trials the spec's shard selector owns (the
  /// whole plan when no shard is set). TrialPlan::index keeps its
  /// FULL-plan value — the coordinate partial reports merge by. A slice
  /// may legitimately be empty when count exceeds the trial count.
  [[nodiscard]] std::vector<TrialPlan> sharded_plan() const;

  /// Throws std::invalid_argument when the grid is degenerate (no
  /// detectors, no scenarios/IDs, no rates, seeds < 1, a value repeated
  /// within detectors, scenarios, sweep_ids, rates_hz or captures, a shard
  /// index outside its count, ...).
  void validate() const;
};

}  // namespace canids::campaign
