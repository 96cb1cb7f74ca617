// The reproduction harness: trains the golden template the way the paper
// does (35 windows over diverse driving behaviours), runs attack trials on
// the simulated bus, and scores detection rate, inference accuracy, and
// injection rate. Every bench binary (Fig. 2/3, Table I, ablations) is a
// thin wrapper over this runner.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/registry.h"
#include "attacks/scenario.h"
#include "ids/pipeline.h"
#include "metrics/confusion.h"
#include "model/store.h"
#include "trace/capture_labels.h"
#include "trace/synthetic_vehicle.h"
#include "trace/trace_source.h"

namespace canids::metrics {

struct ExperimentConfig {
  trace::VehicleConfig vehicle;
  ids::PipelineConfig pipeline;
  /// Training windows for the golden template (paper: 35, five per
  /// driving behaviour).
  std::size_t training_windows = ids::kPaperTrainingWindows;
  /// Attack trial timing: the attacker starts after a clean lead-in and
  /// runs until the end of the trial.
  util::TimeNs clean_lead_in = 3 * util::kSecond;
  util::TimeNs attack_duration = 20 * util::kSecond;
  /// Master seed; all per-trial randomness derives from it.
  std::uint64_t seed = 0x5EC0DE;

  /// Baseline-detector knobs for the §V.E comparison trials. The models
  /// are trained lazily on clean traffic.
  baselines::MuterConfig muter;
  baselines::IntervalConfig interval;
};

/// One closed window as an instrumented trial observed it — enough to
/// re-score the run at any detector sensitivity after the fact (the ROC
/// sweep) and to measure detection latency at window granularity.
struct WindowObservation {
  util::TimeNs start = 0;
  util::TimeNs end = 0;
  std::uint64_t frames = 0;
  std::uint64_t injected = 0;  ///< attack frames that landed in the window
  bool evaluated = false;
  bool alert = false;          ///< at the backend's native threshold
  double metric = 0.0;
  double threshold = 0.0;

  /// Threshold-free anomaly score: the backend's decision variable
  /// normalized by its own threshold. Judging `score() >= scale` over a
  /// scale sweep reproduces the full ROC curve, and scale 1 reproduces the
  /// native verdicts — exactly for the integer-threshold backends
  /// (interval, ensemble), which alert at metric >= threshold, and up to
  /// exact floating-point threshold equality for the entropy backends,
  /// which alert at metric > threshold.
  [[nodiscard]] double score() const noexcept {
    if (threshold > 0.0) return metric / threshold;
    return metric > 0.0 ? 1e9 : 0.0;
  }

  friend bool operator==(const WindowObservation&,
                         const WindowObservation&) = default;
};

/// Outcome of one attack trial: any registered backend over an attacked
/// drive, with the paper-methodology aggregates (frame detection rate,
/// window confusion, inference accuracy, injection rate) PLUS the
/// per-window observation log that ROC and latency metrics need.
struct InstrumentedTrial {
  std::string backend;
  attacks::ScenarioKind kind{};
  /// Set when the trial injected one caller-chosen identifier (ID sweep).
  std::optional<std::uint32_t> single_id;
  /// Set when the trial replayed a recorded capture instead of driving the
  /// synthetic vehicle (capture-replay campaigns); the capture file name.
  std::string capture;
  double frequency_hz = 0.0;
  std::uint64_t trial_seed = 0;
  std::vector<std::uint32_t> planned_ids;
  util::TimeNs attack_start = 0;
  util::TimeNs attack_end = 0;
  /// Labeled attack intervals for capture trials (possibly several per
  /// recording, possibly none for a clean capture). Empty for synthetic
  /// trials, whose single interval is [attack_start, attack_end).
  std::vector<trace::LabelInterval> attack_intervals;

  FrameDetection frames;
  WindowConfusion windows;
  double detection_rate = 0.0;
  std::optional<double> inference_accuracy;
  double inference_hit_sum = 0.0;
  std::uint64_t inference_windows = 0;
  double injection_rate_arbitration = 0.0;
  double injection_rate_success = 0.0;
  std::uint64_t injected_transmitted = 0;
  double bus_load = 0.0;

  std::vector<WindowObservation> observations;  ///< bus order
  ids::PipelineCounters counters;

  /// Window-granularity detection latency: end of the first alerting window
  /// closing after the attack begins, minus the attack start. nullopt when
  /// the attack was never flagged (false positives before the attack do
  /// not count).
  [[nodiscard]] std::optional<util::TimeNs> detection_latency() const noexcept;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig config = {});

  [[nodiscard]] const trace::SyntheticVehicle& vehicle() const noexcept {
    return vehicle_;
  }
  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }

  /// Build (and cache) the golden template from `training_windows` clean
  /// windows spread evenly over all driving behaviours.
  [[nodiscard]] const ids::GoldenTemplate& train();

  /// Same template as a shareable immutable handle; every trial backend
  /// (and any fleet engine built on this runner) references it copy-free.
  [[nodiscard]] std::shared_ptr<const ids::GoldenTemplate> train_shared();

  /// Adopt pretrained models — the set a campaign's master runner trained
  /// (CampaignRunner::models()) or a loaded bundle — so this runner never
  /// pays its own training pass.
  /// Partial sets are fine: absent entries remain lazily trainable. Must be
  /// called before anything triggered training on this runner.
  void adopt_models(const model::StoredModels& models);

  /// Training passes this runner actually performed: one per model built
  /// from scratch (golden template, Müter band, interval periods). Adopted
  /// models never count — so a bundle cold-start that covers every model a
  /// campaign needs reports 0 here, the verifiable "no training happened"
  /// guarantee.
  [[nodiscard]] std::uint64_t training_passes() const noexcept {
    return training_passes_;
  }

  // ---- detector backends and baseline models (§V.E comparisons) ----------

  /// Whole-distribution entropy baseline trained on clean traffic from
  /// every driving behaviour (lazily built, then shared).
  [[nodiscard]] std::shared_ptr<const baselines::MuterEntropyIds>
  muter_model();

  /// Interval baseline with frozen learned periods (lazily built, shared).
  [[nodiscard]] std::shared_ptr<const baselines::IntervalIds>
  interval_model();

  /// Which lazily-trained baseline models a backend name consumes — the
  /// single gating rule shared by make_backend and by campaign training.
  struct BackendModelNeeds {
    bool muter = false;
    bool interval = false;
  };
  [[nodiscard]] static BackendModelNeeds backend_model_needs(
      std::string_view name) noexcept;

  /// Construct a registered backend wired with this runner's pipeline
  /// config, the vehicle's id pool, and the models the named backend
  /// consumes (trained on first use).
  [[nodiscard]] std::unique_ptr<analysis::DetectorBackend> make_backend(
      std::string_view name);

  // ---- attack trials --------------------------------------------------------

  /// Run one attack trial through any registered backend with full
  /// per-window instrumentation. `trial_seed` individualises the run; the
  /// driving behaviour is rotated from it. With backend == "bit-entropy"
  /// this is the paper's trial (Table I, Fig. 2/3).
  [[nodiscard]] InstrumentedTrial run_instrumented_trial(
      std::string_view backend, attacks::ScenarioKind kind,
      double frequency_hz, std::uint64_t trial_seed);

  /// Single-ID sweep trial with a caller-chosen injected identifier (the
  /// Fig. 3 axis).
  [[nodiscard]] InstrumentedTrial run_instrumented_single_id_trial(
      std::string_view backend, std::uint32_t id, double frequency_hz,
      std::uint64_t trial_seed);

  // ---- capture-replay trials ----------------------------------------------

  /// Replay a recorded capture through any registered backend instead of
  /// driving the synthetic vehicle. Timestamps are normalized to the
  /// capture's first frame, so recordings with absolute epoch times score
  /// correctly against the capture-relative label intervals. Ground truth
  /// comes from `attacks` (the sidecar label intervals; empty = a clean
  /// capture): a window is positive when it overlaps any labeled
  /// interval, and a frame counts as injected when its timestamp falls
  /// inside one (an attribution proxy — recorded traffic has no per-frame
  /// attacker tag). Injection-rate and bus-load fields stay 0; ROC
  /// observations and detection latency work exactly as in synthetic
  /// trials.
  [[nodiscard]] InstrumentedTrial run_capture_trial(
      std::string_view backend, trace::TraceSource& source,
      const std::vector<trace::LabelInterval>& attacks,
      std::string capture_name, std::uint64_t trial_seed);

 private:
  [[nodiscard]] InstrumentedTrial run_instrumented_attack(
      std::string_view backend, attacks::BuiltAttack attack,
      double frequency_hz, std::uint64_t trial_seed);

  ExperimentConfig config_;
  trace::SyntheticVehicle vehicle_;
  /// Trained or adopted models; null entries are trained on first use.
  model::StoredModels models_;
  std::uint64_t training_passes_ = 0;
};

}  // namespace canids::metrics
