#include "metrics/experiment.h"

#include <algorithm>
#include <deque>

#include "trace/trace_io.h"
#include "util/contracts.h"

namespace canids::metrics {

namespace {

/// Clean traffic recorded per driving behaviour when training a baseline
/// model.
constexpr util::TimeNs kBaselineTrainingPerBehavior = 6 * util::kSecond;

/// Deterministic sub-seed derivation.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t salt) noexcept {
  std::uint64_t state = base ^ (salt * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64(state);
}

/// Per-frame attack attribution, drained by timestamp as windows close —
/// the ONE window-assignment rule shared by the synthetic and capture
/// trial paths (only the is-this-frame-injected predicate differs: the
/// attacker-node tag there, the labeled interval here). A frame whose
/// timestamp reaches the window boundary belongs to the next window.
class InjectionAttribution {
 public:
  void on_frame(util::TimeNs timestamp, bool injected) {
    pending_.emplace_back(timestamp, injected);
  }

  /// Injected-frame count of the window ending at `end` (every remaining
  /// frame when `final_window`).
  [[nodiscard]] std::uint64_t drain(util::TimeNs end, bool final_window) {
    std::uint64_t injected = 0;
    while (!pending_.empty() &&
           (final_window || pending_.front().first < end)) {
      if (pending_.front().second) ++injected;
      pending_.pop_front();
    }
    return injected;
  }

 private:
  std::deque<std::pair<util::TimeNs, bool>> pending_;
};

[[nodiscard]] WindowObservation observation_of(
    const analysis::WindowVerdict& verdict, std::uint64_t injected) {
  WindowObservation observation;
  observation.start = verdict.start;
  observation.end = verdict.end;
  observation.frames = verdict.frames;
  observation.injected = injected;
  observation.evaluated = verdict.evaluated;
  observation.alert = verdict.alert;
  observation.metric = verdict.metric;
  observation.threshold = verdict.threshold;
  return observation;
}

}  // namespace

std::optional<util::TimeNs> InstrumentedTrial::detection_latency()
    const noexcept {
  if (!capture.empty()) {
    // Capture trials may label several attack intervals: the latency is
    // measured from the start of the interval the first alerting window
    // actually overlaps (earliest such interval for a window spanning
    // more than one). Alerts in unlabeled gaps are false positives, not
    // detections, and never count; a clean capture has no latency at all.
    for (const WindowObservation& window : observations) {
      if (!window.evaluated || !window.alert) continue;
      for (const trace::LabelInterval& interval : attack_intervals) {
        // Intervals are sorted by start; overlap implies a positive
        // window.end - interval.start.
        if (interval.overlaps(window.start, window.end)) {
          return window.end - interval.start;
        }
      }
    }
    return std::nullopt;
  }
  for (const WindowObservation& window : observations) {
    if (window.evaluated && window.alert && window.end > attack_start) {
      return window.end - attack_start;
    }
  }
  return std::nullopt;
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(config), vehicle_(config.vehicle) {
  CANIDS_EXPECTS(config_.training_windows >= 2);
  CANIDS_EXPECTS(config_.attack_duration > 0);
}

const ids::GoldenTemplate& ExperimentRunner::train() {
  return *train_shared();
}

std::shared_ptr<const ids::GoldenTemplate> ExperimentRunner::train_shared() {
  if (models_.golden) return models_.golden;
  ++training_passes_;

  const util::TimeNs window = config_.pipeline.window.duration;
  const std::size_t per_behavior =
      (config_.training_windows + trace::kAllBehaviors.size() - 1) /
      trace::kAllBehaviors.size();

  ids::TemplateBuilder builder;
  std::size_t behavior_index = 0;
  while (builder.window_count() < config_.training_windows) {
    const trace::DrivingBehavior behavior =
        trace::kAllBehaviors[behavior_index % trace::kAllBehaviors.size()];
    const std::uint64_t run_seed =
        derive_seed(config_.seed, 1000 + behavior_index);
    // One extra window of traffic so the trailing partial window can be
    // discarded without starving the builder.
    const util::TimeNs duration =
        static_cast<util::TimeNs>(per_behavior + 1) * window;
    const trace::Trace capture =
        vehicle_.record_trace(behavior, duration, run_seed);

    std::vector<can::TimedFrame> frames;
    frames.reserve(capture.size());
    for (const trace::LogRecord& record : capture) {
      frames.push_back(can::TimedFrame{record.timestamp, record.frame,
                                       can::TimedFrame::kUnknownSource});
    }
    for (const ids::WindowSnapshot& snap :
         ids::windows_of(frames, config_.pipeline.window)) {
      // Keep only complete windows (flush() emits a short trailing one).
      if (snap.end - snap.start != window) continue;
      if (builder.window_count() >= config_.training_windows) break;
      builder.add_window(snap);
    }
    ++behavior_index;
  }

  models_.golden =
      std::make_shared<const ids::GoldenTemplate>(builder.build());
  return models_.golden;
}

model::StoredModels ExperimentRunner::trained_models() {
  (void)train_shared();
  (void)muter_model();
  (void)interval_model();
  return models_;
}

void ExperimentRunner::adopt_models(const model::StoredModels& models) {
  if (models.golden) models_.golden = models.golden;
  if (models.muter) models_.muter = models.muter;
  if (models.interval) models_.interval = models.interval;
}

InstrumentedTrial ExperimentRunner::run_instrumented_attack(
    std::string_view backend_name, attacks::BuiltAttack attack,
    double frequency_hz, std::uint64_t trial_seed) {
  InstrumentedTrial result;
  result.backend = std::string(backend_name);
  result.kind = attack.kind;
  result.frequency_hz = frequency_hz;
  result.trial_seed = trial_seed;
  result.planned_ids = attack.planned_ids;
  result.attack_start = attack.node->attack_config().start;
  result.attack_end = attack.node->attack_config().stop;

  const trace::DrivingBehavior behavior =
      trace::kAllBehaviors[trial_seed % trace::kAllBehaviors.size()];

  can::BusSimulator bus(config_.vehicle.bus);
  vehicle_.attach_to(bus, behavior, derive_seed(config_.seed, 5 + trial_seed));

  // attach_attack (not add_node) so suspend/masquerade attackers resolve
  // their victim ECU on the freshly-attached vehicle.
  const attacks::AttachedAttack attached = attacks::attach_attack(bus, attack);
  attacks::AttackNode* attacker = attached.node;
  const int attacker_index = attached.index;

  const std::unique_ptr<analysis::DetectorBackend> backend =
      make_backend(backend_name);
  const bool supports_inference = backend->describe().supports_inference;

  const util::TimeNs attack_start = result.attack_start;
  const util::TimeNs attack_end = result.attack_end;
  const bool inferable = attacks::scenario_inferable(attack.kind);

  // Per frame in bus order: came from the attacker? Drained by timestamp
  // as windows close, so the attribution works for any backend's frame
  // accounting (including ones that drop frames).
  InjectionAttribution attribution;

  auto handle_verdict = [&](const analysis::WindowVerdict& verdict,
                            bool final_window) {
    const std::uint64_t injected_in_window =
        attribution.drain(verdict.end, final_window);
    result.observations.push_back(observation_of(verdict, injected_in_window));
    if (!verdict.evaluated) return;

    const bool overlaps_attack =
        verdict.start < attack_end && verdict.end > attack_start;
    // Windows straddling the attack boundary carry only a partial injection
    // signature; the paper's inference events are full attack windows.
    const bool inside_attack =
        verdict.start >= attack_start && verdict.end <= attack_end;
    result.frames.record_window(injected_in_window, verdict.alert);
    result.windows.record(overlaps_attack, verdict.alert);

    if (verdict.alert && inside_attack && inferable && supports_inference &&
        verdict.detail && !result.planned_ids.empty()) {
      result.inference_hit_sum += ids::inference_hit_fraction(
          result.planned_ids, verdict.detail->ranked_candidates);
      ++result.inference_windows;
    }
  };

  bus.add_listener([&](const can::TimedFrame& frame) {
    attribution.on_frame(frame.timestamp,
                         frame.source_node == attacker_index);
    if (auto verdict = backend->on_frame(frame.timestamp, frame.frame.id())) {
      handle_verdict(*verdict, /*final_window=*/false);
    }
  });

  bus.run_until(attack_end);
  if (auto verdict = backend->finish()) {
    handle_verdict(*verdict, /*final_window=*/true);
  }

  result.detection_rate = result.frames.detection_rate();
  if (result.inference_windows > 0) {
    result.inference_accuracy =
        result.inference_hit_sum /
        static_cast<double>(result.inference_windows);
  }
  result.injection_rate_arbitration =
      attacker->stats().arbitration_win_ratio();
  result.injection_rate_success = attacker->stats().injection_success_ratio();
  result.injected_transmitted = attacker->stats().transmitted;
  result.bus_load = bus.stats().load();
  result.counters = backend->counters();
  return result;
}

InstrumentedTrial ExperimentRunner::run_instrumented_trial(
    std::string_view backend, attacks::ScenarioKind kind, double frequency_hz,
    std::uint64_t trial_seed) {
  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = frequency_hz;
  attack_config.start = config_.clean_lead_in;
  attack_config.stop = config_.clean_lead_in + config_.attack_duration;

  util::Rng rng(derive_seed(config_.seed, 77 + trial_seed));
  return run_instrumented_attack(
      backend, attacks::make_scenario(kind, vehicle_, attack_config, rng),
      frequency_hz, trial_seed);
}

InstrumentedTrial ExperimentRunner::run_instrumented_single_id_trial(
    std::string_view backend, std::uint32_t id, double frequency_hz,
    std::uint64_t trial_seed) {
  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = frequency_hz;
  attack_config.start = config_.clean_lead_in;
  attack_config.stop = config_.clean_lead_in + config_.attack_duration;

  util::Rng rng(derive_seed(config_.seed, 991 + trial_seed));
  InstrumentedTrial trial = run_instrumented_attack(
      backend, attacks::make_single_id_attack(attack_config, id, rng),
      frequency_hz, trial_seed);
  trial.single_id = id;
  return trial;
}

InstrumentedTrial ExperimentRunner::run_capture_trial(
    std::string_view backend_name, trace::TraceSource& source,
    const std::vector<trace::LabelInterval>& attacks,
    std::string capture_name, std::uint64_t trial_seed) {
  CANIDS_EXPECTS(!capture_name.empty());

  InstrumentedTrial result;
  result.backend = std::string(backend_name);
  result.capture = std::move(capture_name);
  result.trial_seed = trial_seed;
  result.attack_intervals = attacks;
  if (!attacks.empty()) {
    result.attack_start = attacks.front().start;
    result.attack_end = attacks.front().end;
    for (const trace::LabelInterval& interval : attacks) {
      result.attack_end = std::max(result.attack_end, interval.end);
    }
  }

  const std::unique_ptr<analysis::DetectorBackend> backend =
      make_backend(backend_name);

  // Per frame in capture order: did it fall inside a labeled attack
  // interval? The label stands in for the attacker-node tag recorded
  // traffic cannot carry; the window-assignment rule itself is the one the
  // synthetic trials use (InjectionAttribution).
  InjectionAttribution attribution;
  const auto labeled = [&](util::TimeNs timestamp) {
    for (const trace::LabelInterval& interval : attacks) {
      if (interval.contains(timestamp)) return true;
    }
    return false;
  };

  auto handle_verdict = [&](const analysis::WindowVerdict& verdict,
                            bool final_window) {
    const std::uint64_t injected_in_window =
        attribution.drain(verdict.end, final_window);
    result.observations.push_back(observation_of(verdict, injected_in_window));
    if (!verdict.evaluated) return;

    bool overlaps_attack = false;
    for (const trace::LabelInterval& interval : attacks) {
      overlaps_attack =
          overlaps_attack || interval.overlaps(verdict.start, verdict.end);
    }
    result.frames.record_window(injected_in_window, verdict.alert);
    result.windows.record(overlaps_attack, verdict.alert);
  };

  // Timestamps are normalized to the capture's first frame before anything
  // sees them: real candump recordings carry absolute epoch times while
  // the sidecar labels are capture-relative, and window boundaries are
  // anchored to the first frame either way (util::WindowClock), so the
  // shift changes nothing for already-relative recordings beyond making
  // observations/latency read in capture time.
  std::optional<util::TimeNs> origin;
  for (;;) {
    const std::optional<can::TimedFrame> frame = source.next();
    if (!frame) break;
    if (!origin) origin = frame->timestamp;
    const util::TimeNs timestamp = frame->timestamp - *origin;
    attribution.on_frame(timestamp, labeled(timestamp));
    if (auto verdict = backend->on_frame(timestamp, frame->frame.id())) {
      handle_verdict(*verdict, /*final_window=*/false);
    }
  }
  if (auto verdict = backend->finish()) {
    handle_verdict(*verdict, /*final_window=*/true);
  }

  result.detection_rate = result.frames.detection_rate();
  result.counters = backend->counters();
  return result;
}

std::shared_ptr<const baselines::MuterEntropyIds>
ExperimentRunner::muter_model() {
  if (models_.muter) return models_.muter;
  ++training_passes_;
  // One accumulator across every behaviour's clean drive, mirroring the
  // pre-redesign CMP8 calibration (seed salt 100 + behaviour index).
  std::vector<baselines::SymbolWindow> training;
  baselines::SymbolEntropyAccumulator accumulator(
      config_.pipeline.window.duration);
  for (std::uint64_t i = 0; i < trace::kAllBehaviors.size(); ++i) {
    for (const trace::LogRecord& record : vehicle_.record_trace(
             trace::kAllBehaviors[i], kBaselineTrainingPerBehavior,
             100 + i)) {
      if (auto window =
              accumulator.add(record.timestamp, record.frame.id().raw())) {
        training.push_back(*window);
      }
    }
  }
  models_.muter = std::make_shared<const baselines::MuterEntropyIds>(
      training, config_.muter);
  return models_.muter;
}

std::shared_ptr<const baselines::IntervalIds>
ExperimentRunner::interval_model() {
  if (models_.interval) return models_.interval;
  ++training_passes_;
  // Seed salt 200 + behaviour index, mirroring the pre-redesign CMP11
  // calibration.
  baselines::IntervalIds model(config_.interval);
  for (std::uint64_t i = 0; i < trace::kAllBehaviors.size(); ++i) {
    for (const trace::LogRecord& record : vehicle_.record_trace(
             trace::kAllBehaviors[i], kBaselineTrainingPerBehavior,
             200 + i)) {
      model.train(record.timestamp, record.frame.id().raw());
    }
  }
  model.finish_training();
  models_.interval =
      std::make_shared<const baselines::IntervalIds>(std::move(model));
  return models_.interval;
}

ExperimentRunner::BackendModelNeeds ExperimentRunner::backend_model_needs(
    std::string_view name) noexcept {
  BackendModelNeeds needs;
  needs.muter = name == "symbol-entropy" || name == "ensemble";
  needs.interval = name == "interval" || name == "ensemble";
  return needs;
}

std::unique_ptr<analysis::DetectorBackend> ExperimentRunner::make_backend(
    std::string_view name) {
  // Train only the models the named backend can use.
  const BackendModelNeeds needs = backend_model_needs(name);
  model::StoredModels models;
  models.golden = train_shared();
  if (needs.muter) models.muter = muter_model();
  if (needs.interval) models.interval = interval_model();
  analysis::DetectorOptions options;
  options.pipeline = config_.pipeline;
  options.id_pool = vehicle_.id_pool();
  options.muter = config_.muter;
  options.interval = config_.interval;
  options.adopt_models(models);
  return analysis::make_detector(name, options);
}

}  // namespace canids::metrics
