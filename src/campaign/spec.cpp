#include "campaign/spec.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "can/frame.h"
#include "util/json.h"
#include "util/time.h"

namespace canids::campaign {

namespace {

std::string json_number(double value) {
  if (value == std::floor(value) && std::abs(value) < 9.0e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// A duration key, bounded so the nanosecond conversion cannot overflow
/// (the sign is validate()'s business).
util::TimeNs duration_of(const std::string& key, const util::JsonValue& value) {
  const double seconds = value.as<double>(key);
  if (!(std::abs(seconds) <= util::kMaxDurationSeconds)) {
    util::throw_json_read_error(key, "at most 1e6 seconds");
  }
  return util::from_seconds(seconds);
}

}  // namespace

ShardSelector ShardSelector::parse(std::string_view text) {
  const auto fail = [&] {
    throw std::invalid_argument(
        "shard selector '" + std::string(text) +
        "' must be I/N with 1 <= I <= N (e.g. --shard 2/3)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) fail();
  const auto parse_field = [&](std::string_view field) -> std::uint32_t {
    if (field.empty() || field.size() > 9) fail();
    std::uint64_t value = 0;
    for (const char c : field) {
      if (c < '0' || c > '9') fail();
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return static_cast<std::uint32_t>(value);
  };
  const std::uint32_t index = parse_field(text.substr(0, slash));
  const std::uint32_t count = parse_field(text.substr(slash + 1));
  if (index < 1 || index > count) fail();
  return ShardSelector{index - 1, count};
}

std::string ShardSelector::to_string() const {
  return std::to_string(index + 1) + "/" + std::to_string(count);
}

std::optional<attacks::ScenarioKind> scenario_from_token(
    std::string_view token) {
  for (const attacks::ScenarioKind kind : attacks::kAllScenarios) {
    if (scenario_token(kind) == token) return kind;
  }
  return std::nullopt;
}

std::string scenario_token_list() {
  std::string list;
  for (const attacks::ScenarioKind kind : attacks::kAllScenarios) {
    if (!list.empty()) list += '|';
    list += scenario_token(kind);
  }
  return list;
}

std::vector<double> CampaignSpec::default_threshold_scales() {
  return {0.0, 0.1, 0.2,  0.3, 0.4,  0.5, 0.6, 0.7, 0.8, 0.9,  1.0,
          1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0};
}

CampaignSpec CampaignSpec::smoke() {
  CampaignSpec spec;
  spec.name = "smoke";
  spec.detectors = {"bit-entropy", "symbol-entropy"};
  spec.scenarios = {attacks::ScenarioKind::kSingle,
                    attacks::ScenarioKind::kFlood};
  spec.rates_hz = {100.0, 20.0};
  spec.seeds = 1;
  spec.experiment.training_windows = 10;
  spec.experiment.clean_lead_in = 2 * util::kSecond;
  spec.experiment.attack_duration = 6 * util::kSecond;
  return spec;
}

std::size_t CampaignSpec::trial_count() const noexcept {
  if (capture_mode()) return detectors.size() * captures.size();
  const std::size_t axis =
      sweep_ids.empty() ? scenarios.size() : sweep_ids.size();
  return detectors.size() * axis * rates_hz.size() *
         static_cast<std::size_t>(seeds > 0 ? seeds : 0);
}

void CampaignSpec::validate() const {
  if (detectors.empty()) {
    throw std::invalid_argument("campaign spec: no detectors");
  }
  if (capture_mode()) {
    // The synthetic-grid axes carry no meaning over recorded traffic;
    // captures themselves are validated when the runner resolves the
    // directory (a spec file may leave the list empty).
    if (capture_dir.empty()) {
      // Captures without a directory would resolve against the process
      // CWD — including the default labels.csv path, which could pick up
      // an unrelated file as ground truth.
      throw std::invalid_argument(
          "campaign spec: captures require capture_dir");
    }
    for (const std::string& capture : captures) {
      if (capture.empty()) {
        throw std::invalid_argument("campaign spec: empty capture name");
      }
    }
  } else {
    if (scenarios.empty() && sweep_ids.empty()) {
      throw std::invalid_argument("campaign spec: no scenarios or sweep IDs");
    }
    for (const std::uint32_t id : sweep_ids) {
      if (id > can::kMaxStdId) {
        throw std::invalid_argument(
            "campaign spec: sweep_ids must lie in [0, 2047]");
      }
    }
    if (rates_hz.empty()) {
      throw std::invalid_argument("campaign spec: no injection rates");
    }
    for (const double rate : rates_hz) {
      if (!(rate >= attacks::kMinRateHz && rate <= attacks::kMaxRateHz)) {
        throw std::invalid_argument(
            "campaign spec: rates must lie in [0.001, 100000] Hz");
      }
    }
    if (seeds < 1) {
      throw std::invalid_argument("campaign spec: seeds must be >= 1");
    }
  }
  if (threshold_scales.empty()) {
    throw std::invalid_argument("campaign spec: no threshold scales");
  }
  for (const double scale : threshold_scales) {
    if (scale < 0.0) {
      throw std::invalid_argument(
          "campaign spec: threshold scales must be >= 0");
    }
  }
  if (workers < 0) {
    throw std::invalid_argument("campaign spec: workers must be >= 0");
  }
  if (shard && (shard->count < 1 || shard->index >= shard->count)) {
    throw std::invalid_argument(
        "campaign spec: shard index must lie inside the shard count");
  }
  // The experiment knobs a spec (or CLI override) can reach; anything
  // negative here would place the attack at negative time or spin the
  // training loop forever, so reject it before a runner is built.
  if (experiment.training_windows < 2) {
    throw std::invalid_argument(
        "campaign spec: training_windows must be >= 2");
  }
  if (experiment.clean_lead_in < 0) {
    throw std::invalid_argument("campaign spec: lead-in must be >= 0");
  }
  if (experiment.attack_duration <= 0) {
    throw std::invalid_argument(
        "campaign spec: attack duration must be > 0");
  }
  if (experiment.pipeline.window.duration <= 0) {
    throw std::invalid_argument(
        "campaign spec: window duration must be > 0");
  }
  // Both detectors judge against alpha; an infinite one never alerts and
  // would leave report.json with a literal `inf`.
  for (const double alpha :
       {experiment.pipeline.detector.alpha, experiment.muter.alpha}) {
    if (!(std::isfinite(alpha) && alpha > 0.0)) {
      throw std::invalid_argument(
          "campaign spec: alpha must be finite and > 0");
    }
  }
}

std::vector<TrialPlan> CampaignSpec::plan() const {
  validate();
  std::vector<TrialPlan> plans;
  plans.reserve(trial_count());
  if (capture_mode()) {
    if (captures.empty()) {
      throw std::invalid_argument(
          "campaign spec: capture mode but no captures resolved — point "
          "capture_dir at a directory with trace files");
    }
    // Captures replay deterministically, so one trial per detector x
    // capture; the trial seed is the capture index (stable under
    // re-ordering of the detector axis).
    for (const std::string& detector : detectors) {
      for (std::size_t c = 0; c < captures.size(); ++c) {
        TrialPlan trial;
        trial.index = plans.size();
        trial.detector = detector;
        trial.capture = captures[c];
        trial.trial_seed = c;
        plans.push_back(std::move(trial));
      }
    }
    return plans;
  }
  const bool sweep = !sweep_ids.empty();
  const std::size_t axis = sweep ? sweep_ids.size() : scenarios.size();
  for (const std::string& detector : detectors) {
    for (std::size_t a = 0; a < axis; ++a) {
      for (std::size_t r = 0; r < rates_hz.size(); ++r) {
        for (int s = 0; s < seeds; ++s) {
          TrialPlan trial;
          trial.index = plans.size();
          trial.detector = detector;
          trial.frequency_hz = rates_hz[r];
          trial.seed_index = s;
          if (sweep) {
            // Per-identifier counter, matching the historic Fig. 3 sweep
            // (id-major, then rate, then repeat).
            trial.kind = attacks::ScenarioKind::kSingle;
            trial.sweep_id = sweep_ids[a];
            trial.trial_seed =
                (static_cast<std::uint64_t>(a) * rates_hz.size() + r) *
                    static_cast<std::uint64_t>(seeds) +
                static_cast<std::uint64_t>(s);
          } else {
            // Rate-major counter per scenario, matching the historic
            // run_scenario trial ordering (Table I).
            trial.kind = scenarios[a];
            trial.trial_seed =
                static_cast<std::uint64_t>(r) *
                    static_cast<std::uint64_t>(seeds) +
                static_cast<std::uint64_t>(s);
          }
          plans.push_back(std::move(trial));
        }
      }
    }
  }
  return plans;
}

std::vector<TrialPlan> CampaignSpec::sharded_plan() const {
  std::vector<TrialPlan> full = plan();
  if (!shard) return full;
  std::vector<TrialPlan> sliced;
  sliced.reserve(full.size() / shard->count + 1);
  for (TrialPlan& trial : full) {
    if (shard->covers(trial.index)) sliced.push_back(std::move(trial));
  }
  return sliced;
}

CampaignSpec CampaignSpec::from_json(std::string_view text) {
  CampaignSpec spec;
  try {
    const util::JsonValue root = util::parse_json(text);
    if (root.type != util::JsonValue::Type::kObject) {
      throw std::invalid_argument("top level must be an object");
    }
    for (const auto& [key, value] : root.members) {
      if (key == "name") {
        spec.name = value.as<std::string>(key);
      } else if (key == "detectors") {
        spec.detectors = value.as<std::vector<std::string>>(key);
      } else if (key == "scenarios") {
        spec.scenarios.clear();
        for (const std::string& token :
             value.as<std::vector<std::string>>(key)) {
          const auto kind = scenario_from_token(token);
          if (!kind) {
            throw std::invalid_argument("unknown scenario '" + token + "' (" +
                                        scenario_token_list() + ")");
          }
          spec.scenarios.push_back(*kind);
        }
      } else if (key == "sweep_ids") {
        spec.sweep_ids = value.as<std::vector<std::uint32_t>>(key);
      } else if (key == "rates_hz") {
        spec.rates_hz = value.as<std::vector<double>>(key);
      } else if (key == "seeds") {
        spec.seeds = value.as<int>(key);
      } else if (key == "seed") {
        spec.experiment.seed = value.as<std::uint64_t>(key);
      } else if (key == "training_windows") {
        spec.experiment.training_windows = value.as<std::size_t>(key);
      } else if (key == "lead_in_seconds") {
        spec.experiment.clean_lead_in = duration_of(key, value);
      } else if (key == "attack_seconds") {
        spec.experiment.attack_duration = duration_of(key, value);
      } else if (key == "window_seconds") {
        spec.experiment.pipeline.window.duration = duration_of(key, value);
      } else if (key == "alpha") {
        spec.experiment.pipeline.detector.alpha = value.as<double>(key);
        spec.experiment.muter.alpha = spec.experiment.pipeline.detector.alpha;
      } else if (key == "track_pairs") {
        spec.experiment.pipeline.window.track_pairs = value.as<bool>(key);
      } else if (key == "period_scale") {
        spec.experiment.vehicle.period_scale = value.as<double>(key);
      } else if (key == "model_path") {
        spec.model_path = value.as<std::string>(key);
      } else if (key == "capture_dir") {
        spec.capture_dir = value.as<std::string>(key);
      } else if (key == "captures") {
        spec.captures = value.as<std::vector<std::string>>(key);
      } else if (key == "labels_path") {
        spec.labels_path = value.as<std::string>(key);
      } else if (key == "threshold_scales") {
        spec.threshold_scales = value.as<std::vector<double>>(key);
      } else if (key == "workers") {
        spec.workers = value.as<int>(key);
      } else {
        throw std::invalid_argument("unknown key '" + key + "'");
      }
    }
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("campaign spec: ") + e.what());
  }
  spec.validate();
  return spec;
}

std::string CampaignSpec::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": " << util::json_quoted(name) << ",\n";
  out << "  \"detectors\": [";
  for (std::size_t i = 0; i < detectors.size(); ++i) {
    out << (i ? ", " : "") << util::json_quoted(detectors[i]);
  }
  out << "],\n";
  if (sweep_ids.empty()) {
    out << "  \"scenarios\": [";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      out << (i ? ", " : "") << '"' << scenario_token(scenarios[i]) << '"';
    }
    out << "],\n";
  } else {
    out << "  \"sweep_ids\": [";
    for (std::size_t i = 0; i < sweep_ids.size(); ++i) {
      out << (i ? ", " : "") << sweep_ids[i];
    }
    out << "],\n";
  }
  out << "  \"rates_hz\": [";
  for (std::size_t i = 0; i < rates_hz.size(); ++i) {
    out << (i ? ", " : "") << json_number(rates_hz[i]);
  }
  out << "],\n";
  out << "  \"seeds\": " << seeds << ",\n";
  out << "  \"seed\": " << experiment.seed << ",\n";
  out << "  \"training_windows\": " << experiment.training_windows << ",\n";
  out << "  \"lead_in_seconds\": "
      << json_number(util::to_seconds(experiment.clean_lead_in)) << ",\n";
  out << "  \"attack_seconds\": "
      << json_number(util::to_seconds(experiment.attack_duration)) << ",\n";
  out << "  \"window_seconds\": "
      << json_number(util::to_seconds(experiment.pipeline.window.duration))
      << ",\n";
  out << "  \"alpha\": " << json_number(experiment.pipeline.detector.alpha)
      << ",\n";
  out << "  \"track_pairs\": "
      << (experiment.pipeline.window.track_pairs ? "true" : "false") << ",\n";
  out << "  \"period_scale\": " << json_number(experiment.vehicle.period_scale)
      << ",\n";
  // `model_path` is deliberately NOT serialized: like `workers` below,
  // where the models came from is an execution knob, and a bundle
  // cold-start must produce a byte-identical report to the
  // train-in-process run of the same spec. (from_json still accepts the
  // key, so spec files can request a cold start.)
  if (capture_mode()) {
    out << "  \"capture_dir\": " << util::json_quoted(capture_dir) << ",\n";
    out << "  \"captures\": [";
    for (std::size_t i = 0; i < captures.size(); ++i) {
      out << (i ? ", " : "") << util::json_quoted(captures[i]);
    }
    out << "],\n";
    if (!labels_path.empty()) {
      out << "  \"labels_path\": " << util::json_quoted(labels_path)
          << ",\n";
    }
  }
  // `workers` is deliberately NOT serialized: it is an execution knob (like
  // wall time), and report artifacts must stay byte-identical between
  // 1-worker and N-worker runs of the same spec.
  out << "  \"threshold_scales\": [";
  for (std::size_t i = 0; i < threshold_scales.size(); ++i) {
    out << (i ? ", " : "") << json_number(threshold_scales[i]);
  }
  out << "]\n";
  out << "}\n";
  return out.str();
}

}  // namespace canids::campaign
