#include "analysis/registry.h"

#include <algorithm>
#include <utility>

#include "ids/bit_counters.h"

namespace canids::analysis {

namespace {

[[nodiscard]] std::unique_ptr<DetectorBackend> make_bit_entropy(
    const DetectorOptions& options) {
  if (!options.golden) {
    throw std::invalid_argument(
        "detector 'bit-entropy' requires a trained golden template "
        "(DetectorOptions::golden) — run `canids train` or "
        "ExperimentRunner::train_shared() first");
  }
  return std::make_unique<BitEntropyBackend>(options.golden, options.id_pool,
                                             options.pipeline);
}

[[nodiscard]] std::unique_ptr<DetectorBackend> make_symbol_entropy(
    const DetectorOptions& options) {
  return std::make_unique<SymbolEntropyBackend>(
      options.muter_model, options.muter, options.pipeline.window.duration,
      options.calibration_windows);
}

[[nodiscard]] std::unique_ptr<DetectorBackend> make_interval(
    const DetectorOptions& options) {
  return std::make_unique<IntervalBackend>(
      options.interval_model, options.interval,
      options.pipeline.window.duration, options.calibration_windows);
}

[[nodiscard]] std::unique_ptr<DetectorBackend> make_ensemble(
    const DetectorOptions& options) {
  if (options.ensemble_members.empty()) {
    throw std::invalid_argument(
        "detector 'ensemble' requires at least one member name "
        "(DetectorOptions::ensemble_members)");
  }
  std::vector<std::unique_ptr<DetectorBackend>> members;
  members.reserve(options.ensemble_members.size());
  for (const std::string& member : options.ensemble_members) {
    if (member == "ensemble") {
      throw std::invalid_argument(
          "detector 'ensemble' cannot contain itself as a member");
    }
    members.push_back(DetectorRegistry::instance().make(member, options));
  }
  return std::make_unique<EnsembleDetector>(std::move(members),
                                            options.ensemble_policy);
}

[[nodiscard]] DetectorInfo meta(std::string name, std::string paper,
                                std::string state_growth,
                                bool supports_inference) {
  DetectorInfo info;
  info.name = std::move(name);
  info.paper = std::move(paper);
  info.state_growth = std::move(state_growth);
  info.supports_inference = supports_inference;
  return info;
}

}  // namespace

void DetectorOptions::adopt_models(const model::StoredModels& models) {
  if (models.golden) golden = models.golden;
  if (models.muter) muter_model = models.muter;
  if (models.interval) interval_model = models.interval;
}

DetectorRegistry& DetectorRegistry::instance() {
  static DetectorRegistry* registry = [] {
    auto* built = new DetectorRegistry();
    built->add(meta("bit-entropy", "Wang, Lu & Qu (SOCC 2018) — this paper",
                    "O(1): 11 bit + 55 pair counters", true),
               make_bit_entropy);
    built->add(meta("symbol-entropy", "Muter & Asaj (IV 2011) [8]",
                    "O(#IDs): one counter per identifier", false),
               make_symbol_entropy);
    built->add(meta("interval", "Song, Kim & Kim (ICOIN 2016) [11]",
                    "O(#IDs): learned period per identifier", false),
               make_interval);
    built->add(meta("ensemble", "composition over registered detectors",
                    "sum of members", true),
               make_ensemble);
    return built;
  }();
  return *registry;
}

void DetectorRegistry::add(DetectorInfo info, Factory factory) {
  if (info.name.empty()) {
    throw std::invalid_argument("detector name must not be empty");
  }
  if (!factory) {
    throw std::invalid_argument("detector factory must not be empty");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_) {
    if (entry.info.name == info.name) {
      throw std::invalid_argument("detector '" + info.name +
                                  "' is already registered");
    }
  }
  entries_.push_back(Entry{std::move(info), std::move(factory)});
}

bool DetectorRegistry::contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.info.name == name; });
}

std::vector<std::string> DetectorRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.info.name);
  return out;
}

std::vector<DetectorInfo> DetectorRegistry::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DetectorInfo> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.info);
  return out;
}

std::unique_ptr<DetectorBackend> DetectorRegistry::make(
    std::string_view name, const DetectorOptions& options) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& entry : entries_) {
      if (entry.info.name == name) {
        factory = entry.factory;
        break;
      }
    }
  }
  if (!factory) {
    std::string message = "unknown detector '" + std::string(name) +
                          "'; registered detectors:";
    for (const std::string& known : names()) message += " " + known;
    throw UnknownDetectorError(message);
  }
  // Invoked outside the lock so the ensemble factory can recurse.
  return factory(options);
}

std::unique_ptr<DetectorBackend> make_detector(std::string_view name,
                                               const DetectorOptions& options) {
  return DetectorRegistry::instance().make(name, options);
}

}  // namespace canids::analysis
