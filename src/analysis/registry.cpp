#include "analysis/registry.h"

#include <utility>

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
  std::vector<std::unique_ptr<DetectorBackend>> members;
  members.push_back(make_bit_entropy(options));
  members.push_back(make_symbol_entropy(options));
  members.push_back(make_interval(options));
  return std::make_unique<EnsembleDetector>(std::move(members));
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

DetectorRegistry::DetectorRegistry()
    : entries_{
          {meta("bit-entropy", "Wang, Lu & Qu (SOCC 2018) — this paper",
                "O(1): 11 bit + 55 pair counters", true),
           make_bit_entropy},
          {meta("symbol-entropy", "Muter & Asaj (IV 2011) [8]",
                "O(#IDs): one counter per identifier", false),
           make_symbol_entropy},
          {meta("interval", "Song, Kim & Kim (ICOIN 2016) [11]",
                "O(#IDs): learned period per identifier", false),
           make_interval},
          {meta("ensemble", "composition over registered detectors",
                "sum of members", true),
           make_ensemble},
      } {}

const DetectorRegistry& DetectorRegistry::instance() {
  static const DetectorRegistry registry;
  return registry;
}

const DetectorRegistry::Entry* DetectorRegistry::find(
    std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) return &entry;
  }
  return nullptr;
}

bool DetectorRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

std::vector<DetectorInfo> DetectorRegistry::list() const {
  std::vector<DetectorInfo> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.info);
  return out;
}

std::unique_ptr<DetectorBackend> DetectorRegistry::make(
    std::string_view name, const DetectorOptions& options) const {
  const Entry* entry = find(name);
  if (!entry) {
    std::string message = "unknown detector '" + std::string(name) +
                          "'; registered detectors:";
    for (const Entry& known : entries_) message += " " + known.info.name;
    throw UnknownDetectorError(message);
  }
  return entry->factory(options);
}

std::unique_ptr<DetectorBackend> make_detector(std::string_view name,
                                               const DetectorOptions& options) {
  return DetectorRegistry::instance().make(name, options);
}

}  // namespace canids::analysis
