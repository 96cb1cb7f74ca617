// String-keyed detector registry with config-driven construction:
//
//   auto backend = analysis::make_detector("interval", options);
//
// The registry is the fixed set of four built-in backends (bit-entropy,
// symbol-entropy, interval, ensemble); every place a detector name is
// accepted — the CLI's --detector flag, the fleet engine, the campaign
// runner, and the experiment harness — resolves it here.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/backends.h"
#include "analysis/detector_backend.h"
#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "ids/pipeline.h"

namespace canids::analysis {

/// Everything a factory may need; each backend reads its slice and ignores
/// the rest, so one options object drives any registered detector.
struct DetectorOptions {
  /// Windowing (shared by all backends: one duration, aligned windows),
  /// detector alpha, and inference knobs for the bit-entropy backend.
  ids::PipelineConfig pipeline;

  // -- bit-entropy ----------------------------------------------------------
  /// Trained golden template; required by "bit-entropy" (and by an
  /// "ensemble" containing it).
  std::shared_ptr<const ids::GoldenTemplate> golden;
  /// Legal identifier set; non-empty enables malicious-ID inference.
  std::vector<std::uint32_t> id_pool;

  // -- baselines ------------------------------------------------------------
  baselines::MuterConfig muter;
  baselines::IntervalConfig interval;
  /// Pre-trained baseline models (immutable, shared across clones). When
  /// null, the backend self-calibrates on the first `calibration_windows`
  /// windows of its own stream.
  std::shared_ptr<const baselines::MuterEntropyIds> muter_model;
  std::shared_ptr<const baselines::IntervalIds> interval_model;
  std::size_t calibration_windows = 10;

  /// Point the model slots at every model `models` carries; null entries
  /// leave their slot alone, so a baseline the set lacks self-calibrates.
  /// The one overlay from a loaded or trained model set onto options.
  void adopt_models(const model::StoredModels& models);
};

/// Thrown by make_detector for names not in the registry; the message
/// lists every registered name.
class UnknownDetectorError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class DetectorRegistry {
 public:
  /// The process-wide registry of the four built-ins.
  [[nodiscard]] static const DetectorRegistry& instance();

  [[nodiscard]] bool contains(std::string_view name) const;
  /// Static metadata of every registered backend, in a fixed order.
  [[nodiscard]] std::vector<DetectorInfo> list() const;

  /// Construct a backend. Throws UnknownDetectorError for unknown names
  /// and std::invalid_argument when `options` misses required pieces
  /// (e.g. no golden template for "bit-entropy").
  [[nodiscard]] std::unique_ptr<DetectorBackend> make(
      std::string_view name, const DetectorOptions& options) const;

 private:
  using Factory = std::unique_ptr<DetectorBackend> (*)(const DetectorOptions&);

  struct Entry {
    DetectorInfo info;  ///< static metadata (state_bytes/trained unset)
    Factory factory;
  };

  DetectorRegistry();
  [[nodiscard]] const Entry* find(std::string_view name) const;

  std::vector<Entry> entries_;
};

/// Convenience over DetectorRegistry::instance().make().
[[nodiscard]] std::unique_ptr<DetectorBackend> make_detector(
    std::string_view name, const DetectorOptions& options = {});

}  // namespace canids::analysis
