// ModelStore: the typed layer over ModelBundle. A bundle is opaque named
// sections; the store knows which section holds which trained model and
// owns every section's byte layout (store.cpp, the only place it is
// defined). StoredModels is the one type that carries a trained model set —
// through the experiment harness, campaigns, and hot reload alike, and
// onto detector options via DetectorOptions::adopt_models — and a bundle
// is the one file it is read from.
// Everything that persists or cold-starts trained detectors (`canids
// train`, `detect|fleet|serve|campaign --model`, serve RELOAD) goes through
// these functions, so the set of known sections has exactly one home.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "ids/golden_template.h"
#include "model/bundle.h"

namespace canids::model {

/// Section names, one per trained model (matching the detector-registry
/// backend each model belongs to).
inline constexpr std::string_view kGoldenSection = "golden-template";
inline constexpr std::string_view kMuterSection = "symbol-entropy";
inline constexpr std::string_view kIntervalSection = "interval";

/// The trained models a bundle can carry, as immutable shared handles —
/// absent entries are null (partial bundles are valid: a capture with too
/// little clean traffic for an entropy band still yields a template).
struct StoredModels {
  std::shared_ptr<const ids::GoldenTemplate> golden;
  std::shared_ptr<const baselines::MuterEntropyIds> muter;
  std::shared_ptr<const baselines::IntervalIds> interval;

  [[nodiscard]] bool empty() const noexcept {
    return !golden && !muter && !interval;
  }
};

/// Encode every non-null model into its section. Throws
/// std::invalid_argument when all entries are null (an empty bundle is
/// always a caller bug) or the interval model is untrained.
[[nodiscard]] ModelBundle pack(const StoredModels& models);

/// Decode every known section. Unknown section names, and a payload that
/// is truncated, has trailing bytes or holds an out-of-range value, throw
/// std::runtime_error naming the section — a bundle written by a newer
/// build must not half-load (the format version gates layout changes;
/// sections gate content).
[[nodiscard]] StoredModels unpack(const ModelBundle& bundle);

/// One-line human summary of a section's model ("width 11, 35 training
/// windows, pairs yes"). Throws on unknown section names.
[[nodiscard]] std::string describe_section(const ModelBundle::Section& section);

/// load_models_file's error for a file that cannot be opened, apart from
/// the plain std::runtime_error of a file that opened but is unusable, so
/// a caller can tell a missing input from a bad one.
class UnreadableModelFile : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Load trained models from a ModelBundle file. Throws UnreadableModelFile
/// when the file cannot be opened, and std::runtime_error when it is not a
/// bundle (e.g. a bare golden-template file from before bundles existed —
/// re-run `canids train` to write one) or does not parse.
[[nodiscard]] StoredModels load_models_file(
    const std::filesystem::path& path);

/// Save as a bundle. Throws util::WriteError when the file cannot be
/// written in full and std::invalid_argument when `models` is empty.
void save_models_file(const std::filesystem::path& path,
                      const StoredModels& models);

}  // namespace canids::model
