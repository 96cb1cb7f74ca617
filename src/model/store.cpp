#include "model/store.h"

#include <array>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/binary_io.h"
#include "util/contracts.h"

namespace canids::model {

namespace {

// ---- section layouts -------------------------------------------------------
// The one definition of every section's bytes (little-endian, doubles as
// raw IEEE-754 bits so loads are bit-exact). A layout change here must bump
// kBundleFormatVersion: sections carry no version of their own.
//
//   golden-template  u32 width (1..32), u64 training_windows, then the six
//                    per-bit f64 vectors of kBitVectors (width values each,
//                    bit order), a 0/1 pairs byte, and when 1 the three
//                    pair vectors of kPairVectors (pair_count(width) values
//                    each, pair_index order)
//   symbol-entropy   f64 alpha, f64 min_threshold, u64 min_window_frames,
//                    f64 mean entropy, f64 threshold
//   interval         f64 fast_ratio, u32 violations_to_alert, a 0/1
//                    alert_on_unseen byte, u32 count, then count rows of
//                    (u32 id, i64 mean_interval_ns), ids strictly ascending

using TemplateVector = std::vector<double> ids::GoldenTemplate::*;

constexpr std::array<TemplateVector, 6> kBitVectors = {
    &ids::GoldenTemplate::mean_entropy,
    &ids::GoldenTemplate::min_entropy,
    &ids::GoldenTemplate::max_entropy,
    &ids::GoldenTemplate::mean_probability,
    &ids::GoldenTemplate::min_probability,
    &ids::GoldenTemplate::max_probability,
};

constexpr std::array<TemplateVector, 3> kPairVectors = {
    &ids::GoldenTemplate::mean_pair_probability,
    &ids::GoldenTemplate::min_pair_probability,
    &ids::GoldenTemplate::max_pair_probability,
};

void write_golden(util::BinaryWriter& out, const ids::GoldenTemplate& golden) {
  CANIDS_EXPECTS(golden.width > 0 && golden.width <= 32);
  const auto bits = static_cast<std::size_t>(golden.width);
  const auto pairs = static_cast<std::size_t>(ids::pair_count(golden.width));
  out.u32(static_cast<std::uint32_t>(golden.width));
  out.u64(golden.training_windows);
  for (const TemplateVector vector : kBitVectors) {
    CANIDS_EXPECTS((golden.*vector).size() == bits);
    for (const double value : golden.*vector) out.f64(value);
  }
  out.u8(golden.has_pairs() ? 1 : 0);
  if (!golden.has_pairs()) return;
  for (const TemplateVector vector : kPairVectors) {
    CANIDS_EXPECTS((golden.*vector).size() == pairs);
    for (const double value : golden.*vector) out.f64(value);
  }
}

void write_muter(util::BinaryWriter& out,
                 const baselines::MuterEntropyIds& muter) {
  out.f64(muter.config().alpha);
  out.f64(muter.config().min_threshold);
  out.u64(muter.config().min_window_frames);
  out.f64(muter.mean_entropy());
  out.f64(muter.threshold());
}

void write_interval(util::BinaryWriter& out,
                    const baselines::IntervalIds& interval) {
  if (!interval.trained()) {
    throw std::invalid_argument(
        "model store: only a trained interval model can be packed — call "
        "finish_training() first");
  }
  const baselines::IntervalConfig& config = interval.config();
  out.f64(config.fast_ratio);
  out.u32(static_cast<std::uint32_t>(config.violations_to_alert));
  out.u8(config.alert_on_unseen ? 1 : 0);
  const std::vector<baselines::IntervalIds::Period> periods =
      interval.periods();
  out.u32(static_cast<std::uint32_t>(periods.size()));
  for (const auto& [id, mean_interval] : periods) {
    out.u32(id);
    out.i64(mean_interval);
  }
}

/// A finite f64: NaN and infinities are corruption in every model field.
double finite(util::BinaryReader& in, const char* what) {
  const double value = in.f64(what);
  if (!std::isfinite(value)) in.fail(std::string("non-finite ") + what);
  return value;
}

std::vector<double> finite_vector(util::BinaryReader& in, std::size_t count,
                                  const char* what) {
  std::vector<double> values;
  values.reserve(count);  // at most pair_count(32) = 496
  for (std::size_t i = 0; i < count; ++i) values.push_back(finite(in, what));
  return values;
}

ids::GoldenTemplate read_golden(util::BinaryReader& in) {
  const std::uint32_t width = in.u32("width");
  if (width == 0 || width > 32) {
    in.fail("width " + std::to_string(width) + " outside [1, 32]");
  }
  ids::GoldenTemplate golden;
  golden.width = static_cast<int>(width);
  golden.training_windows = in.u64("training window count");
  for (const TemplateVector vector : kBitVectors) {
    golden.*vector = finite_vector(in, width, "bit statistic");
  }
  if (in.boolean("pairs flag")) {
    const auto pairs = static_cast<std::size_t>(ids::pair_count(golden.width));
    for (const TemplateVector vector : kPairVectors) {
      golden.*vector = finite_vector(in, pairs, "pair statistic");
    }
  }
  return golden;
}

baselines::MuterEntropyIds read_muter(util::BinaryReader& in) {
  baselines::MuterConfig config;
  config.alpha = finite(in, "alpha");
  config.min_threshold = finite(in, "min_threshold");
  config.min_window_frames = in.u64("min_window_frames");
  const double mean = finite(in, "mean entropy");
  const double threshold = finite(in, "threshold");
  if (!(config.alpha > 0.0)) in.fail("alpha must be > 0");
  if (config.min_threshold < 0.0 || mean < 0.0 || threshold < 0.0) {
    in.fail("min_threshold, mean entropy and threshold must be >= 0");
  }
  return baselines::MuterEntropyIds(config, mean, threshold);
}

baselines::IntervalIds read_interval(util::BinaryReader& in) {
  baselines::IntervalConfig config;
  config.fast_ratio = in.f64("fast_ratio");
  const std::uint32_t violations = in.u32("violations_to_alert");
  config.alert_on_unseen = in.boolean("alert_on_unseen flag");
  if (!(config.fast_ratio > 0.0 && config.fast_ratio < 1.0)) {
    in.fail("fast_ratio outside (0, 1)");
  }
  if (violations < 1 || violations > INT_MAX) {
    in.fail("violations_to_alert " + std::to_string(violations) +
            " outside [1, 2^31 - 1]");
  }
  config.violations_to_alert = static_cast<int>(violations);
  const std::uint32_t count = in.u32("period count");
  std::vector<baselines::IntervalIds::Period> periods;
  for (std::uint32_t row = 0; row < count; ++row) {
    const std::uint32_t id = in.u32("period id");
    const util::TimeNs mean_interval = in.i64("mean interval");
    if (!periods.empty() && id <= periods.back().first) {
      in.fail("period ids must be strictly ascending (id " +
              std::to_string(id) + " after " +
              std::to_string(periods.back().first) + ")");
    }
    if (mean_interval <= 0) {
      in.fail("mean interval of id " + std::to_string(id) + " must be > 0");
    }
    periods.emplace_back(id, mean_interval);
  }
  return baselines::IntervalIds(config, periods);
}

template <typename Model, typename Write>
std::string encode(const Model& model, Write write) {
  std::ostringstream out;
  util::BinaryWriter writer(out);
  write(writer, model);
  return out.str();
}

/// Decode one whole section payload; every error names the section.
template <typename Read>
auto decode(const ModelBundle::Section& section, Read read) {
  std::istringstream in(section.payload);
  util::BinaryReader reader(in, "model section '" + section.name + "'");
  auto model = read(reader);
  reader.expect_eof("trailing bytes after the last field");
  return model;
}

[[noreturn]] void unknown_section(const std::string& name) {
  throw std::runtime_error("model store: unknown section '" + name +
                           "' (written by a newer build?)");
}

}  // namespace

ModelBundle pack(const StoredModels& models) {
  if (models.empty()) {
    throw std::invalid_argument("model store: nothing to pack — every model "
                                "handle is null");
  }
  ModelBundle bundle;
  if (models.golden) {
    bundle.add(std::string(kGoldenSection),
               encode(*models.golden, write_golden));
  }
  if (models.muter) {
    bundle.add(std::string(kMuterSection), encode(*models.muter, write_muter));
  }
  if (models.interval) {
    bundle.add(std::string(kIntervalSection),
               encode(*models.interval, write_interval));
  }
  return bundle;
}

StoredModels unpack(const ModelBundle& bundle) {
  StoredModels models;
  for (const ModelBundle::Section& section : bundle.sections()) {
    if (section.name == kGoldenSection) {
      models.golden = std::make_shared<const ids::GoldenTemplate>(
          decode(section, read_golden));
    } else if (section.name == kMuterSection) {
      models.muter = std::make_shared<const baselines::MuterEntropyIds>(
          decode(section, read_muter));
    } else if (section.name == kIntervalSection) {
      models.interval = std::make_shared<const baselines::IntervalIds>(
          decode(section, read_interval));
    } else {
      unknown_section(section.name);
    }
  }
  return models;
}

std::string describe_section(const ModelBundle::Section& section) {
  std::ostringstream out;
  if (section.name == kGoldenSection) {
    const ids::GoldenTemplate golden = decode(section, read_golden);
    out << "width " << golden.width << ", " << golden.training_windows
        << " training windows, pairs " << (golden.has_pairs() ? "yes" : "no");
  } else if (section.name == kMuterSection) {
    const baselines::MuterEntropyIds muter = decode(section, read_muter);
    char text[128];
    std::snprintf(text, sizeof text,
                  "mean entropy %.4f bits, band threshold %.4f (alpha %g)",
                  muter.mean_entropy(), muter.threshold(),
                  muter.config().alpha);
    out << text;
  } else if (section.name == kIntervalSection) {
    const baselines::IntervalIds interval = decode(section, read_interval);
    out << interval.tracked_ids() << " learned ID periods (fast ratio "
        << interval.config().fast_ratio << ", " << "alert at "
        << interval.config().violations_to_alert << " violations/window)";
  } else {
    unknown_section(section.name);
  }
  return out.str();
}

StoredModels load_models_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path.string());
  }
  char magic[kBundleMagic.size()] = {};
  in.read(magic, sizeof magic);
  if (std::string_view(magic, static_cast<std::size_t>(in.gcount())) !=
      kBundleMagic) {
    throw std::runtime_error(
        path.string() +
        " is not a model bundle — re-run `canids train` on clean captures "
        "to write one");
  }
  in.seekg(0);
  return unpack(ModelBundle::load(in));
}

void save_models_file(const std::filesystem::path& path,
                      const StoredModels& models) {
  const ModelBundle bundle = pack(models);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot write " + path.string());
  }
  bundle.save(out);
}

}  // namespace canids::model
