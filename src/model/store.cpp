#include "model/store.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace canids::model {

namespace {

template <typename Model>
std::string serialized(const Model& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

}  // namespace

ModelBundle pack(const StoredModels& models) {
  if (models.empty()) {
    throw std::invalid_argument("model store: nothing to pack — every model "
                                "handle is null");
  }
  ModelBundle bundle;
  if (models.golden) {
    bundle.add(std::string(kGoldenSection), models.golden->serialize());
  }
  if (models.muter) {
    bundle.add(std::string(kMuterSection), serialized(*models.muter));
  }
  if (models.interval) {
    bundle.add(std::string(kIntervalSection), serialized(*models.interval));
  }
  return bundle;
}

StoredModels unpack(const ModelBundle& bundle) {
  StoredModels models;
  for (const ModelBundle::Section& section : bundle.sections()) {
    std::istringstream in(section.payload);
    if (section.name == kGoldenSection) {
      models.golden = std::make_shared<const ids::GoldenTemplate>(
          ids::GoldenTemplate::deserialize(section.payload));
    } else if (section.name == kMuterSection) {
      models.muter = std::make_shared<const baselines::MuterEntropyIds>(
          baselines::MuterEntropyIds::load(in));
    } else if (section.name == kIntervalSection) {
      models.interval = std::make_shared<const baselines::IntervalIds>(
          baselines::IntervalIds::load(in));
    } else {
      throw std::runtime_error("model store: unknown section '" +
                               section.name +
                               "' (written by a newer build?)");
    }
  }
  return models;
}

std::string describe_section(const ModelBundle::Section& section) {
  std::istringstream in(section.payload);
  std::ostringstream out;
  if (section.name == kGoldenSection) {
    const ids::GoldenTemplate golden =
        ids::GoldenTemplate::deserialize(section.payload);
    out << "width " << golden.width << ", " << golden.training_windows
        << " training windows, pairs " << (golden.has_pairs() ? "yes" : "no");
  } else if (section.name == kMuterSection) {
    const baselines::MuterEntropyIds muter =
        baselines::MuterEntropyIds::load(in);
    char text[128];
    std::snprintf(text, sizeof text,
                  "mean entropy %.4f bits, band threshold %.4f (alpha %g)",
                  muter.mean_entropy(), muter.threshold(),
                  muter.config().alpha);
    out << text;
  } else if (section.name == kIntervalSection) {
    const baselines::IntervalIds interval = baselines::IntervalIds::load(in);
    out << interval.tracked_ids() << " learned ID periods (fast ratio "
        << interval.config().fast_ratio << ", " << "alert at "
        << interval.config().violations_to_alert << " violations/window)";
  } else {
    throw std::runtime_error("model store: unknown section '" + section.name +
                             "'");
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
