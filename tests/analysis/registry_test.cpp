#include "analysis/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ids/bit_counters.h"
#include "ids/golden_template.h"
#include "util/rng.h"

namespace canids::analysis {
namespace {

[[nodiscard]] std::shared_ptr<const ids::GoldenTemplate> tiny_template() {
  ids::TemplateBuilder builder;
  util::Rng rng(7);
  const std::vector<std::uint32_t> pool = {0x080, 0x120, 0x1C0, 0x260,
                                           0x300, 0x3A0};
  for (int w = 0; w < 10; ++w) {
    ids::BitCounters counters;
    for (std::uint32_t id : pool) {
      const int count = 25 + static_cast<int>(rng.between(-1, 1));
      for (int i = 0; i < count; ++i) counters.add(id);
    }
    ids::WindowSnapshot snap;
    snap.frames = counters.total();
    counters.snapshot_into(snap.probabilities, snap.entropies);
    builder.add_window(snap);
  }
  return std::make_shared<const ids::GoldenTemplate>(builder.build());
}

[[nodiscard]] DetectorOptions options_with_template() {
  DetectorOptions options;
  options.golden = tiny_template();
  options.calibration_windows = 2;
  return options;
}

TEST(DetectorRegistryTest, BuiltinsAreRegistered) {
  const std::vector<DetectorInfo> infos = DetectorRegistry::instance().list();
  for (const char* expected :
       {"bit-entropy", "symbol-entropy", "interval", "ensemble"}) {
    EXPECT_NE(std::find_if(infos.begin(), infos.end(),
                           [&](const DetectorInfo& info) {
                             return info.name == expected;
                           }),
              infos.end())
        << "missing built-in " << expected;
    EXPECT_TRUE(DetectorRegistry::instance().contains(expected));
  }
}

TEST(DetectorRegistryTest, RoundTripEveryBuiltin) {
  const DetectorOptions options = options_with_template();
  for (const char* name :
       {"bit-entropy", "symbol-entropy", "interval", "ensemble"}) {
    const std::unique_ptr<DetectorBackend> backend =
        make_detector(name, options);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->describe().name, name);
    // A clone is again the same kind of backend with zeroed counters.
    const std::unique_ptr<DetectorBackend> clone =
        backend->clone_for_stream();
    EXPECT_EQ(clone->describe().name, name);
    EXPECT_EQ(clone->counters().frames, 0u);
  }
}

TEST(DetectorRegistryTest, UnknownNameThrowsWithListing) {
  try {
    (void)make_detector("no-such-detector", options_with_template());
    FAIL() << "expected UnknownDetectorError";
  } catch (const UnknownDetectorError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-detector"), std::string::npos);
    EXPECT_NE(message.find("bit-entropy"), std::string::npos)
        << "message should list the registered names: " << message;
  }
}

TEST(DetectorRegistryTest, BitEntropyRequiresGoldenTemplate) {
  DetectorOptions options;  // no golden template
  EXPECT_THROW((void)make_detector("bit-entropy", options),
               std::invalid_argument);
  EXPECT_THROW((void)make_detector("ensemble", options),
               std::invalid_argument)
      << "the ensemble contains bit-entropy";
}

}  // namespace
}  // namespace canids::analysis
