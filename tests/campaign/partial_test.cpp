// Distributed-campaign layer: shard selectors, the partial-report on-disk
// format (strict load in the ModelBundle tradition), and merge — whose
// contract is byte-identity with the single-process run plus loud rejection
// of shard sets that do not form exactly one complete campaign.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "campaign/partial.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"

namespace canids::campaign {
namespace {

/// Four-trial grid sized for test speed (one training pass ~0.2 s).
CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.name = "partial-test";
  spec.detectors = {"bit-entropy", "interval"};
  spec.scenarios = {attacks::ScenarioKind::kSingle};
  spec.rates_hz = {100.0, 20.0};
  spec.seeds = 1;
  spec.experiment.training_windows = 10;
  spec.experiment.clean_lead_in = 2 * util::kSecond;
  spec.experiment.attack_duration = 6 * util::kSecond;
  return spec;
}

std::string partial_bytes(const PartialReport& partial) {
  std::ostringstream out;
  partial.save(out);
  return out.str();
}

PartialReport load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return PartialReport::load(in);
}

/// Every report emitter's bytes, concatenated — two reports with equal
/// artifact bytes would `diff -r` clean as directories.
std::string report_bytes(const CampaignReport& report) {
  std::ostringstream out;
  report.write_trials_csv(out);
  report.write_cells_csv(out);
  report.write_roc_csv(out);
  report.write_json(out);
  return out.str();
}

PartialReport run_shard(const CampaignSpec& base, std::uint32_t index,
                        std::uint32_t count,
                        const model::StoredModels& pretrained) {
  CampaignSpec spec = base;
  spec.shard = ShardSelector{index, count};
  CampaignRunner runner(spec, pretrained);
  return runner.run_shard();
}

// ---- shard selector --------------------------------------------------------

TEST(ShardSelectorTest, ParsesOneBasedCliForm) {
  EXPECT_EQ(ShardSelector::parse("1/3"), (ShardSelector{0, 3}));
  EXPECT_EQ(ShardSelector::parse("3/3"), (ShardSelector{2, 3}));
  EXPECT_EQ(ShardSelector::parse("1/1"), (ShardSelector{0, 1}));
  EXPECT_EQ(ShardSelector::parse("12/40"), (ShardSelector{11, 40}));
  EXPECT_EQ((ShardSelector{0, 3}).to_string(), "1/3");
  EXPECT_EQ(ShardSelector::parse((ShardSelector{4, 7}).to_string()),
            (ShardSelector{4, 7}));
}

TEST(ShardSelectorTest, RejectsMalformedSelectors) {
  for (const char* bad : {"", "1", "/", "1/", "/3", "0/3", "4/3", "1/0",
                          "a/3", "1/x", "1/3x", "-1/3", "1.5/3", "1 / 3"}) {
    EXPECT_THROW((void)ShardSelector::parse(bad), std::invalid_argument)
        << "selector '" << bad << "'";
  }
}

TEST(ShardSelectorTest, ValidateRejectsOutOfRangeShard) {
  CampaignSpec spec = small_spec();
  spec.shard = ShardSelector{3, 3};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.shard = ShardSelector{0, 0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.shard = ShardSelector{2, 3};
  EXPECT_NO_THROW(spec.validate());
}

// ---- plan slicing ----------------------------------------------------------

TEST(ShardedPlanTest, SlicesPartitionTheCanonicalPlanForAnyCount) {
  CampaignSpec spec = small_spec();
  const std::vector<TrialPlan> full = spec.plan();
  ASSERT_EQ(full.size(), 4u);

  // Counts below, at, and above the trial count — slices must stay
  // disjoint and cover the plan, keeping full-plan indices.
  for (const std::uint32_t count : {1u, 2u, 3u, 4u, 7u}) {
    std::set<std::size_t> seen;
    for (std::uint32_t index = 0; index < count; ++index) {
      spec.shard = ShardSelector{index, count};
      for (const TrialPlan& trial : spec.sharded_plan()) {
        EXPECT_EQ(trial.index % count, index);
        EXPECT_TRUE(seen.insert(trial.index).second)
            << "trial " << trial.index << " owned twice at count " << count;
        EXPECT_EQ(trial.detector, full[trial.index].detector);
        EXPECT_EQ(trial.trial_seed, full[trial.index].trial_seed);
      }
    }
    EXPECT_EQ(seen.size(), full.size()) << "count " << count;
  }

  spec.shard.reset();
  EXPECT_EQ(spec.sharded_plan().size(), full.size());
}

// ---- partial-report round trip and strict load -----------------------------

TEST(PartialReportTest, SaveLoadRoundTripsByteExactly) {
  CampaignSpec spec = small_spec();
  spec.shard = ShardSelector{0, 2};
  CampaignRunner runner(spec);
  const PartialReport partial = runner.run_shard();
  ASSERT_EQ(partial.rows.size(), 2u);

  const std::string bytes = partial_bytes(partial);
  const PartialReport loaded = load_bytes(bytes);
  EXPECT_EQ(loaded.shard, partial.shard);
  ASSERT_EQ(loaded.rows.size(), partial.rows.size());
  for (std::size_t i = 0; i < loaded.rows.size(); ++i) {
    EXPECT_EQ(loaded.rows[i].plan_index, partial.rows[i].plan_index);
    EXPECT_EQ(loaded.rows[i].trial.backend, partial.rows[i].trial.backend);
    EXPECT_EQ(loaded.rows[i].trial.observations,
              partial.rows[i].trial.observations);
    EXPECT_EQ(loaded.rows[i].trial.windows.true_positive,
              partial.rows[i].trial.windows.true_positive);
    EXPECT_EQ(loaded.rows[i].trial.detection_rate,
              partial.rows[i].trial.detection_rate);
  }
  // Bit-exact round trip: re-saving the loaded partial reproduces the
  // file byte for byte.
  EXPECT_EQ(partial_bytes(loaded), bytes);
}

TEST(PartialReportTest, StrictLoadRejectsCorruption) {
  CampaignSpec spec = small_spec();
  spec.detectors = {"bit-entropy"};
  spec.rates_hz = {100.0};
  spec.shard = ShardSelector{0, 1};
  CampaignRunner runner(spec);
  const std::string bytes = partial_bytes(runner.run_shard());

  // Truncation at EVERY byte boundary must throw — header, spec JSON,
  // row framing, or mid-trial.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)load_bytes(bytes.substr(0, cut)), std::runtime_error)
        << "cut at byte " << cut;
  }
  // Trailing garbage after the last row.
  EXPECT_THROW((void)load_bytes(bytes + "x"), std::runtime_error);

  // Bad magic.
  std::string tampered = bytes;
  tampered[0] = 'X';
  EXPECT_THROW((void)load_bytes(tampered), std::runtime_error);

  // Unsupported format version.
  tampered = bytes;
  tampered[8] = static_cast<char>(kPartialFormatVersion + 1);
  EXPECT_THROW((void)load_bytes(tampered), std::runtime_error);

  // Shard index pushed outside the count (offset 12, little-endian u32).
  tampered = bytes;
  tampered[12] = 5;
  EXPECT_THROW((void)load_bytes(tampered), std::runtime_error);

  // A flipped byte inside the spec JSON breaks the recorded fingerprint.
  tampered = bytes;
  tampered[60] ^= 0x01;
  EXPECT_THROW((void)load_bytes(tampered), std::runtime_error);
}

TEST(PartialReportTest, TruncatedFileOnDiskRejected) {
  CampaignSpec spec = small_spec();
  spec.detectors = {"bit-entropy"};
  spec.rates_hz = {100.0};
  spec.shard = ShardSelector{0, 1};
  CampaignRunner runner(spec);
  const PartialReport partial = runner.run_shard();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "canids_partial_test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "shard.part";
  partial.save_file(path);
  EXPECT_NO_THROW((void)PartialReport::load_file(path));

  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW((void)PartialReport::load_file(path), std::runtime_error);
  EXPECT_THROW((void)PartialReport::load_file(dir / "absent.part"),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

// ---- merge -----------------------------------------------------------------

TEST(MergePartialsTest, MergeOfOneMatchesSingleRunByteForByte) {
  const CampaignSpec spec = small_spec();
  CampaignRunner single(spec);
  const CampaignReport reference = single.run();

  // Round-trip the 1/1 shard through its on-disk bytes, then merge.
  const PartialReport partial =
      load_bytes(partial_bytes(run_shard(spec, 0, 1, single.models())));
  const CampaignReport merged = merge_partials({partial});
  EXPECT_EQ(report_bytes(merged), report_bytes(reference));
}

TEST(MergePartialsTest, ShardedRunsMergeToSingleRunBytesAtAnyCount) {
  const CampaignSpec spec = small_spec();
  CampaignRunner single(spec);
  const CampaignReport reference = single.run();

  // 3 shards: uneven slices. 7 shards: more shards than trials, so some
  // slices are legitimately empty — merge must still reassemble cleanly.
  for (const std::uint32_t count : {3u, 7u}) {
    std::vector<PartialReport> partials;
    for (std::uint32_t index = 0; index < count; ++index) {
      CampaignSpec sharded = spec;
      sharded.shard = ShardSelector{index, count};
      CampaignRunner runner(sharded, single.models());
      partials.push_back(
          load_bytes(partial_bytes(runner.run_shard())));
      // Cold-started from the single run's models: no training pass.
      EXPECT_EQ(runner.stats().training_passes, 0u);
    }
    const CampaignReport merged = merge_partials(std::move(partials));
    EXPECT_EQ(report_bytes(merged), report_bytes(reference))
        << "count " << count;
  }
}

TEST(MergePartialsTest, SmokePresetShardsMergeByteIdenticalWithColdStart) {
  // The CI contract verbatim: `--smoke --shard I/3` x 3 cold-started from
  // one trained model set, merged, must equal the unsharded smoke run —
  // with zero training passes on every shard.
  const CampaignSpec spec = CampaignSpec::smoke();
  CampaignRunner single(spec);
  const CampaignReport reference = single.run();

  std::vector<PartialReport> partials;
  for (std::uint32_t index = 0; index < 3; ++index) {
    CampaignSpec sharded = spec;
    sharded.shard = ShardSelector{index, 3};
    CampaignRunner runner(sharded, single.models());
    partials.push_back(runner.run_shard());
    EXPECT_EQ(runner.stats().training_passes, 0u);
  }
  const CampaignReport merged = merge_partials(std::move(partials));
  EXPECT_EQ(report_bytes(merged), report_bytes(reference));
}

TEST(MergePartialsTest, RunRejectsShardedSpecAndRunShardWorksUnsharded) {
  CampaignSpec spec = small_spec();
  spec.shard = ShardSelector{0, 2};
  CampaignRunner sharded(spec);
  EXPECT_THROW((void)sharded.run(), std::invalid_argument);

  spec.shard.reset();
  CampaignRunner unsharded(spec);
  const PartialReport partial = unsharded.run_shard();
  EXPECT_EQ(partial.shard, (ShardSelector{0, 1}));
  EXPECT_EQ(partial.rows.size(), spec.trial_count());
}

TEST(MergePartialsTest, RejectsIncompleteShardSets) {
  const CampaignSpec spec = small_spec();
  CampaignRunner single(spec);
  (void)single.models();  // train once, reuse everywhere

  const PartialReport shard0 = run_shard(spec, 0, 3, single.models());
  const PartialReport shard1 = run_shard(spec, 1, 3, single.models());

  EXPECT_THROW((void)merge_partials({}), std::runtime_error);

  try {
    (void)merge_partials({shard0, shard1});
    FAIL() << "missing shard must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing shard 3/3"),
              std::string::npos)
        << e.what();
  }

  try {
    (void)merge_partials({shard0, shard0, shard1});
    FAIL() << "duplicate shard must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate shard 1/3"),
              std::string::npos)
        << e.what();
  }
}

TEST(MergePartialsTest, RejectsShardsFromForeignSpecsOrCounts) {
  const CampaignSpec spec = small_spec();
  CampaignRunner single(spec);
  (void)single.models();

  const PartialReport shard0 = run_shard(spec, 0, 2, single.models());
  const PartialReport shard1 = run_shard(spec, 1, 2, single.models());

  // Same grid shape, different campaign (injection rates differ): the
  // spec fingerprint must refuse the mix.
  CampaignSpec foreign_spec = spec;
  foreign_spec.rates_hz = {50.0, 10.0};
  CampaignRunner foreign_runner(foreign_spec);
  const PartialReport foreign =
      run_shard(foreign_spec, 1, 2, foreign_runner.models());
  try {
    (void)merge_partials({shard0, foreign});
    FAIL() << "foreign spec must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign spec"),
              std::string::npos)
        << e.what();
  }

  // Same spec, disagreeing shard counts: slices of different partitions
  // cannot reassemble.
  const PartialReport third = run_shard(spec, 2, 3, single.models());
  EXPECT_THROW((void)merge_partials({shard0, shard1, third}),
               std::runtime_error);
}

// ---- worker resolution over sharded plans ----------------------------------

TEST(ResolveWorkersTest, ClampsToThePlanInsteadOfIdleThreads) {
  CampaignSpec spec = small_spec();
  spec.workers = 4096;
  EXPECT_EQ(CampaignRunner::resolve_workers(spec, 2), 2);
  EXPECT_EQ(CampaignRunner::resolve_workers(spec, 0), 0);
  spec.workers = 0;  // hardware concurrency, still clamped by the plan
  EXPECT_EQ(CampaignRunner::resolve_workers(spec, 1), 1);
  EXPECT_EQ(CampaignRunner::resolve_workers(spec, 0), 0);
  spec.workers = 2;
  EXPECT_EQ(CampaignRunner::resolve_workers(spec, 8), 2);
}

TEST(ResolveWorkersTest, EmptyShardSliceRunsWithoutAPool) {
  CampaignSpec spec = small_spec();
  spec.workers = 8;
  // 4 trials, 7 shards: shard 7/7 owns plan indices ≡ 6 (mod 7) — none.
  spec.shard = ShardSelector{6, 7};
  CampaignRunner runner(spec);
  const PartialReport partial = runner.run_shard();
  EXPECT_TRUE(partial.rows.empty());
  EXPECT_EQ(runner.stats().workers, 0);
  EXPECT_EQ(runner.stats().trials, 0u);
}

}  // namespace
}  // namespace canids::campaign
