// Mergeable partial campaign reports — the on-disk unit of distributed
// campaign execution. A sharded run (`canids campaign --shard I/N`)
// executes one deterministic slice of the canonical trial plan and saves a
// PartialReport: the spec (as its JSON form), the shard selector,
// fingerprints of the spec and of the plan, and the slice's
// fully-instrumented trial rows in canonical order. merge_partials (the
// `canids campaign merge` subcommand) reassembles N partials into the full
// CampaignReport — byte-identical to the single-process run — after
// proving the shards belong together: same spec fingerprint, same plan
// fingerprint, same shard count, no duplicate and no missing shards.
//
// File format (integers little-endian; doubles as raw IEEE-754 bit
// patterns, because trial metrics must survive the round trip bit-exactly):
//
//   offset  bytes  field
//   ------  -----  -----------------------------------------------
//   0       8      magic "canidsPR"
//   8       4      format version (u32, currently 1)
//   12      4      shard index (u32, 0-based)
//   16      4      shard count (u32)
//   20      8      spec fingerprint (u64, FNV-1a over the spec JSON)
//   28      8      plan fingerprint (u64, FNV-1a over the canonical plan)
//   36      8      full-plan trial count (u64)
//   44      4+n    spec JSON (u32 length + bytes)
//   then    8      row count (u64)
//   then, per row: u64 canonical plan index + the serialized trial
//
// load() is strict in the ModelBundle::load tradition: bad magic, an
// unsupported version, truncation at any byte, trailing bytes, a spec
// that does not hash to the recorded fingerprints, rows out of canonical
// order, rows the shard selector does not own, or rows whose coordinates
// disagree with the plan all throw — a half-written or foreign partial
// must never merge silently.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "campaign/report.h"
#include "campaign/spec.h"
#include "metrics/experiment.h"

namespace canids::campaign {

/// First 8 bytes of every partial-report file.
inline constexpr std::string_view kPartialMagic = "canidsPR";

/// Current on-disk format version; load() rejects anything else.
inline constexpr std::uint32_t kPartialFormatVersion = 1;

/// FNV-1a fingerprint of the spec's canonical JSON form — what shards of
/// the same campaign must agree on. Execution knobs (workers, shard,
/// model_path) are not serialized, so cold-started and train-in-process
/// shards of one spec fingerprint identically.
[[nodiscard]] std::uint64_t fingerprint_spec(const CampaignSpec& spec);

/// FNV-1a fingerprint of a canonical trial plan (indices, coordinates,
/// seeds). Redundant with fingerprint_spec today, but it pins the plan
/// *algorithm* too: if a future version reorders plan(), old partials
/// refuse to merge instead of silently permuting trials.
[[nodiscard]] std::uint64_t fingerprint_plan(const std::vector<TrialPlan>& plan);

struct PartialReport {
  struct Row {
    std::uint64_t plan_index = 0;  ///< position in the FULL canonical plan
    metrics::InstrumentedTrial trial;
  };

  CampaignSpec spec;  ///< the full campaign this shard belongs to
  ShardSelector shard;
  std::vector<Row> rows;  ///< canonical order (ascending plan_index)

  /// Serialize to the format above. save() leaves checking `out` to the
  /// caller; save_file throws util::WriteError when the file cannot be
  /// written in full.
  void save(std::ostream& out) const;
  void save_file(const std::filesystem::path& path) const;

  /// Parse a partial report, consuming the whole stream; strict (see the
  /// header comment). Throws std::runtime_error on any violation.
  [[nodiscard]] static PartialReport load(std::istream& in);
  [[nodiscard]] static PartialReport load_file(const std::filesystem::path& path);
};

/// Reassemble a full campaign from its shards and aggregate exactly as a
/// single-process run would — the result is byte-identical to
/// CampaignRunner::run() on the unsharded spec. Throws std::runtime_error
/// when the partials do not form exactly one complete campaign: foreign
/// spec or plan fingerprints, disagreeing shard counts, a duplicate shard,
/// or a missing shard.
[[nodiscard]] CampaignReport merge_partials(std::vector<PartialReport> partials);

}  // namespace canids::campaign
