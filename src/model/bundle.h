// The versioned model-artifact container. The paper's deployment story
// (§IV: train off-vehicle, carry the golden template onto the ECU) needs a
// durable on-disk form for *every* trained model — the golden template, the
// Müter entropy band, the Song interval periods — so a `ModelBundle` holds
// named sections behind one magic + format version:
//
//   offset  bytes  field
//   ------  -----  -----------------------------------------------
//   0       8      magic "canidsMB"
//   8       4      format version (u32 little-endian, currently 2)
//   12      4      section count (u32 little-endian)
//   then, per section:
//           4      name length (u32 LE)     } strict: empty or
//           n      name bytes               } duplicate names reject
//           8      payload length (u64 LE)
//           m      payload bytes
//
// load() is strict: bad magic, an unsupported version, a truncated stream,
// or trailing bytes after the last section all throw — a half-written or
// foreign file must never cold-start a detector silently. The payload
// layout of each known section is model/store.cpp's; the version number
// covers it, so any section layout change bumps kBundleFormatVersion.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace canids::model {

/// First 8 bytes of every bundle file (no NUL terminator on disk).
inline constexpr std::string_view kBundleMagic = "canidsMB";

/// Current on-disk format version; load() rejects anything else.
inline constexpr std::uint32_t kBundleFormatVersion = 2;

/// Hard cap on one section's payload (256 MiB) — a corrupted length field
/// must fail fast instead of attempting a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxSectionBytes = 256ull << 20;

class ModelBundle {
 public:
  struct Section {
    std::string name;
    std::string payload;
  };

  /// Append a named section. Throws std::invalid_argument on an empty or
  /// duplicate name.
  void add(std::string name, std::string payload);

  [[nodiscard]] bool contains(std::string_view name) const noexcept;

  /// Payload of the named section, or nullptr when absent.
  [[nodiscard]] const std::string* find(std::string_view name) const noexcept;

  /// Sections in insertion order (the order save() writes).
  [[nodiscard]] const std::vector<Section>& sections() const noexcept {
    return sections_;
  }

  [[nodiscard]] bool empty() const noexcept { return sections_.empty(); }

  /// Serialize to the format above. The caller checks `out`
  /// (save_models_file does).
  void save(std::ostream& out) const;

  /// Parse a bundle, consuming the whole stream. Throws std::runtime_error
  /// on bad magic, a version other than kBundleFormatVersion, truncation,
  /// malformed section framing, or trailing bytes after the last section.
  [[nodiscard]] static ModelBundle load(std::istream& in);

 private:
  std::vector<Section> sections_;
};

}  // namespace canids::model
