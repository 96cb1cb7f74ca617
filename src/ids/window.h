// Windowing of the identifier stream. The paper's detector reacts "in a
// time period of as short as 1 s"; windows are time-based, 1 s by default.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "can/frame.h"
#include "ids/bit_counters.h"
#include "util/time.h"

namespace canids::ids {

/// Per-window measurement: the probability and entropy of each of the 11
/// bits plus frame accounting. This is both the training sample for the
/// golden template and the unit the detector judges. A plain value: closing
/// a window allocates nothing.
struct WindowSnapshot {
  util::TimeNs start = 0;
  util::TimeNs end = 0;
  std::uint64_t frames = 0;
  BitValues probabilities{};  ///< p_i per bit, MSB first
  BitValues entropies{};      ///< H_b(p_i) per bit
  /// q_ij per bit pair (flat upper-triangle order, see pair_index); absent
  /// when pair tracking is disabled. Used only by the inference extension.
  std::optional<PairValues> pair_probabilities;

  friend bool operator==(const WindowSnapshot&,
                         const WindowSnapshot&) = default;
};
static_assert(std::is_trivially_copyable_v<WindowSnapshot>);

struct WindowConfig {
  util::TimeNs duration = util::kSecond;
  /// Track pairwise bit co-occurrence (needed by the multi-ID inference
  /// extension; costs 55 extra counters, still O(1) in the ID count).
  bool track_pairs = true;
};

/// Accumulates identifiers and emits a WindowSnapshot whenever a window
/// closes. Windows are aligned to the first frame's timestamp; empty
/// windows (bus silence) are skipped rather than emitted.
///
/// The one identifier rule training and detection share: a standard 11-bit
/// identifier is counted; a 29-bit extended one only drives the window
/// clock and is counted in dropped(). The counters, the template and the
/// detector read 11 bits, and folding an extended ID's low bits into them
/// would misplace it. Its timestamp still closes windows, so every
/// detector's windows close on the same frames (the ensemble relies on it).
class WindowAccumulator {
 public:
  explicit WindowAccumulator(WindowConfig config = {});

  /// Feed one identifier; returns a snapshot when this frame closed the
  /// previous window (the frame itself belongs to the new window).
  std::optional<WindowSnapshot> add(util::TimeNs timestamp,
                                    const can::CanId& id);

  /// Batch path: feed `count` timestamped identifiers, appending the
  /// snapshot of every window they close to `out`. Bit-identical to
  /// calling add() per frame — the batch is split at window boundaries and
  /// each in-window run's standard identifiers are block-counted
  /// (PairCounters::add_batch).
  void add_batch(const can::TimedId* frames, std::size_t count,
                 std::vector<WindowSnapshot>& out);

  /// Emit whatever has accumulated (e.g. at end of trace); empty -> nullopt.
  std::optional<WindowSnapshot> flush();

  /// Extended identifiers fed so far: timed, never counted.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  /// Snapshot of the open window; it must hold a frame.
  [[nodiscard]] WindowSnapshot snapshot(util::TimeNs start,
                                        util::TimeNs end) const;

  /// Move the window clock to `timestamp`; returns the snapshot of the
  /// window this closes, if it held any frame.
  std::optional<WindowSnapshot> advance(util::TimeNs timestamp);

  /// Count one identifier, paying the pair counters only when configured.
  void count_one(const can::CanId& id) {
    if (config_.track_pairs) {
      counters_.add(id.raw());
    } else {
      counters_.add_marginal(id.raw());
    }
  }

  WindowConfig config_;
  PairCounters counters_;
  util::WindowClock clock_;
  util::TimeNs last_timestamp_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::uint32_t> scratch_ids_;  ///< add_batch run buffer
};

/// Split a whole identifier stream into window snapshots in one call.
[[nodiscard]] std::vector<WindowSnapshot> windows_of(
    const std::vector<can::TimedFrame>& frames, const WindowConfig& config);

}  // namespace canids::ids
