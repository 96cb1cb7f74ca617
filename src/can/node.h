// Simulated bus participants. A Node owns a bounded transmit queue (modelling
// controller mailboxes) and produces frames on its own schedule; the bus
// simulator drives arbitration between all nodes with pending frames.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "can/frame.h"
#include "util/rng.h"
#include "util/time.h"

namespace canids::can {

/// Counters a node accumulates over a simulation. "generated" counts every
/// frame the application layer asked to send; the difference between
/// generated and transmitted is the paper's injection-success view of I_r.
struct NodeStats {
  std::uint64_t generated = 0;            ///< frames the node wanted to send
  std::uint64_t dropped_overflow = 0;     ///< lost to a full transmit queue
  std::uint64_t blocked_by_filter = 0;    ///< rejected by the transmitter filter
  std::uint64_t arbitration_attempts = 0; ///< arbitration rounds entered
  std::uint64_t arbitration_wins = 0;     ///< rounds won
  std::uint64_t transmitted = 0;          ///< frames fully sent on the bus
  std::uint64_t collisions = 0;           ///< ties with an identical field

  /// Wins per arbitration attempt; the paper's Fig. 3 injection rate.
  [[nodiscard]] double arbitration_win_ratio() const noexcept {
    return arbitration_attempts == 0
               ? 0.0
               : static_cast<double>(arbitration_wins) /
                     static_cast<double>(arbitration_attempts);
  }

  /// Transmitted per generated frame; the success view used by N_m = Ir*f*T0.
  [[nodiscard]] double injection_success_ratio() const noexcept {
    return generated == 0 ? 0.0
                          : static_cast<double>(transmitted) /
                                static_cast<double>(generated);
  }
};

/// What to do when a frame arrives and the transmit queue is full.
enum class OverflowPolicy : std::uint8_t {
  kDropNewest,    ///< keep queued frames, drop the incoming one
  kReplaceOldest  ///< evict the oldest queued frame (controller overwrite)
};

/// Base class for all simulated ECUs (legitimate and malicious).
class Node {
 public:
  Node(std::string name, std::size_t queue_capacity = 8,
       OverflowPolicy overflow = OverflowPolicy::kDropNewest);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Enqueue every frame that becomes due at or before `now`.
  virtual void produce(util::TimeNs now) = 0;

  /// Earliest future time at which produce() would enqueue something, or
  /// util::kNever when the node has nothing scheduled.
  [[nodiscard]] virtual util::TimeNs next_production_time() const = 0;

  /// Observe a frame completing on the bus (own frames included).
  virtual void on_bus_frame(const TimedFrame& frame) { (void)frame; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool has_pending() const noexcept { return !queue_.empty(); }
  [[nodiscard]] const Frame& head() const;
  void pop_head();

  [[nodiscard]] NodeStats& stats() noexcept { return stats_; }
  [[nodiscard]] const NodeStats& stats() const noexcept { return stats_; }

  [[nodiscard]] bool disabled() const noexcept { return disabled_; }
  void set_disabled(bool disabled) noexcept { disabled_ = disabled; }

  /// Earliest time this node may (re-)enter arbitration; updated by the bus
  /// after a lost round (the paper's "six clocks" back-off).
  [[nodiscard]] util::TimeNs retry_not_before() const noexcept {
    return retry_not_before_;
  }
  void set_retry_not_before(util::TimeNs t) noexcept { retry_not_before_ = t; }

  /// Install a transmitter-side filter (the weak adversary's constraint):
  /// frames failing the predicate never reach the queue and are counted in
  /// stats().blocked_by_filter.
  void set_transmit_filter(std::function<bool(const Frame&)> filter) {
    tx_filter_ = std::move(filter);
  }

 protected:
  /// Submit a frame from the node's application layer. Applies the
  /// transmitter filter and the overflow policy. Returns true if queued.
  bool submit(const Frame& frame);

 private:
  std::string name_;
  std::size_t queue_capacity_;
  OverflowPolicy overflow_;
  std::deque<Frame> queue_;
  NodeStats stats_;
  bool disabled_ = false;
  util::TimeNs retry_not_before_ = 0;
  std::function<bool(const Frame&)> tx_filter_;
};

/// Payload content models for periodic messages; they only affect the data
/// field, never the identifier, but keep simulated traffic realistic.
enum class PayloadKind : std::uint8_t {
  kConstant,  ///< fixed bytes
  kCounter,   ///< rolling message counter in byte 0, constant elsewhere
  kSensor,    ///< slowly drifting 16-bit signals
  kRandom     ///< uniformly random bytes
};

/// One periodic message an ECU emits.
struct MessageSpec {
  CanId id;
  util::TimeNs period = 100 * util::kMillisecond;
  util::TimeNs offset = 0;          ///< phase of the first transmission
  std::uint8_t dlc = 8;
  PayloadKind payload = PayloadKind::kSensor;
  double jitter_fraction = 0.005;   ///< uniform +-fraction of the period
};

/// A legitimate ECU transmitting a fixed set of periodic messages.
class PeriodicSender : public Node {
 public:
  PeriodicSender(std::string name, std::vector<MessageSpec> messages,
                 util::Rng rng, std::size_t queue_capacity = 8);

  void produce(util::TimeNs now) override;
  [[nodiscard]] util::TimeNs next_production_time() const override;

  [[nodiscard]] const std::vector<MessageSpec>& messages() const noexcept {
    return specs_;
  }

 private:
  struct ScheduleEntry {
    util::TimeNs next_due = 0;
    std::uint32_t sequence = 0;
    std::array<std::uint8_t, kMaxDataBytes> sensor_state{};
  };

  Frame make_frame(std::size_t index, util::TimeNs now);

  std::vector<MessageSpec> specs_;
  std::vector<ScheduleEntry> schedule_;
  util::Rng rng_;
};

}  // namespace canids::can
