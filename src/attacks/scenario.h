// The attack-scenario corpus as bus-simulator nodes: the paper's four
// injection scenarios (§III.B) plus the wider suite the comparative IDS
// literature evaluates — replay, ECU suspend, fuzzing, and masquerade.
//
// Injection attackers are InjectionNodes: a compromised ECU generating
// malicious frames at a configured frequency, with a transmit queue of
// depth 1 that overwrites the pending frame (controller-mailbox
// semantics). This makes NodeStats::injection_success_ratio the paper's
// injection rate I_r and keeps N_m = I_r * f * T0 exact. The non-injection
// attackers (replay, suspend, masquerade) derive from the same AttackNode
// base but bring their own production schedules.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "can/node.h"
#include "trace/synthetic_vehicle.h"
#include "util/rng.h"

namespace canids::can {
class BusSimulator;
}  // namespace canids::can

namespace canids::attacks {

/// The injection rates campaign specs and the CLI accept. No simulated
/// bus carries more than kMaxRateHz frames per second, and across the
/// range every scenario's injection period (1 s / (rate x IDs)) stays a
/// positive TimeNs.
inline constexpr double kMinRateHz = 1e-3;
inline constexpr double kMaxRateHz = 1e5;

/// Common knobs shared by all scenarios.
struct AttackConfig {
  /// Frames per second the attacker generates (paper: 100/50/20/10 Hz).
  /// Replay, suspend, and masquerade ignore it: their schedules come from
  /// the recorded traffic, the silencing instant, and the victim's period.
  double frequency_hz = 100.0;
  /// When the attack starts/stops (simulation time).
  util::TimeNs start = 0;
  util::TimeNs stop = util::kNever;
  /// Payload length of injected frames.
  std::uint8_t dlc = 8;
};

/// Base class for every attacker node: carries the attack window, tracks
/// the distinct identifiers generated so far, and offers a post-attach
/// bind() hook for attackers that must resolve other bus participants
/// (suspend/masquerade find their victim ECU by node name).
class AttackNode : public can::Node {
 public:
  AttackNode(std::string name, AttackConfig config,
             std::size_t queue_capacity = 1,
             can::OverflowPolicy overflow = can::OverflowPolicy::kReplaceOldest);

  [[nodiscard]] const AttackConfig& attack_config() const noexcept {
    return config_;
  }

  /// Ground truth: the distinct identifiers generated so far, ascending.
  [[nodiscard]] std::vector<std::uint32_t> ids_used() const {
    return ids_used_;
  }

  /// Resolve references to other nodes once the attacker sits on the bus.
  /// Called by attach_attack() after add_node(); the default does nothing.
  virtual void bind(can::BusSimulator& bus);

 protected:
  /// Record one generated identifier into the sorted-unique ids_used set.
  void note_id(std::uint32_t id);

  AttackConfig config_;

 private:
  std::vector<std::uint32_t> ids_used_;  // kept sorted+unique
};

/// A malicious node injecting frames whose IDs come from `IdSelector`.
class InjectionNode : public AttackNode {
 public:
  /// Returns the identifier for the seq-th injected frame.
  using IdSelector = std::function<can::CanId(std::uint32_t seq)>;

  InjectionNode(std::string name, AttackConfig config, IdSelector selector,
                util::Rng rng);

  void produce(util::TimeNs now) override;
  [[nodiscard]] util::TimeNs next_production_time() const override;

 private:
  IdSelector selector_;
  util::Rng rng_;
  util::TimeNs next_due_;
  util::TimeNs period_;
  std::uint32_t sequence_ = 0;
};

/// Records the legitimate traffic preceding the attack window and
/// re-transmits it from `start`, preserving the recorded inter-arrival
/// gaps (looping over the recording until `stop`). Nothing about the ID
/// distribution changes — which is exactly why replay stresses the
/// interval baseline (per-ID rates double) while the entropy view stays
/// near-blind.
class ReplayNode final : public AttackNode {
 public:
  ReplayNode(std::string name, AttackConfig config);

  void on_bus_frame(const can::TimedFrame& frame) override;
  void produce(util::TimeNs now) override;
  [[nodiscard]] util::TimeNs next_production_time() const override;

  /// Frames captured during the recording phase so far.
  [[nodiscard]] std::size_t recorded_frames() const noexcept {
    return recording_.size();
  }

 private:
  [[nodiscard]] util::TimeNs due_time() const noexcept;

  std::vector<std::pair<util::TimeNs, can::Frame>> recording_;
  std::size_t cursor_ = 0;
  std::uint64_t loop_ = 0;
  bool recording_closed_ = false;
};

/// Silences a compromised ECU at `start`: the victim node is disabled and
/// stays silent for the rest of the run (a killed ECU does not resurrect;
/// trials end at the attack window anyway). The victim's identifiers
/// vanish from the traffic mix, pushing per-bit entropy through the
/// template's OTHER tail — the attack the two-sided alert rule exists for.
class EcuSuspendNode : public AttackNode {
 public:
  EcuSuspendNode(std::string name, AttackConfig config,
                 std::string victim_node);

  /// Resolves the victim by node name; attach_attack() must run before the
  /// simulation (a suspend attacker without a bound victim is a bug).
  void bind(can::BusSimulator& bus) override;

  void produce(util::TimeNs now) override;
  [[nodiscard]] util::TimeNs next_production_time() const override;

  [[nodiscard]] bool suspended() const noexcept { return suspended_; }
  [[nodiscard]] const std::string& victim_node() const noexcept {
    return victim_node_;
  }

 protected:
  can::Node* victim_ = nullptr;

 private:
  std::string victim_node_;
  bool suspended_ = false;
};

/// The hard case: silence the victim ECU, then impersonate its
/// highest-rate periodic message — same identifier, same period,
/// continuing the cadence observed before the takeover. Only the victim's
/// REMAINING messages go missing, so the entropy signal is a weakened
/// suspend and the interval view sees (near) nominal timing.
class MasqueradeNode final : public EcuSuspendNode {
 public:
  MasqueradeNode(std::string name, AttackConfig config,
                 std::string victim_node, can::MessageSpec target,
                 util::Rng rng);

  void on_bus_frame(const can::TimedFrame& frame) override;
  void produce(util::TimeNs now) override;
  [[nodiscard]] util::TimeNs next_production_time() const override;

  [[nodiscard]] const can::MessageSpec& target() const noexcept {
    return target_;
  }

 private:
  can::MessageSpec target_;
  util::Rng rng_;
  util::TimeNs next_due_ = util::kNever;
  util::TimeNs last_seen_ = -1;  ///< target's last pre-attack transmission
  bool forging_ = false;
};

/// Scenario taxonomy: Table I of the paper plus the wider comparative
/// suite (HIVIDS, ROAD). Keep kScenarioKindCount_ last — it sizes the
/// traits table below, and the static_asserts there make forgetting a
/// table row a compile error.
enum class ScenarioKind : std::uint8_t {
  kFlood,       ///< strong adversary, changeable high-priority IDs
  kSingle,      ///< strong adversary, one chosen ID
  kMulti2,      ///< strong adversary, 2 IDs
  kMulti3,      ///< strong adversary, 3 IDs
  kMulti4,      ///< strong adversary, 4 IDs
  kWeak,        ///< weak adversary, fixed legal IDs behind a filter
  kReplay,      ///< re-transmit recorded legitimate frames, timing kept
  kSuspend,     ///< compromised ECU goes silent (entropy rises)
  kFuzzing,     ///< random IDs/payloads at a configurable rate
  kMasquerade,  ///< suspend an ECU, impersonate its ID and timing
  kScenarioKindCount_,  ///< sentinel, not a scenario — keep last
};

inline constexpr std::size_t kScenarioKindCount =
    static_cast<std::size_t>(ScenarioKind::kScenarioKindCount_);

/// Everything name/id_count/inferable/token know about one kind, in one
/// row. Adding a ScenarioKind without a matching row (or with rows out of
/// enum order) fails the static_asserts below at compile time.
struct ScenarioTraits {
  ScenarioKind kind;
  std::string_view name;    ///< human-readable (Table I vocabulary)
  std::string_view token;   ///< machine token (specs, CLI, report columns)
  int id_count;             ///< planned distinct IDs; 0 = unbounded/varies
  bool inferable;           ///< paper's ID-inference extension applies
};

inline constexpr std::array<ScenarioTraits, kScenarioKindCount>
    kScenarioTraits = {{
        // The paper marks inference "--" for flooding: changeable random
        // IDs leave no stable bit signature to invert. The four extended
        // scenarios either inject no fixed forged set (replay/fuzzing),
        // inject nothing at all (suspend), or forge a legitimate ID that
        // inference would "find" trivially (masquerade) — none inferable.
        {ScenarioKind::kFlood, "Flood", "flood", 0, false},
        {ScenarioKind::kSingle, "Single Injection", "single", 1, true},
        {ScenarioKind::kMulti2, "Multiple_Injection_2", "multi2", 2, true},
        {ScenarioKind::kMulti3, "Multiple_Injection_3", "multi3", 3, true},
        {ScenarioKind::kMulti4, "Multiple_Injection_4", "multi4", 4, true},
        {ScenarioKind::kWeak, "Weak Injection", "weak", 2, true},
        {ScenarioKind::kReplay, "Replay", "replay", 0, false},
        {ScenarioKind::kSuspend, "ECU Suspend", "suspend", 0, false},
        {ScenarioKind::kFuzzing, "Fuzzing", "fuzzing", 0, false},
        {ScenarioKind::kMasquerade, "Masquerade", "masquerade", 1, false},
    }};

static_assert(kScenarioTraits.size() == kScenarioKindCount,
              "every ScenarioKind needs a kScenarioTraits row");
static_assert(
    [] {
      for (std::size_t i = 0; i < kScenarioTraits.size(); ++i) {
        if (kScenarioTraits[i].kind != static_cast<ScenarioKind>(i)) {
          return false;
        }
      }
      return true;
    }(),
    "kScenarioTraits rows must appear in ScenarioKind enum order");

/// All scenarios, derived from the traits table (never hand-maintained).
inline constexpr std::array<ScenarioKind, kScenarioKindCount> kAllScenarios =
    [] {
      std::array<ScenarioKind, kScenarioKindCount> all{};
      for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = kScenarioTraits[i].kind;
      }
      return all;
    }();

[[nodiscard]] std::string_view scenario_name(ScenarioKind kind) noexcept;
/// Short machine token ("flood", "replay", ...) used by campaign specs,
/// report columns, and `canids simulate --attack`.
[[nodiscard]] std::string_view scenario_token(ScenarioKind kind) noexcept;
[[nodiscard]] bool scenario_inferable(ScenarioKind kind) noexcept;

/// A fully-built attacker: the node (to hand to the bus) plus the ground
/// truth needed for scoring.
struct BuiltAttack {
  std::unique_ptr<AttackNode> node;
  /// IDs the attacker will inject/forge (empty when unbounded or none).
  std::vector<std::uint32_t> planned_ids;
  ScenarioKind kind{};
  /// Suspend/masquerade: the bus node name of the silenced ECU.
  std::string victim_node;
  /// Suspend/masquerade: identifiers that go missing from the traffic.
  std::vector<std::uint32_t> silenced_ids;
};

/// The attacker node on the bus, after bind(): what experiment harnesses
/// keep to read stats and attribute frames (TimedFrame::source_node).
struct AttachedAttack {
  AttackNode* node = nullptr;
  int index = -1;
};

/// Hand the built attacker to the bus and resolve its victim references.
/// Every simulation path must use this instead of bus.add_node(): suspend
/// and masquerade attackers are inert until bind() finds their victim.
AttachedAttack attach_attack(can::BusSimulator& bus, BuiltAttack& attack);

/// Factory helpers for each scenario. `rng` drives all random choices so
/// experiments are reproducible.
[[nodiscard]] BuiltAttack make_flooding_attack(const AttackConfig& config,
                                               util::Rng rng,
                                               std::uint32_t id_floor = 0x001,
                                               std::uint32_t id_ceiling = 0x07F);

[[nodiscard]] BuiltAttack make_single_id_attack(const AttackConfig& config,
                                                std::uint32_t id,
                                                util::Rng rng);

[[nodiscard]] BuiltAttack make_multi_id_attack(const AttackConfig& config,
                                               std::vector<std::uint32_t> ids,
                                               util::Rng rng);

/// Weak adversary: compromised ECU with a transmitter filter. `legal_ids`
/// is the ECU's assigned set; the attacker abuses `ids_to_use` of them
/// (must be a subset; enforced by the filter regardless).
[[nodiscard]] BuiltAttack make_weak_attack(const AttackConfig& config,
                                           std::vector<std::uint32_t> legal_ids,
                                           std::vector<std::uint32_t> ids_to_use,
                                           util::Rng rng);

/// Replay: record everything before `config.start` (which must be > 0 —
/// an empty recording replays nothing), then loop it with original gaps.
[[nodiscard]] BuiltAttack make_replay_attack(const AttackConfig& config);

/// Suspend: silence the ECU attached as bus node `victim_node`.
/// `victim_ids` is the ground-truth list of identifiers that disappear.
[[nodiscard]] BuiltAttack make_suspend_attack(
    const AttackConfig& config, std::string victim_node,
    std::vector<std::uint32_t> victim_ids);

/// Fuzzing: uniformly random identifiers over [id_floor, id_ceiling] with
/// random payloads at config.frequency_hz.
[[nodiscard]] BuiltAttack make_fuzzing_attack(
    const AttackConfig& config, util::Rng rng, std::uint32_t id_floor = 0x000,
    std::uint32_t id_ceiling = can::kMaxStdId);

/// Masquerade: silence `victim_node` and impersonate its message `target`
/// (ID, period, DLC), continuing the observed cadence.
[[nodiscard]] BuiltAttack make_masquerade_attack(
    const AttackConfig& config, std::string victim_node,
    std::vector<std::uint32_t> victim_ids, const can::MessageSpec& target,
    util::Rng rng);

/// Build the standard instance of a scenario against a synthetic vehicle:
/// picks attack IDs from the vehicle's pool the way the paper describes
/// (single/multi choose injectable legal IDs; weak/suspend/masquerade
/// compromise one ECU).
[[nodiscard]] BuiltAttack make_scenario(ScenarioKind kind,
                                        const trace::SyntheticVehicle& vehicle,
                                        const AttackConfig& config,
                                        util::Rng rng);

}  // namespace canids::attacks
