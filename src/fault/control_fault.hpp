#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace pmx {

/// The message classes of the scheduling circuit's control path (Section
/// 4): a NIC raising a request bit, the scheduler's grant/revoke reply, the
/// NIC dropping its request (release), and the re-optimization service's
/// apply command (reconfig, DESIGN.md §14). The data-plane FaultModel never
/// touches these; this enum keys the control-plane fault injector.
enum class CtrlMsg : std::uint8_t {
  kRequest = 0,
  kGrant = 1,
  kRelease = 2,
  kReconfig = 3,
};

/// Number of CtrlMsg kinds (stats/script array extents).
inline constexpr std::size_t kNumCtrlMsgKinds = 4;

[[nodiscard]] const char* to_string(CtrlMsg kind);

/// Configuration of the control-plane fault injector. All rates default to
/// zero, in which case no ControlFaultModel is instantiated and every
/// network's control path behaves exactly as the lossless seed system.
/// Mirrors the FaultParams API (seeded, scripted, rate-based).
struct ControlFaultParams {
  /// Seed for the injector's private RNG stream; independent of the
  /// data-plane fault seed and the workload seed.
  std::uint64_t seed = 0xC7A15EEDu;

  /// Probability that one control message is silently dropped in transit
  /// (or arrives corrupted and is discarded by the receiver's check).
  /// Applies to every kind unless overridden per kind below.
  double loss = 0.0;
  /// Probability that a control message is delayed by `delay` (skew,
  /// serialization queueing on the control wire).
  double delay_rate = 0.0;
  /// Extra latency applied to delayed messages.
  TimeNs delay{160};

  /// Per-kind loss overrides. Negative (the default) falls back to `loss`;
  /// zero makes that kind reliable.
  double grant_loss = -1.0;
  double release_loss = -1.0;
  /// Loss override for the re-optimization service's reconfig commands
  /// (they ride the same lossy channel as request/grant/release).
  double reconfig_loss = -1.0;

  // --- NIC grant watchdog --------------------------------------------------
  /// How long a NIC waits for evidence of its request (a grant, or data
  /// progress) before reissuing it. Doubles per attempt (exponential
  /// backoff), capped at `watchdog_cap`. Must be positive.
  TimeNs watchdog_timeout{500};
  TimeNs watchdog_cap{16'000};

  // --- Scheduler-side lease ------------------------------------------------
  /// A request/connection the scheduler holds that shows no activity (no
  /// data, no request refresh) for this long is auto-expired, healing lost
  /// releases. Zero disables leases; otherwise must be at least one TDM
  /// slot (an active connection proves liveness once per slot).
  TimeNs lease{5'000};

  /// Master switch for the self-healing machinery (watchdog reissue +
  /// lease expiry). Disabled, lost control messages wedge or leak -- which
  /// is exactly what the strict-mode auditor tests prove.
  bool heal = true;

  /// Instantiate the control-fault machinery even with all rates zero --
  /// used by tests that script faults and to verify the watchdog/lease
  /// layer is timing-neutral when nothing is ever lost.
  bool force_enable = false;

  /// True when any control-fault source (or force_enable) is configured.
  [[nodiscard]] bool enabled() const {
    return force_enable || loss > 0.0 || delay_rate > 0.0 ||
           grant_loss > 0.0 || release_loss > 0.0 || reconfig_loss > 0.0;
  }

  /// Effective loss probability for one message kind.
  [[nodiscard]] double effective_loss(CtrlMsg kind) const;

  /// Fail fast on nonsensical knobs; `slot_length` bounds the lease.
  void validate(TimeNs slot_length) const;
};

/// Deterministic fault injector for the NIC <-> scheduler control channel.
///
/// Every control message is routed through send(): one seeded draw decides
/// whether it is delivered (possibly delayed) or dropped. A corrupted
/// control message fails the receiver's check and is discarded, so `loss`
/// covers corruption too. Scripted force_* hooks override the next n draws
/// of one kind without consuming the RNG stream, mirroring
/// FaultModel::force_corrupt_payloads / inject_link_fault.
class ControlFaultModel {
 public:
  /// What the channel decided for one message.
  enum class Verdict : std::uint8_t { kDeliver, kDrop, kDelay };

  /// Per-kind delivery statistics.
  struct KindStats {
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t delayed = 0;
  };

  ControlFaultModel(Simulator& sim, const ControlFaultParams& params,
                    TimeNs slot_length);

  [[nodiscard]] const ControlFaultParams& params() const { return params_; }

  /// Draw the channel's verdict for one message of `kind` (consumes RNG
  /// only for rates that are nonzero; scripted overrides consume none).
  /// Counts the message in stats(). Callers that model a zero-latency
  /// control path (wormhole arbitration) use this directly.
  [[nodiscard]] Verdict decide(CtrlMsg kind);

  /// Route one control message through the lossy channel: schedules
  /// `deliver` after `latency` (plus `delay` when delayed) and returns true,
  /// or drops it and returns false (nothing scheduled).
  bool send(CtrlMsg kind, TimeNs latency, EventFn deliver);

  /// Scripted faults: the next `n` messages of `kind` are dropped /
  /// delayed regardless of the random draws (which are not consumed).
  /// Deterministic test hooks.
  void force_drop(CtrlMsg kind, std::size_t n);
  void force_delay(CtrlMsg kind, std::size_t n);

  /// Watchdog backoff before reissue attempt `attempt` (attempt 1 is the
  /// initial wait): watchdog_timeout * 2^(attempt-1), capped.
  [[nodiscard]] TimeNs watchdog_delay(std::size_t attempt) const;

  [[nodiscard]] const KindStats& stats(CtrlMsg kind) const {
    return stats_[static_cast<std::size_t>(kind)];
  }
  /// Sums over all message kinds.
  [[nodiscard]] std::uint64_t total_sent() const;
  [[nodiscard]] std::uint64_t total_dropped() const;
  [[nodiscard]] std::uint64_t total_delayed() const;

 private:
  Simulator& sim_;
  ControlFaultParams params_;
  Rng rng_;
  std::array<KindStats, kNumCtrlMsgKinds> stats_{};
  std::array<std::size_t, kNumCtrlMsgKinds> forced_drops_{};
  std::array<std::size_t, kNumCtrlMsgKinds> forced_delays_{};
};

}  // namespace pmx
