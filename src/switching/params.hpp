#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.hpp"
#include "control/reopt_params.hpp"
#include "fabric/link.hpp"
#include "fault/control_fault.hpp"
#include "fault/fault_model.hpp"
#include "nic/admission.hpp"
#include "switching/slot_auditor.hpp"

namespace pmx {

/// All timing constants of the evaluated system (Section 5 of the paper),
/// in one place. The defaults reproduce the paper's 128-processor setup.
/// The paper evaluates one timing model, so its fixed NIC, switch and
/// scheduler delays are constants; the fields are what a campaign sweeps.
struct SystemParams {
  /// Single-cycle NIC delay "to send or receive data".
  static constexpr TimeNs kNicCycle{10};
  /// Propagation through a digital crossbar (wormhole baseline).
  static constexpr TimeNs kDigitalSwitchHop{10};
  /// Propagation through the LVDS/optical crossbar: <2 ns, neglected.
  static constexpr TimeNs kPassiveSwitchHop{0};
  /// One scheduling pass, ASIC estimate for the 128x128 SL array.
  static constexpr TimeNs kSchedulerLatency{80};
  /// Wormhole worms are limited to 128 bytes (16 flits of 8 bytes).
  static constexpr std::uint64_t kMaxWormBytes = 128;

  std::size_t num_nodes = 128;

  /// Serial link: 6.4 Gb/s, 10-foot cables, 30/20/30 ns serdes + wire.
  LinkModel::Params link{};

  /// TDM slot clock period ("Each cycle is fixed at 100 ns or 80 bytes").
  TimeNs slot_length{100};
  /// Guard band at the end of each slot during which circuits must not be
  /// used (fabric reconfiguration + grant-line skew). With 20 ns of guard a
  /// 100 ns slot carries 64 usable bytes, matching the 64->80 byte knee the
  /// paper reports for the Scatter test.
  TimeNs guard_band{20};

  /// K: number of TDM configuration registers (the maximum multiplexing
  /// degree). Figure 4 uses 4; Figure 5 uses 3.
  std::size_t mux_degree = 4;

  /// Fault injection and NIC retransmission. All rates default to zero, in
  /// which case the fault layer is not instantiated at all and the system
  /// behaves bit-identically to the fault-free design.
  FaultParams fault{};

  /// Control-plane fault injection (lossy request/grant/release channel)
  /// plus the NIC grant watchdog and scheduler lease that heal it. All
  /// rates default to zero: no control-fault machinery is instantiated.
  ControlFaultParams ctrl{};

  /// Periodic slot-state auditor (invariant checks, strict abort or
  /// resync recovery). Disabled by default.
  AuditParams audit{};

  /// NIC-side admission control: per-source VOQ capacity and the policy
  /// (backpressure / shed) applied at overflow. Capacities default to zero,
  /// in which case no admission machinery runs and the system behaves
  /// bit-identically to the unbounded design.
  AdmissionParams admission{};

  /// Online slot-table re-optimization service loop (DESIGN.md §14).
  /// Disabled by default (period_slots == 0): no service is instantiated
  /// and the system behaves bit-identically to the static design.
  ReoptParams reopt{};

  [[nodiscard]] LinkModel link_model() const { return LinkModel{link}; }

  /// Sanity-check the parameter set; called by every network constructor.
  void validate() const;

  /// Usable data window within one TDM slot.
  [[nodiscard]] TimeNs slot_window() const { return slot_length - guard_band; }
  /// Payload bytes transferable per connection per slot.
  [[nodiscard]] std::uint64_t slot_payload_bytes() const {
    return link_model().bytes_in(slot_window());
  }

  /// Head-of-line latency NIC-to-NIC through the passive (LVDS/optical)
  /// fabric: 30+20+0+20+30 = 100 ns.
  [[nodiscard]] TimeNs passive_path_latency() const {
    return link_model().through_passive_switch(kPassiveSwitchHop);
  }
  /// Head latency through the digital fabric (wormhole): 30+20+10+20+30.
  [[nodiscard]] TimeNs digital_path_latency() const {
    return link_model().through_passive_switch(kDigitalSwitchHop);
  }

  /// One-way control-message latency NIC <-> scheduler ("the cable delay of
  /// 80 ns to send the request"): p2s + wire + s2p.
  [[nodiscard]] TimeNs control_wire_latency() const {
    return link_model().segment_latency();
  }
};

}  // namespace pmx
