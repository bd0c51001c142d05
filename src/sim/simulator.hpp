#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace pmx {

/// Discrete-event simulation kernel.
///
/// The whole interconnect model (NICs, scheduler, fabric, traffic sources)
/// runs on one Simulator instance. Events at the same timestamp fire in
/// schedule order, which makes runs bit-reproducible.
class Simulator {
 public:
  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Schedule at an absolute time (must not be in the past).
  EventId schedule_at(TimeNs t, EventFn fn);
  /// Schedule `delay` after now (delay must be >= 0).
  EventId schedule_after(TimeNs delay, EventFn fn);
  void cancel(EventId id) { queue_.cancel(id); }

  /// Run until the event queue drains or stop() is called.
  void run();
  /// Run events up to and including time `t`; afterwards now() == t unless
  /// the queue drained earlier or was stopped.
  void run_until(TimeNs t);
  /// Request the current run()/run_until() loop to exit after the current
  /// event.
  void stop() { stopped_ = true; }

 private:
  EventQueue queue_;
  TimeNs now_ = TimeNs::zero();
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace pmx
