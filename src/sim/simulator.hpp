// The discrete-event simulator driving all `SimFabric`-based runs.
//
// A single-threaded kernel: handlers scheduled with `schedule_*` run in
// timestamp order; same-time handlers run in scheduling order. Handlers
// may schedule further events, cancel events, or stop the run.
#pragma once

#include <cstddef>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace flecc::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `when` (must be >= now()).
  /// Daemon events (recurring maintenance such as trigger polls) do not
  /// keep run() alive: run() returns once only daemons remain.
  EventId schedule_at(Time when, std::function<void()> fn,
                      bool daemon = false);

  /// Schedule `fn` after `delay` (must be >= 0). An `owner`-tagged
  /// event is also cancelled by cancel_owned(owner).
  EventId schedule_after(Duration delay, std::function<void()> fn,
                         bool daemon = false,
                         std::optional<Owner> owner = std::nullopt);

  /// Cancel a pending event; returns true if it was still pending.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Cancel every pending event tagged with `owner`.
  void cancel_owned(Owner owner) { queue_.cancel_owned(owner); }

  /// True if the event has neither run nor been cancelled.
  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  /// Execute events until only daemon events (or nothing) remain, or
  /// stop() is called — i.e. run the system to quiescence. Returns the
  /// number of events executed by this call.
  std::size_t run();

  /// Execute events with timestamp <= `until`, then advance the clock to
  /// `until` (if it is past the last executed event). Returns the number
  /// of events executed by this call.
  std::size_t run_until(Time until);

  /// Execute exactly one event if any is pending. Returns whether one ran.
  bool step();

  /// Request that the current run()/run_until() return after the
  /// currently-executing handler finishes. Callable from handlers.
  void stop() noexcept { stop_requested_ = true; }

  /// Total events executed since construction.
  [[nodiscard]] std::size_t executed_events() const noexcept {
    return executed_;
  }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  EventQueue queue_;
  Time now_ = kTimeZero;
  std::size_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace flecc::sim
