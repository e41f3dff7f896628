// A deterministic pending-event set for discrete-event simulation.
//
// Events scheduled for the same instant execute in scheduling order
// (FIFO), which makes simulations reproducible regardless of heap
// internals. Cancellation is O(1) amortized via lazy deletion.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace flecc::sim {

/// Handle identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// Sentinel returned when no event exists.
inline constexpr EventId kInvalidEventId = 0;

/// Opaque key naming who scheduled an event (SimFabric packs the timer
/// owner's address into it); cancel_owned() cancels all of one owner's
/// live events at once.
using Owner = std::uint64_t;

/// Min-heap of timed callbacks with deterministic same-time ordering.
///
/// Events may be marked *daemon*: recurring maintenance (trigger polls,
/// gossip ticks) that should not keep a run-to-quiescence loop alive.
/// The queue tracks how many live events are non-daemon so the
/// simulator can stop once only daemons remain.
class EventQueue {
 public:
  /// Insert a callback to fire at absolute time `when`, optionally
  /// tagged with its `owner`. Returns a handle that can later be passed
  /// to `cancel`.
  EventId push(Time when, std::function<void()> fn, bool daemon = false,
               std::optional<Owner> owner = std::nullopt);

  /// Cancel a pending event. Returns true if the event was still pending
  /// (i.e., not yet popped and not already cancelled).
  bool cancel(EventId id);

  /// Cancel every pending event tagged with `owner`. A linear scan of
  /// the live events — meant for rare teardown paths.
  void cancel_owned(Owner owner);

  /// True if the given event is still pending.
  [[nodiscard]] bool pending(EventId id) const {
    return pending_.count(id) != 0;
  }

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return pending_.empty(); }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return pending_.size(); }

  /// True if at least one live non-daemon event remains.
  [[nodiscard]] bool has_non_daemon() const { return non_daemon_live_ > 0; }

  /// Timestamp of the earliest live event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Remove and return the earliest live event.
  /// Precondition: !empty().
  struct Popped {
    Time when;
    EventId id;
    std::function<void()> fn;
    bool daemon = false;
  };
  Popped pop();

  /// Drop every pending event.
  void clear();

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    EventId id;
    std::function<void()> fn;
    bool daemon;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// The per-event record of a pending id.
  struct Live {
    std::optional<Owner> owner;
    bool daemon;
  };

  // Pops heap entries whose ids are no longer pending (cancelled).
  void drop_dead_head() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<EventId, Live> pending_;
  std::size_t non_daemon_live_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;  // 0 is kInvalidEventId
};

}  // namespace flecc::sim
