// The transport abstraction the coherence protocols are written against.
//
// Both runtimes implement it:
//   * net::SimFabric — deterministic discrete-event delivery (tests,
//     benches, figure reproduction);
//   * rt::ThreadFabric — real threads, one mailbox thread per endpoint.
//
// Contract: an endpoint's handlers (`on_message`, timer callbacks) are
// never invoked concurrently with each other. Under SimFabric this is
// trivial (single thread); under ThreadFabric it is guaranteed by the
// per-endpoint mailbox.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "net/address.hpp"
#include "net/message.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace flecc::obs {
class CausalClock;
}  // namespace flecc::obs

namespace flecc::net {

/// A message handler attached to an address.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_message(const Message& m) = 0;
};

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimerId = 0;

class Fabric {
 public:
  virtual ~Fabric() = default;

  /// Current time: simulated (SimFabric) or wall-clock-derived
  /// (ThreadFabric). Monotonic, microseconds.
  [[nodiscard]] virtual sim::Time now() const = 0;

  /// Attach an endpoint at `addr`. The endpoint must outlive the binding.
  /// Rebinding an address after unbind() attaches the new endpoint in
  /// its place — directory crash-recovery relies on this (a restarted
  /// DirectoryManager rebinds its predecessor's address; messages that
  /// raced the gap were dropped as "unbound"). The new binding starts
  /// with no timers: nothing scheduled under the old one survives.
  virtual void bind(const Address& addr, Endpoint& ep) = 0;

  /// Detach the endpoint at `addr` and cancel every pending timer
  /// scheduled with `owner == addr` (plain and daemon alike), so an
  /// endpoint's timers end with its binding and its teardown needs no
  /// cancel list. In-flight messages to `addr` are not cancelled: they
  /// are dropped at delivery and counted in `msg.dropped.unbound`.
  virtual void unbind(const Address& addr) = 0;

  /// Send a message. Never blocks; delivery is asynchronous.
  virtual void send(Address from, Address to, std::string type,
                    std::any payload, std::size_t bytes) = 0;

  /// Run `fn` after `delay`, serialized with `owner`'s message handlers.
  /// The timer belongs to `owner`'s binding: unbind(owner) cancels it.
  virtual TimerId schedule(const Address& owner, sim::Duration delay,
                           std::function<void()> fn) = 0;

  /// Like schedule(), but for recurring maintenance (trigger polls,
  /// gossip ticks): under SimFabric such timers do not keep
  /// Simulator::run() alive — the run-to-quiescence loop may end with
  /// daemon timers still pending. ThreadFabric treats both identically.
  virtual TimerId schedule_daemon(const Address& owner, sim::Duration delay,
                                  std::function<void()> fn) {
    return schedule(owner, delay, std::move(fn));
  }

  /// Cancel a pending timer; returns true if it had not fired yet.
  virtual bool cancel_timer(TimerId id) = 0;

  /// Cancel `timer` if it is armed, then disarm it (kInvalidTimerId).
  void disarm(TimerId& timer) {
    if (timer != kInvalidTimerId) {
      cancel_timer(std::exchange(timer, kInvalidTimerId));
    }
  }

  /// Register the Lamport clock of the endpoint at `addr` (obs causal
  /// tracing): sends from `addr` tick it into Message::clock, and
  /// deliveries to `addr` observe the sender's stamp. nullptr
  /// unregisters (call before unbind — the fabric does not own the
  /// clock). Default: fabric does not propagate clocks.
  virtual void set_clock(const Address& addr, obs::CausalClock* clock) {
    (void)addr;
    (void)clock;
  }

  /// Traffic counters: msg.sent.<type>, msg.delivered.<type>,
  /// bytes.sent.<type>, msg.dropped.*.
  [[nodiscard]] virtual sim::CounterSet& counters() = 0;
  [[nodiscard]] virtual const sim::CounterSet& counters() const = 0;
};

/// A delivered-message observation for tracing (Figure-2 style output).
struct TraceEntry {
  std::uint64_t msg_id;
  Address from;
  Address to;
  std::string type;
  std::size_t bytes;
  sim::Time sent_at;
  sim::Time delivered_at;
};

using TraceHook = std::function<void(const TraceEntry&)>;

}  // namespace flecc::net
