#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace flecc::sim {

EventId Simulator::schedule_at(Time when, std::function<void()> fn,
                               bool daemon) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  return queue_.push(when, std::move(fn), daemon);
}

EventId Simulator::schedule_after(Duration delay, std::function<void()> fn,
                                  bool daemon, std::optional<Owner> owner) {
  if (delay < 0) {
    throw std::invalid_argument("Simulator::schedule_after: negative delay");
  }
  return queue_.push(now_ + delay, std::move(fn), daemon, owner);
}

std::size_t Simulator::run() {
  stop_requested_ = false;
  std::size_t n = 0;
  while (!stop_requested_ && queue_.has_non_daemon()) {
    auto ev = queue_.pop();
    now_ = ev.when;
    ++executed_;
    ++n;
    ev.fn();
  }
  return n;
}

std::size_t Simulator::run_until(Time until) {
  if (until < now_) {
    throw std::invalid_argument("Simulator::run_until: time in the past");
  }
  stop_requested_ = false;
  std::size_t n = 0;
  while (!stop_requested_ && !queue_.empty() && queue_.next_time() <= until) {
    auto ev = queue_.pop();
    now_ = ev.when;
    ++executed_;
    ++n;
    ev.fn();
  }
  if (!stop_requested_) now_ = until;
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  now_ = ev.when;
  ++executed_;
  ev.fn();
  return true;
}

}  // namespace flecc::sim
