#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace flecc::sim {

EventId EventQueue::push(Time when, std::function<void()> fn, bool daemon,
                         std::optional<Owner> owner) {
  const EventId id = next_id_++;
  heap_.push(Entry{when, next_seq_++, id, std::move(fn), daemon});
  pending_.emplace(id, Live{owner, daemon});
  if (!daemon) ++non_daemon_live_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  // Cancelled entries stay in the heap and are skipped lazily when they
  // reach the top (drop_dead_head).
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  if (!it->second.daemon) --non_daemon_live_;
  pending_.erase(it);
  return true;
}

void EventQueue::cancel_owned(Owner owner) {
  std::erase_if(pending_, [this, owner](const auto& entry) {
    if (entry.second.owner != owner) return false;
    if (!entry.second.daemon) --non_daemon_live_;
    return true;
  });
}

Time EventQueue::next_time() const {
  drop_dead_head();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time on empty queue");
  }
  return heap_.top().when;
}

EventQueue::Popped EventQueue::pop() {
  drop_dead_head();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  // priority_queue::top() returns const&; we move the callback out and
  // pop immediately after, so the mutation is not observable.
  Entry& top = const_cast<Entry&>(heap_.top());
  Popped out{top.when, top.id, std::move(top.fn), top.daemon};
  heap_.pop();
  if (!out.daemon) --non_daemon_live_;
  pending_.erase(out.id);
  return out;
}

void EventQueue::clear() {
  while (!heap_.empty()) heap_.pop();
  pending_.clear();
  non_daemon_live_ = 0;
}

void EventQueue::drop_dead_head() const {
  while (!heap_.empty() && pending_.count(heap_.top().id) == 0) {
    heap_.pop();
  }
}

}  // namespace flecc::sim
