#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace gae::sim {

EventId Simulation::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now()) t = now();
  const EventId id = next_id_++;
  queue_.push_back(Event{t, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  live_.insert(id);
  return id;
}

bool Simulation::cancel(EventId id) {
  // Lazy deletion: the queued event stays put and is skipped when popped,
  // until cancelled entries make up more than half of the heap. Then the heap
  // is rebuilt from the pending ones; that O(n) pass follows at least n/2
  // cancels, so each cancel costs amortised O(1).
  if (live_.erase(id) == 0) return false;
  if (queue_.size() > kCompactionFloor && queue_.size() > 2 * live_.size()) {
    std::erase_if(queue_, [this](const Event& ev) { return !live_.contains(ev.id); });
    std::make_heap(queue_.begin(), queue_.end(), Later{});
  }
  return true;
}

Simulation::Event Simulation::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

bool Simulation::step_until(SimTime t) {
  while (!queue_.empty()) {
    if (queue_.front().time > t) {
      if (live_.contains(queue_.front().id)) return false;
      pop();  // cancelled
      continue;
    }
    // Popped before firing, so an event that schedules, cancels or steps
    // re-entrantly sees a consistent heap.
    Event ev = pop();
    if (live_.erase(ev.id) == 0) continue;  // cancelled
    clock_.advance_to(ev.time);
    ev.fn();
    return true;
  }
  return false;
}

bool Simulation::step() { return step_until(std::numeric_limits<SimTime>::max()); }

void Simulation::run_until(SimTime t) {
  while (step_until(t)) {
  }
  clock_.advance_to(t);
}

std::uint64_t Simulation::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace gae::sim
