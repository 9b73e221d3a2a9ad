#include "sim/engine.h"

#include <utility>

namespace gae::sim {

EventId Simulation::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now()) t = now();
  const EventId id = next_id_++;
  queue_.push(Event{t, id, std::move(fn)});
  live_.insert(id);
  return id;
}

bool Simulation::cancel(EventId id) {
  // Lazy deletion: the queued event stays put and is skipped when popped.
  return live_.erase(id) > 0;
}

bool Simulation::step() {
  while (!queue_.empty()) {
    // priority_queue has no non-const top-move; copy of the function is the
    // cost of lazy deletion, acceptable at this scale.
    Event ev = queue_.top();
    queue_.pop();
    if (live_.erase(ev.id) == 0) continue;  // cancelled
    clock_.advance_to(ev.time);
    ++fired_;
    ev.fn();
    return true;
  }
  return false;
}

void Simulation::run_until(SimTime t) {
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    if (!live_.count(top.id)) {  // cancelled
      queue_.pop();
      continue;
    }
    if (top.time > t) break;
    step();
  }
  clock_.advance_to(t);
}

std::uint64_t Simulation::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace gae::sim
