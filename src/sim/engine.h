// Discrete-event simulation engine.
//
// Single-threaded and deterministic: events at equal timestamps fire in
// scheduling order. The grid experiments (fig. 7, steering ablations) run
// entirely in virtual time, so a 20-minute grid scenario executes in
// milliseconds and reproduces bit-for-bit. dst::SimNetwork schedules every
// simulated delivery on one of these too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/time_types.h"

namespace gae::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulation {
 public:
  /// Heaps at most this large are never rebuilt to shed cancelled entries.
  static constexpr std::size_t kCompactionFloor = 64;

  explicit Simulation(SimTime start = 0) : clock_(start) {}
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return clock_.now(); }

  /// The clock services should read; advances as events fire.
  const Clock& clock() const { return clock_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now).
  EventId schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` after `d` microseconds of virtual time.
  EventId schedule_after(SimDuration d, std::function<void()> fn) {
    return schedule_at(now() + (d > 0 ? d : 0), std::move(fn));
  }

  /// Cancels a pending event; false if it already fired or never existed.
  bool cancel(EventId id);

  /// Fires the next event if it is due at or before `t`; false (and the
  /// clock stays put) when the queue is empty or its next event is later.
  bool step_until(SimTime t);

  /// Fires the next event; false when the queue is empty.
  bool step();

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);

  /// Runs until no events remain (or max_events fired, as a runaway guard).
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  bool empty() const { return live_.empty(); }

  /// Entries in the heap, cancelled ones not yet shed included. Never more
  /// than twice the pending events plus kCompactionFloor.
  std::size_t queued() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    EventId id;  // also the tie-break: lower id fires first
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  /// Removes the heap's top entry and returns it.
  Event pop();

  ManualClock clock_;
  /// A min-heap under Later (std::push_heap / std::pop_heap).
  std::vector<Event> queue_;
  /// Ids of the events still pending: scheduled, neither fired nor
  /// cancelled. A queued event whose id is missing here was cancelled and is
  /// skipped when popped.
  std::unordered_set<EventId> live_;
  EventId next_id_ = 1;
};

}  // namespace gae::sim
