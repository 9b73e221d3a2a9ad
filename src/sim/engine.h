// Discrete-event simulation engine.
//
// Single-threaded and deterministic: events at equal timestamps fire in
// scheduling order. The grid experiments (fig. 7, steering ablations) run
// entirely in virtual time, so a 20-minute grid scenario executes in
// milliseconds and reproduces bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/time_types.h"

namespace gae::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulation {
 public:
  Simulation() = default;
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

  /// Fires the next event; false when the queue is empty.
  bool step();

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);

  /// Runs until no events remain (or max_events fired, as a runaway guard).
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  bool empty() const { return live_.empty(); }

  std::uint64_t events_fired() const { return fired_; }

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

  ManualClock clock_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  /// Ids of the events still pending: scheduled, neither fired nor
  /// cancelled. A queued event whose id is missing here was cancelled and is
  /// skipped when popped.
  std::unordered_set<EventId> live_;
  EventId next_id_ = 1;
  std::uint64_t fired_ = 0;
};

}  // namespace gae::sim
