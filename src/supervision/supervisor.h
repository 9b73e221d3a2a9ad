// Ensemble supervisor: owns restart recipes for the services of a GAE
// deployment and turns failure-detector death verdicts into supervised
// restarts with capped exponential backoff (reusing common::RetryPolicy for
// the schedule). A restart recipe is expected to rebuild the service,
// replay its durable state (common::Wal recover, steering journal), and
// re-register it with a fresh lease — after which the failure detector sees
// heartbeats again and the registry routes traffic back.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "common/clock.h"
#include "common/retry.h"
#include "common/status.h"
#include "monalisa/repository.h"
#include "supervision/failure_detector.h"
#include "telemetry/metrics.h"

namespace gae::supervision {

struct SupervisorOptions {
  /// Backoff schedule between restart attempts; max_attempts caps how often
  /// one death is retried before the supervisor gives up on the service.
  RetryPolicy restart_backoff{/*max_attempts=*/5, /*initial_backoff_ms=*/1000,
                              /*backoff_multiplier=*/2.0, /*max_backoff_ms=*/60'000,
                              /*jitter_fraction=*/0.0, /*jitter_seed=*/1};
  /// Crash-loop breaker: once a service has burned this many restart
  /// attempts inside crash_loop_window, the recipe is parked (quarantined)
  /// instead of retried — a recipe that keeps "succeeding" into a service
  /// that dies again is burning the ensemble, and flapping forever hides
  /// the fault from operators. A quarantined recipe ignores further death
  /// verdicts until release() is called explicitly. 0 disables the breaker.
  int crash_loop_restarts = 0;
  SimDuration crash_loop_window = from_seconds(60);
};

/// One service under supervision. `restart` does the whole resurrection:
/// rebuild, recover durable state, re-register with a fresh lease.
struct SupervisedService {
  std::string name;
  std::function<Status()> restart;
};

/// Counts into supervision.{deaths,restart_attempts,restarts_succeeded,
/// restarts_failed,gave_up,quarantined} and supervision.<service>.quarantined
/// in `metrics`, or in a registry of its own when that is null.
class Supervisor {
 public:
  explicit Supervisor(const Clock& clock, SupervisorOptions options = {},
                      monalisa::Repository* monitoring = nullptr,
                      telemetry::MetricsRegistry* metrics = nullptr);

  /// Registers a restart recipe (replacing any previous one for the name).
  void manage(SupervisedService service);

  /// Wires `detector` verdicts into this supervisor: dead services get a
  /// restart scheduled, and a successful restart re-arms their watch.
  void attach(FailureDetector& detector);

  /// Schedules a restart for `name` (idempotent while one is pending).
  void on_service_dead(const std::string& name);

  /// Executes every pending restart whose backoff has elapsed. Returns the
  /// number of successful restarts this tick. Call from a periodic event
  /// (simulation) or a timer thread (live).
  std::size_t tick();

  /// True while `name` has a restart pending (scheduled but not yet done).
  bool restart_pending(const std::string& name) const {
    return pending_.count(name) != 0;
  }

  /// True while the crash-loop breaker has `name` parked: death verdicts
  /// are ignored and no restarts run until release().
  bool quarantined(const std::string& name) const {
    return quarantined_.count(name) != 0;
  }

  /// Operator action: un-parks a quarantined recipe and clears its
  /// crash-loop history so the next death verdict schedules a restart
  /// again. NOT_FOUND if `name` is not quarantined.
  Status release(const std::string& name);

 private:
  struct Pending {
    int attempt = 1;       // next restart attempt number (1-based)
    SimTime next_at = 0;   // earliest instant the attempt may run
  };

  void publish_event(const std::string& service, const std::string& what);

  const Clock& clock_;
  SupervisorOptions options_;
  monalisa::Repository* monitoring_;
  telemetry::RegistryRef metrics_;
  telemetry::Counter& deaths_;
  telemetry::Counter& restart_attempts_;
  telemetry::Counter& restarts_succeeded_;
  telemetry::Counter& restarts_failed_;
  telemetry::Counter& gave_up_;
  telemetry::Counter& quarantined_count_;
  FailureDetector* detector_ = nullptr;
  std::map<std::string, SupervisedService> services_;
  std::map<std::string, Pending> pending_;
  /// Restart-attempt instants per service, pruned to crash_loop_window.
  std::map<std::string, std::deque<SimTime>> attempt_history_;
  std::set<std::string> quarantined_;
};

}  // namespace gae::supervision
