// Steering Service (paper §4, fig. 2).
//
// Components map one-to-one onto the paper's design:
//  - Subscriber: receives concrete job plans from the scheduler and starts
//    watching the tasks and the execution services they use.
//  - Command Processor: client- and optimizer-initiated job control (kill,
//    pause, resume, change priority, move to another site). Job redirection
//    goes through the scheduler (Sphinx).
//  - Optimizer: periodically compares each running task's observed progress
//    rate against expectation; on slow execution it consults the estimators
//    (fast mode) or the Quota/Accounting service (cheap mode) and redirects
//    the task to the "best site".
//  - Backup & Recovery: polls the execution services; when one fails, it
//    asks Sphinx to allocate a new site and resubmits the affected tasks.
//    Completion/failure notifications and output-file retrieval also live
//    here.
//  - Session Manager: makes sure only authorized users steer jobs.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "clarens/auth.h"
#include "exec/execution_service.h"
#include "jobmon/service.h"
#include "monalisa/repository.h"
#include "quota/quota_service.h"
#include "sim/engine.h"
#include "sphinx/scheduler.h"
#include "steering/journal.h"

namespace gae::steering {

struct SteeringOptions {
  /// Optimizer: enable automatic steering (users can always steer manually).
  bool auto_steer = true;
  /// Optimizer poll cadence (virtual seconds).
  double optimizer_interval_seconds = 15.0;
  /// Observe a task at least this long before judging it slow.
  double min_observation_seconds = 30.0;
  /// A running task is "slow" when its progress rate (reference-CPU seconds
  /// per wall second) falls below this threshold (a free node achieves ~1.0).
  double slow_rate_threshold = 0.5;
  /// Only move when the predicted saving exceeds this many seconds.
  double min_benefit_seconds = 30.0;
  /// Fig. 7's "testing purposes" mode: leave the original instance running
  /// at the old site after a move.
  bool keep_original_on_move = false;
  /// "fast" minimises expected completion time; "cheap" picks the cheapest
  /// site from the Quota & Accounting service.
  std::string optimize_for = "fast";
  /// Backup & Recovery poll cadence (virtual seconds).
  double recovery_interval_seconds = 30.0;
  /// Maximum automatic moves per task (stops ping-ponging).
  int max_moves_per_task = 3;
  /// Backup & Recovery may resubmit a task that failed while its execution
  /// service stayed up (e.g. staging aborted by a link failure) this many
  /// times before giving up. 0 keeps the historical behaviour: task-level
  /// failures are terminal and wait for a manual restart().
  int max_auto_resubmits = 0;
};

/// Client-visible notification (the paper's steering service "provides
/// constant feedback of the submitted jobs to the users").
struct Notification {
  SimTime time = 0;
  std::string kind;  // "completed" | "failed" | "moved" | "service_failure" | "recovered"
  std::string job_id;
  std::string task_id;
  std::string detail;
  std::vector<std::string> output_files;  // populated for completed/failed
};

struct SteeringStats {
  std::size_t auto_moves = 0;
  std::size_t manual_moves = 0;
  std::size_t recoveries = 0;  // service-failure resubmissions via Sphinx
  std::size_t resubmits = 0;   // task-level failure resubmissions (link chaos)
  std::size_t completions = 0;
  std::size_t failures = 0;
  std::size_t journal_appends = 0;
  std::size_t journal_replayed = 0;  // records folded by restore_from_journal
  std::size_t journal_adopted = 0;   // watches re-adopted after a restart
};

class SteeringService {
 public:
  struct Deps {
    sim::Simulation* sim = nullptr;
    sphinx::SphinxScheduler* scheduler = nullptr;
    jobmon::JobMonitoringService* jobmon = nullptr;
    std::map<std::string, exec::ExecutionService*> services;
    quota::QuotaAccountingService* quota = nullptr;  // optional; "cheap" mode
    clarens::AuthService* auth = nullptr;            // optional; session manager
    WalJournalSink* journal = nullptr;               // optional; Backup & Recovery
    monalisa::Repository* monitoring = nullptr;      // optional; counter export
  };

  SteeringService(Deps deps, SteeringOptions options = {});
  ~SteeringService();

  SteeringService(const SteeringService&) = delete;
  SteeringService& operator=(const SteeringService&) = delete;

  // -- Subscriber ------------------------------------------------------------

  /// Called automatically for plans published by the scheduler; can also be
  /// invoked directly when plans arrive out of band.
  void watch_plan(const sphinx::JobDescription& job, const sphinx::ConcreteJobPlan& plan);

  std::size_t watched_tasks() const { return watches_.size(); }

  // -- Command Processor (session-checked job control) -----------------------

  Status kill(const std::string& token, const std::string& task_id);
  Status pause(const std::string& token, const std::string& task_id);
  Status resume(const std::string& token, const std::string& task_id);
  Status change_priority(const std::string& token, const std::string& task_id,
                         int priority);

  /// Moves a task. Empty `to_site` lets the Optimizer pick the best site.
  Result<sphinx::SitePlacement> move(const std::string& token, const std::string& task_id,
                                     const std::string& to_site = "");

  /// Resubmits a failed (or killed) task through the scheduler — the
  /// "restart processing steps that may have failed" capability of §2.
  Result<sphinx::SitePlacement> restart(const std::string& token,
                                        const std::string& task_id);

  /// Monitoring passthrough with session check (clients read progress here).
  Result<jobmon::JobMonitorReport> job_info(const std::string& token,
                                            const std::string& task_id) const;

  /// "Grid weather for my job": the scheduler's ranked site estimates for a
  /// watched task, so advanced users can decide where to move it manually.
  Result<std::vector<sphinx::SiteScore>> advise(const std::string& token,
                                                const std::string& task_id) const;

  // -- Notifications -----------------------------------------------------------

  using NotificationCallback = std::function<void(const Notification&)>;
  int subscribe(NotificationCallback cb);
  void unsubscribe(int token);
  const std::vector<Notification>& notification_log() const { return log_; }

  /// Notifications after index `after` (0-based position in the log), at
  /// most `max` — lets polling clients tail the feed incrementally.
  std::vector<Notification> notifications_since(std::size_t after,
                                                std::size_t max = 100) const;

  const SteeringStats& stats() const { return stats_; }

  // -- Backup & Recovery journal ---------------------------------------------

  /// Rebuilds watch state from a recovery journal (the fold of all records):
  /// non-terminal tasks are re-adopted and the periodic passes re-armed, so a
  /// restarted steering service picks up where the crashed one stopped.
  /// Already-watched tasks are left alone — replay is idempotent.
  Status restore_from_journal(const std::vector<JournalRecord>& records);

  /// Convenience: parse raw journal lines, then restore.
  Status restore_from_journal(const std::vector<std::string>& lines);

  /// Runs one optimizer pass immediately (tests and manual tools).
  void optimizer_tick();
  /// Runs one Backup & Recovery pass immediately.
  void recovery_tick();

  /// Re-resolves the monitoring dependency after a supervised jobmon
  /// restart (the old instance is gone; the supervisor hands over the
  /// recovered one, the way a re-discovery through the registry would).
  void rebind_jobmon(jobmon::JobMonitoringService* jm) { deps_.jobmon = jm; }

 private:
  struct Watch {
    std::string job_id;
    std::string owner;
    exec::TaskSpec spec;
    double last_cpu_seconds = 0.0;
    SimTime last_checked = kSimTimeNever;
    SimTime first_running_seen = kSimTimeNever;
    int moves = 0;
    int resubmits = 0;    // automatic task-level resubmissions so far
    bool done = false;    // terminal and reported; no further steering
    bool failed = false;  // awaiting Backup & Recovery's verdict
  };

  /// Session Manager: resolves the token and checks job ownership.
  Status authorize(const std::string& token, const std::string& owner) const;

  /// The move machinery shared by manual and automatic paths.
  Result<sphinx::SitePlacement> do_move(Watch& watch, const std::string& task_id,
                                        const std::string& to_site, bool automatic);

  /// Picks a target site per optimize_for; "" when nothing qualifies.
  std::string pick_target_site(const Watch& watch, const std::string& current_site,
                               double remaining_at_current_seconds) const;

  void on_task_event(const std::string& site, const exec::TaskEvent& ev);
  void notify(Notification n);

  /// Appends one record to the recovery journal (no-op without a sink).
  void journal_append(JournalRecord rec);
  /// Pushes the current counters into the MonALISA repository (no-op without
  /// one) so operators see steering health next to site load.
  void publish_stats();

  /// True while any watched task still needs attention. The periodic
  /// optimizer/recovery events only stay armed while this holds, so a
  /// simulation with no outstanding work drains its event queue (sim.run()
  /// terminates once the watched jobs finish).
  bool has_active_watches() const;
  void arm_optimizer();
  void arm_recovery();

  Deps deps_;
  SteeringOptions options_;
  std::map<std::string, Watch> watches_;  // task_id -> watch state
  std::map<std::string, bool> service_was_up_;
  std::vector<std::pair<exec::ExecutionService*, int>> exec_subscriptions_;
  int plan_subscription_ = 0;
  sim::EventId optimizer_event_ = sim::kInvalidEvent;
  sim::EventId recovery_event_ = sim::kInvalidEvent;
  bool stopped_ = false;

  std::map<int, NotificationCallback> subscribers_;
  int next_token_ = 1;
  std::vector<Notification> log_;
  SteeringStats stats_;
};

}  // namespace gae::steering
