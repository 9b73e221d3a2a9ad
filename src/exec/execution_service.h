// Condor-like execution service for one grid site, driven by the
// discrete-event simulator.
//
// Models the parts of Condor the paper relies on:
//  - a priority queue of tasks, FIFO within a priority level;
//  - one task per worker node, with input-file staging before compute;
//  - wall-clock (CPU) accounting that excludes queue and staging time and
//    slows under background node load — the "accumulated wall-clock time"
//    fig. 7 uses to measure job progress;
//  - suspend / resume / kill / re-prioritise, checkpointing, flocking;
//  - whole-service failure, which Backup & Recovery (steering) detects.
//
// Progress is integrated analytically between load change-points, so no
// polling events are needed while a task runs at constant effective rate.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "exec/job.h"
#include "sim/engine.h"
#include "sim/grid.h"
#include "sim/network.h"

namespace gae::exec {

/// Tunables for one execution service instance.
struct ExecOptions {
  /// Mean virtual seconds between spontaneous task failures while running
  /// (exponential). 0 disables random failures.
  double mean_time_between_failures = 0.0;
  std::uint64_t failure_seed = 1;
  /// Periodic checkpoint cadence for checkpointable tasks (virtual seconds).
  /// When a node fails, a checkpointable task restarts from its last
  /// periodic checkpoint instead of failing outright. 0 disables.
  double checkpoint_interval_seconds = 0.0;
  /// Condor-style fair share: within the highest waiting priority level,
  /// dispatch the task whose owner has consumed the least CPU here.
  bool fair_share = false;
  /// Priority preemption: a queued task may evict a strictly lower-priority
  /// running task when no node is free. The victim returns to the queue —
  /// keeping its progress if checkpointable, restarting otherwise.
  bool preemptive = false;
};

class ExecutionService {
 public:
  ExecutionService(sim::Simulation& sim, sim::Grid& grid, std::string site_name,
                   ExecOptions options = {});

  /// Routes input staging through a shared network manager, so concurrent
  /// transfers contend for link bandwidth instead of each assuming a free
  /// link. Null (the default) restores the uncontended analytic model.
  void use_network(sim::NetworkManager* network) { network_ = network; }

  const std::string& site() const { return site_; }

  // -- Submission & control ------------------------------------------------

  /// Enqueues a task. `initial_cpu_seconds` carries checkpointed progress
  /// when a task migrates in. ALREADY_EXISTS for duplicate ids,
  /// UNAVAILABLE when the service is down.
  Status submit(const TaskSpec& spec, double initial_cpu_seconds = 0.0);

  /// Terminates a task (any non-terminal state).
  Status kill(const std::string& task_id, const std::string& reason = "killed by user");

  /// Pauses a running/staging/queued task and releases its node.
  Status suspend(const std::string& task_id);

  /// Re-enqueues a suspended task; accumulated CPU time is retained.
  Status resume(const std::string& task_id);

  /// Changes priority; requeues if the task is waiting.
  Status set_priority(const std::string& task_id, int priority);

  /// Snapshot of saved progress (reference-CPU seconds) for a checkpointable
  /// task; FAILED_PRECONDITION when the task is not checkpointable.
  Result<double> checkpoint(const std::string& task_id) const;

  /// Marks one task failed (failure injection for tests/experiments).
  Status inject_task_failure(const std::string& task_id, const std::string& reason);

  // -- Queries -------------------------------------------------------------

  /// Point-in-time task view with up-to-date CPU accounting.
  Result<TaskInfo> query(const std::string& task_id) const;

  /// All tasks ever submitted here (terminal ones included).
  std::vector<TaskInfo> list_tasks() const;

  /// What for_each_task shows of one task: the list_tasks() fields a walk
  /// over every task reads, without copying its TaskInfo.
  struct TaskView {
    const TaskSpec& spec;
    TaskState state;
    int queue_position;       // as in TaskInfo
    double cpu_seconds_used;  // as in TaskInfo, up to date
  };

  /// Calls `fn` for every task list_tasks() would list, in the same order
  /// and with the same values, in place.
  void for_each_task(const std::function<void(const TaskView&)>& fn) const;

  /// Waiting tasks in dispatch order (queue_position filled in).
  std::vector<TaskInfo> queued_tasks() const;

  std::size_t free_nodes() const;

  /// Reference-CPU seconds this owner's tasks have consumed at this site
  /// (drives fair-share dispatch).
  double owner_usage(const std::string& owner) const;

  // -- Service failure (exercised by steering's Backup & Recovery) ---------

  /// Takes the whole service down: running work is lost, queries fail with
  /// UNAVAILABLE until recover_service().
  void fail_service(const std::string& reason = "execution service failure");
  void recover_service();
  bool is_up() const { return up_; }

  /// Output files the failed/completed tasks produced locally (the steering
  /// service retrieves these on job failure, paper §4.2.4).
  std::vector<std::string> local_output_files(const std::string& task_id) const;

  // -- Node maintenance -------------------------------------------------------

  /// Drains a node: its current task finishes, but nothing new is placed on
  /// it until undrain_node(). INVALID_ARGUMENT for out-of-range indexes.
  Status drain_node(std::size_t node_index);
  Status undrain_node(std::size_t node_index);
  bool node_drained(std::size_t node_index) const;

  // -- Events & flocking ---------------------------------------------------

  using EventCallback = std::function<void(const TaskEvent&)>;

  /// Registers a state-change listener; returns a token for unsubscribe.
  /// Lifetime: subscribers (scheduler, monitoring, steering, recorders) must
  /// unsubscribe before this service is destroyed — in practice, construct
  /// the execution services first so they are destroyed last.
  int subscribe(EventCallback cb);
  void unsubscribe(int token);

  /// Enables Condor-style flocking: tasks queued here with no free local
  /// node may start on a free node of `other`. Checkpointable tasks carry
  /// their progress across; others restart from zero there.
  void flock_with(ExecutionService* other);

 private:
  struct TaskRec {
    TaskInfo info;
    std::size_t node_index = SIZE_MAX;   // valid while staging/running
    sim::EventId pending_event = sim::kInvalidEvent;  // staging done / segment end
    sim::EventId failure_event = sim::kInvalidEvent;  // random failure, if armed
    sim::EventId checkpoint_event = sim::kInvalidEvent;  // periodic checkpoint
    double last_checkpoint_cpu = 0.0;                 // progress saved by checkpoints
    std::vector<sim::TransferId> staging_transfers;   // in-flight staged inputs
    std::size_t staging_pending = 0;                  // transfers still running
    SimTime segment_start = kSimTimeNever;            // running segment began
    double segment_rate = 0.0;                        // effective rate this segment
    SimTime failure_at = kSimTimeNever;               // pre-drawn failure instant
    bool flocked_in = false;  // do not flock onwards
  };

  TaskRec* find(const std::string& task_id);
  const TaskRec* find(const std::string& task_id) const;

  /// Queue order: higher priority first, then submit time, then id.
  void enqueue(const std::string& task_id);
  void remove_from_queue(const std::string& task_id);

  /// Assigns queued tasks to free nodes (and flocked pools) until blocked.
  void try_dispatch();

  /// Preemption: evicts the lowest-priority running task if it is strictly
  /// below `priority`. Returns true when a node was freed.
  bool try_preempt_for(int priority);

  /// Index into queue_ of the task to dispatch next (fair share aware).
  std::size_t pick_next_queued() const;

  void start_staging(TaskRec& rec, std::size_t node_index);
  void begin_running(const std::string& task_id);
  void arm_periodic_checkpoint(const std::string& task_id);
  void schedule_segment_end(TaskRec& rec);
  void on_segment_boundary(const std::string& task_id);

  /// Folds the in-flight segment into cpu_seconds_used/progress.
  void accrue(TaskRec& rec);

  /// Releases node, cancels events; does not change state.
  void detach_from_node(TaskRec& rec);

  void transition(TaskRec& rec, TaskState next, const std::string& detail = "");
  void finish(TaskRec& rec, TaskState terminal, const std::string& detail);

  double current_cpu_seconds(const TaskRec& rec) const;
  /// Point-in-time view of `rec` (query() and list_tasks() share it).
  TaskInfo snapshot(const TaskRec& rec, int queue_position) const;
  /// Calls `fn(rec, queue_position)` for every task, in task-id order.
  template <typename Fn>
  void walk_tasks(Fn&& fn) const;

  sim::Simulation& sim_;
  sim::Grid& grid_;
  sim::NetworkManager* network_ = nullptr;
  std::string site_;
  ExecOptions options_;
  Rng failure_rng_;

  std::map<std::string, TaskRec> tasks_;
  std::deque<std::string> queue_;                 // waiting task ids, dispatch order
  std::vector<std::string> node_task_;            // task id per node ("" = free)
  std::vector<bool> node_drained_;                // maintenance mode per node
  std::vector<ExecutionService*> flock_peers_;
  std::map<int, EventCallback> listeners_;
  std::map<std::string, double> owner_usage_;
  int next_listener_ = 1;
  bool up_ = true;
  bool dispatching_ = false;  // re-entrancy guard
};

}  // namespace gae::exec
