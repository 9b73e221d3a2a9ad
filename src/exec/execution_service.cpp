#include "exec/execution_service.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace gae::exec {

namespace {
/// Residual work below this many CPU-seconds counts as done (guards against
/// microsecond rounding creating zero-length segments).
constexpr double kWorkEpsilon = 1e-9;
}  // namespace

ExecutionService::ExecutionService(sim::Simulation& sim, sim::Grid& grid,
                                   std::string site_name, ExecOptions options)
    : sim_(sim),
      grid_(grid),
      site_(std::move(site_name)),
      options_(options),
      failure_rng_(options.failure_seed) {
  node_task_.resize(grid_.site(site_).node_count());
  node_drained_.resize(node_task_.size(), false);
}

// ---------------------------------------------------------------------------
// Submission & control
// ---------------------------------------------------------------------------

Status ExecutionService::submit(const TaskSpec& spec, double initial_cpu_seconds) {
  if (!up_) return unavailable_error("execution service at " + site_ + " is down");
  if (spec.id.empty()) return invalid_argument_error("task id must not be empty");
  if (spec.work_seconds <= 0) return invalid_argument_error("task work_seconds must be > 0");
  if (auto existing = tasks_.find(spec.id); existing != tasks_.end()) {
    if (!is_terminal(existing->second.info.state)) {
      return already_exists_error("task already submitted: " + spec.id);
    }
    tasks_.erase(existing);  // resubmitting a finished task replaces its record
  }

  TaskRec rec;
  rec.info.spec = spec;
  rec.info.state = TaskState::kQueued;
  rec.info.submit_time = sim_.now();
  rec.info.cpu_seconds_used = std::clamp(initial_cpu_seconds, 0.0, spec.work_seconds);
  rec.info.progress = rec.info.cpu_seconds_used / spec.work_seconds;
  auto [it, _] = tasks_.emplace(spec.id, std::move(rec));

  enqueue(spec.id);
  transition(it->second, TaskState::kQueued, "submitted");
  try_dispatch();
  return Status::ok();
}

Status ExecutionService::kill(const std::string& task_id, const std::string& reason) {
  if (!up_) return unavailable_error("execution service at " + site_ + " is down");
  TaskRec* rec = find(task_id);
  if (!rec) return not_found_error("no such task: " + task_id);
  if (is_terminal(rec->info.state)) {
    return failed_precondition_error("task already terminal: " + task_id);
  }
  accrue(*rec);
  remove_from_queue(task_id);
  detach_from_node(*rec);
  finish(*rec, TaskState::kKilled, reason);
  try_dispatch();
  return Status::ok();
}

Status ExecutionService::suspend(const std::string& task_id) {
  if (!up_) return unavailable_error("execution service at " + site_ + " is down");
  TaskRec* rec = find(task_id);
  if (!rec) return not_found_error("no such task: " + task_id);
  switch (rec->info.state) {
    case TaskState::kQueued:
      remove_from_queue(task_id);
      break;
    case TaskState::kStaging:
      // Staging restarts from scratch on resume; nothing was accounted yet.
      detach_from_node(*rec);
      break;
    case TaskState::kRunning:
      accrue(*rec);
      detach_from_node(*rec);
      break;
    default:
      return failed_precondition_error("cannot suspend task in state " +
                                       std::string(task_state_name(rec->info.state)));
  }
  transition(*rec, TaskState::kSuspended);
  try_dispatch();
  return Status::ok();
}

Status ExecutionService::resume(const std::string& task_id) {
  if (!up_) return unavailable_error("execution service at " + site_ + " is down");
  TaskRec* rec = find(task_id);
  if (!rec) return not_found_error("no such task: " + task_id);
  if (rec->info.state != TaskState::kSuspended) {
    return failed_precondition_error("cannot resume task in state " +
                                     std::string(task_state_name(rec->info.state)));
  }
  transition(*rec, TaskState::kQueued, "resumed");
  enqueue(task_id);
  try_dispatch();
  return Status::ok();
}

Status ExecutionService::set_priority(const std::string& task_id, int priority) {
  if (!up_) return unavailable_error("execution service at " + site_ + " is down");
  TaskRec* rec = find(task_id);
  if (!rec) return not_found_error("no such task: " + task_id);
  if (is_terminal(rec->info.state)) {
    return failed_precondition_error("task already terminal: " + task_id);
  }
  rec->info.spec.priority = priority;
  if (rec->info.state == TaskState::kQueued) {
    remove_from_queue(task_id);
    enqueue(task_id);
    try_dispatch();
  }
  return Status::ok();
}

Result<double> ExecutionService::checkpoint(const std::string& task_id) const {
  if (!up_) return unavailable_error("execution service at " + site_ + " is down");
  const TaskRec* rec = find(task_id);
  if (!rec) return not_found_error("no such task: " + task_id);
  if (!rec->info.spec.checkpointable) {
    return failed_precondition_error("task is not checkpointable: " + task_id);
  }
  return current_cpu_seconds(*rec);
}

Status ExecutionService::inject_task_failure(const std::string& task_id,
                                             const std::string& reason) {
  if (!up_) return unavailable_error("execution service at " + site_ + " is down");
  TaskRec* rec = find(task_id);
  if (!rec) return not_found_error("no such task: " + task_id);
  if (is_terminal(rec->info.state)) {
    return failed_precondition_error("task already terminal: " + task_id);
  }
  accrue(*rec);
  remove_from_queue(task_id);
  detach_from_node(*rec);
  finish(*rec, TaskState::kFailed, reason);
  try_dispatch();
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

TaskInfo ExecutionService::snapshot(const TaskRec& rec, int queue_position) const {
  TaskInfo info = rec.info;
  info.cpu_seconds_used = current_cpu_seconds(rec);
  info.progress = std::min(1.0, info.cpu_seconds_used / info.spec.work_seconds);
  info.queue_position = queue_position;
  return info;
}

Result<TaskInfo> ExecutionService::query(const std::string& task_id) const {
  if (!up_) return unavailable_error("execution service at " + site_ + " is down");
  const TaskRec* rec = find(task_id);
  if (!rec) return not_found_error("no such task: " + task_id);
  const auto queued = std::find(queue_.begin(), queue_.end(), task_id);
  return snapshot(*rec, queued == queue_.end() ? -1
                                               : static_cast<int>(queued - queue_.begin()));
}

template <typename Fn>
void ExecutionService::walk_tasks(Fn&& fn) const {
  if (!up_) return;
  // One pass over the queue, sorted by record; a task's first place in it
  // wins, as in query().
  using Place = std::pair<const TaskRec*, int>;
  const auto before = [](const Place& a, const Place& b) {
    return std::less<const TaskRec*>()(a.first, b.first) ||
           (a.first == b.first && a.second < b.second);
  };
  std::vector<Place> position;
  position.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (const TaskRec* rec = find(queue_[i])) position.emplace_back(rec, static_cast<int>(i));
  }
  std::sort(position.begin(), position.end(), before);
  for (const auto& [id, rec] : tasks_) {
    const auto at = std::lower_bound(position.begin(), position.end(), Place{&rec, -1}, before);
    fn(rec, at != position.end() && at->first == &rec ? at->second : -1);
  }
}

std::vector<TaskInfo> ExecutionService::list_tasks() const {
  std::vector<TaskInfo> out;
  out.reserve(tasks_.size());
  walk_tasks([&](const TaskRec& rec, int queue_position) {
    out.push_back(snapshot(rec, queue_position));
  });
  return out;
}

void ExecutionService::for_each_task(const std::function<void(const TaskView&)>& fn) const {
  walk_tasks([&](const TaskRec& rec, int queue_position) {
    fn({rec.info.spec, rec.info.state, queue_position, current_cpu_seconds(rec)});
  });
}

std::vector<TaskInfo> ExecutionService::queued_tasks() const {
  std::vector<TaskInfo> out;
  out.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const TaskRec* rec = find(queue_[i]);
    if (!rec) continue;
    TaskInfo info = rec->info;
    info.queue_position = static_cast<int>(i);
    out.push_back(std::move(info));
  }
  return out;
}

double ExecutionService::owner_usage(const std::string& owner) const {
  auto it = owner_usage_.find(owner);
  return it == owner_usage_.end() ? 0.0 : it->second;
}

std::size_t ExecutionService::free_nodes() const {
  if (!up_) return 0;
  std::size_t free = 0;
  for (std::size_t i = 0; i < node_task_.size(); ++i) {
    if (node_task_[i].empty() && !node_drained_[i]) ++free;
  }
  return free;
}

Status ExecutionService::drain_node(std::size_t node_index) {
  if (node_index >= node_drained_.size()) {
    return invalid_argument_error("no node " + std::to_string(node_index) + " at " + site_);
  }
  node_drained_[node_index] = true;
  return Status::ok();
}

Status ExecutionService::undrain_node(std::size_t node_index) {
  if (node_index >= node_drained_.size()) {
    return invalid_argument_error("no node " + std::to_string(node_index) + " at " + site_);
  }
  node_drained_[node_index] = false;
  try_dispatch();
  return Status::ok();
}

bool ExecutionService::node_drained(std::size_t node_index) const {
  return node_index < node_drained_.size() && node_drained_[node_index];
}

// ---------------------------------------------------------------------------
// Service failure
// ---------------------------------------------------------------------------

void ExecutionService::fail_service(const std::string& reason) {
  if (!up_) return;
  GAE_LOG(Warn) << "execution service at " << site_ << " failing: " << reason;
  queue_.clear();
  for (auto& [id, rec] : tasks_) {
    if (is_terminal(rec.info.state)) continue;
    accrue(rec);
    detach_from_node(rec);
    finish(rec, TaskState::kFailed, reason);
  }
  up_ = false;  // after transitions so listeners can still observe them
}

void ExecutionService::recover_service() {
  if (up_) return;
  up_ = true;
  GAE_LOG(Info) << "execution service at " << site_ << " recovered";
}

std::vector<std::string> ExecutionService::local_output_files(
    const std::string& task_id) const {
  std::vector<std::string> out;
  const std::string name = task_id + ".out";
  if (grid_.site(site_).has_file(name)) out.push_back(name);
  return out;
}

// ---------------------------------------------------------------------------
// Events & flocking
// ---------------------------------------------------------------------------

int ExecutionService::subscribe(EventCallback cb) {
  const int token = next_listener_++;
  listeners_[token] = std::move(cb);
  return token;
}

void ExecutionService::unsubscribe(int token) { listeners_.erase(token); }

void ExecutionService::flock_with(ExecutionService* other) {
  if (other && other != this) flock_peers_.push_back(other);
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

ExecutionService::TaskRec* ExecutionService::find(const std::string& task_id) {
  auto it = tasks_.find(task_id);
  return it == tasks_.end() ? nullptr : &it->second;
}

const ExecutionService::TaskRec* ExecutionService::find(const std::string& task_id) const {
  auto it = tasks_.find(task_id);
  return it == tasks_.end() ? nullptr : &it->second;
}

void ExecutionService::enqueue(const std::string& task_id) {
  const TaskRec* rec = find(task_id);
  // Insert before the first waiting task with strictly lower priority:
  // FIFO within a priority level.
  auto pos = queue_.begin();
  for (; pos != queue_.end(); ++pos) {
    const TaskRec* other = find(*pos);
    if (other && other->info.spec.priority < rec->info.spec.priority) break;
  }
  queue_.insert(pos, task_id);
}

void ExecutionService::remove_from_queue(const std::string& task_id) {
  queue_.erase(std::remove(queue_.begin(), queue_.end(), task_id), queue_.end());
}

std::size_t ExecutionService::pick_next_queued() const {
  if (!options_.fair_share || queue_.size() < 2) return 0;
  // The queue is priority-ordered; fair share only reorders within the
  // highest waiting priority level.
  const TaskRec* head = find(queue_.front());
  if (!head) return 0;
  const int level = head->info.spec.priority;
  std::size_t best = 0;
  double best_usage = owner_usage(head->info.spec.owner);
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const TaskRec* rec = find(queue_[i]);
    if (!rec || rec->info.spec.priority != level) break;
    const double usage = owner_usage(rec->info.spec.owner);
    if (usage < best_usage) {
      best_usage = usage;
      best = i;
    }
  }
  return best;
}

void ExecutionService::try_dispatch() {
  if (dispatching_ || !up_) return;
  dispatching_ = true;
  while (!queue_.empty()) {
    const std::size_t pick = pick_next_queued();
    const std::string task_id = queue_[pick];
    TaskRec* rec = find(task_id);
    if (!rec || rec->info.state != TaskState::kQueued) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));  // stale entry
      continue;
    }

    // Fastest free local node wins.
    std::size_t best = SIZE_MAX;
    double best_speed = -1.0;
    const sim::Site& site = grid_.site(site_);
    for (std::size_t i = 0; i < node_task_.size(); ++i) {
      if (!node_task_[i].empty() || node_drained_[i]) continue;
      const double speed = site.node(i).speed_factor();
      if (speed > best_speed) {
        best_speed = speed;
        best = i;
      }
    }
    if (best != SIZE_MAX) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
      start_staging(*rec, best);
      continue;
    }

    // No free local node: preempt a lower-priority running task if allowed.
    if (options_.preemptive && try_preempt_for(rec->info.spec.priority)) {
      continue;  // a node is free now; re-run the placement loop
    }

    // No free local node: try flocking the head task to a peer pool.
    if (!rec->flocked_in && !flock_peers_.empty()) {
      ExecutionService* target = nullptr;
      for (ExecutionService* peer : flock_peers_) {
        if (peer->is_up() && peer->free_nodes() > 0) {
          target = peer;
          break;
        }
      }
      if (target) {
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
        const double carried =
            rec->info.spec.checkpointable ? rec->info.cpu_seconds_used : 0.0;
        TaskSpec spec = rec->info.spec;
        TaskEvent ev{spec.id,  spec.job_id,        site_,
                     rec->info.state, TaskState::kQueued, sim_.now(),
                     "flocked to " + target->site()};
        tasks_.erase(spec.id);
        for (const auto& [_, cb] : listeners_) cb(ev);
        Status s = target->submit(spec, carried);
        if (s.is_ok()) {
          TaskRec* moved = target->find(spec.id);
          if (moved) moved->flocked_in = true;
        } else {
          GAE_LOG(Warn) << "flocking " << spec.id << " to " << target->site()
                        << " failed: " << s;
        }
        continue;
      }
    }
    break;  // head of queue cannot start anywhere; strict FIFO, no backfill
  }
  dispatching_ = false;
}

bool ExecutionService::try_preempt_for(int priority) {
  // Lowest-priority running victim, evicted only if strictly below the
  // incoming priority (prevents preemption loops between equal priorities).
  TaskRec* victim = nullptr;
  for (auto& [id, rec] : tasks_) {
    if (rec.info.state != TaskState::kRunning && rec.info.state != TaskState::kStaging) {
      continue;
    }
    if (!victim || rec.info.spec.priority < victim->info.spec.priority) victim = &rec;
  }
  if (!victim || victim->info.spec.priority >= priority) return false;

  accrue(*victim);
  if (!victim->info.spec.checkpointable) {
    // Vanilla-universe preemption loses the work done so far.
    victim->info.cpu_seconds_used = 0.0;
    victim->info.progress = 0.0;
  }
  detach_from_node(*victim);
  transition(*victim, TaskState::kQueued, "preempted by higher priority task");
  enqueue(victim->info.spec.id);
  return true;
}

void ExecutionService::start_staging(TaskRec& rec, std::size_t node_index) {
  rec.node_index = node_index;
  node_task_[node_index] = rec.info.spec.id;
  rec.info.node = grid_.site(site_).node(node_index).name();
  if (rec.info.start_time == kSimTimeNever) rec.info.start_time = sim_.now();

  // Resolve sources for inputs not already at this site.
  struct Pull {
    std::string src;
    std::uint64_t bytes;
  };
  std::vector<Pull> pulls;
  SimDuration analytic_staging = 0;
  const sim::Site& here = grid_.site(site_);
  for (const auto& file : rec.info.spec.input_files) {
    if (here.has_file(file)) continue;
    auto src = grid_.closest_replica(file, site_, site_);
    if (!src.is_ok()) {
      detach_from_node(rec);
      finish(rec, TaskState::kFailed, "missing input file: " + file);
      return;
    }
    const std::uint64_t bytes = grid_.site(src.value()).file_size(file).value();
    pulls.push_back({src.value(), bytes});
    analytic_staging += grid_.transfer_time(src.value(), site_, bytes);
  }
  std::uint64_t staged_bytes = 0;
  for (const auto& pull : pulls) staged_bytes += pull.bytes;

  transition(rec, TaskState::kStaging);
  const std::string task_id = rec.info.spec.id;
  const std::uint64_t bytes = staged_bytes;

  if (network_ && !pulls.empty()) {
    // Contended staging: one transfer per input, compute when all land.
    rec.staging_pending = pulls.size();
    rec.staging_transfers.clear();
    for (const auto& pull : pulls) {
      auto transfer = network_->start_transfer(
          pull.src, site_, pull.bytes,
          [this, task_id] {
            TaskRec* r = find(task_id);
            if (!r || r->info.state != TaskState::kStaging) return;
            if (--r->staging_pending > 0) return;
            r->staging_transfers.clear();
            begin_running(task_id);
          },
          [this, task_id](const Status& cause) {
            // Link failure mid-staging: the task fails here and steering's
            // Backup & Recovery decides where it goes next.
            TaskRec* r = find(task_id);
            if (!r || r->info.state != TaskState::kStaging) return;
            detach_from_node(*r);
            finish(*r, TaskState::kFailed, "staging aborted: " + cause.message());
          });
      if (!transfer.is_ok()) {
        detach_from_node(rec);
        finish(rec, TaskState::kFailed, "staging failed: " + transfer.status().message());
        return;
      }
      rec.staging_transfers.push_back(transfer.value());
    }
    rec.info.input_bytes_transferred += bytes;
    return;
  }

  // Uncontended analytic model: one event after the summed transfer times.
  rec.pending_event = sim_.schedule_after(analytic_staging, [this, task_id, bytes] {
    TaskRec* r = find(task_id);
    if (!r || r->info.state != TaskState::kStaging) return;
    r->pending_event = sim::kInvalidEvent;
    r->info.input_bytes_transferred += bytes;
    begin_running(task_id);
  });
}

void ExecutionService::begin_running(const std::string& task_id) {
  TaskRec* rec = find(task_id);
  if (!rec) return;
  transition(*rec, TaskState::kRunning);
  rec->segment_start = sim_.now();

  if (options_.mean_time_between_failures > 0) {
    const double dt = failure_rng_.exponential(options_.mean_time_between_failures);
    rec->failure_at = sim_.now() + from_seconds(dt);
    rec->failure_event = sim_.schedule_at(rec->failure_at, [this, task_id] {
      TaskRec* r = find(task_id);
      if (!r || r->info.state != TaskState::kRunning) return;
      r->failure_event = sim::kInvalidEvent;
      accrue(*r);
      detach_from_node(*r);
      if (r->info.spec.checkpointable && options_.checkpoint_interval_seconds > 0) {
        // Condor standard-universe behaviour: resume from the last periodic
        // checkpoint rather than losing the job.
        r->info.cpu_seconds_used = r->last_checkpoint_cpu;
        r->info.progress = r->last_checkpoint_cpu / r->info.spec.work_seconds;
        transition(*r, TaskState::kQueued, "node failure: restarted from checkpoint");
        enqueue(task_id);
      } else {
        finish(*r, TaskState::kFailed, "node failure");
      }
      try_dispatch();
    });
  }

  if (rec->info.spec.checkpointable && options_.checkpoint_interval_seconds > 0) {
    arm_periodic_checkpoint(task_id);
  }

  schedule_segment_end(*rec);
}

void ExecutionService::arm_periodic_checkpoint(const std::string& task_id) {
  TaskRec* rec = find(task_id);
  if (!rec || rec->info.state != TaskState::kRunning) return;
  rec->checkpoint_event = sim_.schedule_after(
      from_seconds(options_.checkpoint_interval_seconds), [this, task_id] {
        TaskRec* r = find(task_id);
        if (!r || r->info.state != TaskState::kRunning) return;
        r->checkpoint_event = sim::kInvalidEvent;
        accrue(*r);
        r->last_checkpoint_cpu = r->info.cpu_seconds_used;
        arm_periodic_checkpoint(task_id);
      });
}

void ExecutionService::schedule_segment_end(TaskRec& rec) {
  const sim::Node& node = grid_.site(site_).node(rec.node_index);
  const SimTime now = sim_.now();
  rec.segment_start = now;
  rec.segment_rate = node.effective_rate(now);

  const double remaining = rec.info.spec.work_seconds - rec.info.cpu_seconds_used;
  SimTime completion = kSimTimeNever;
  if (rec.segment_rate > 0 && remaining > 0) {
    const double wall_seconds = remaining / rec.segment_rate;
    completion = now + static_cast<SimDuration>(std::ceil(wall_seconds * 1e6));
  }
  const SimTime load_change = node.next_load_change(now);

  SimTime boundary = kSimTimeNever;
  if (completion != kSimTimeNever) boundary = completion;
  if (load_change != kSimTimeNever && (boundary == kSimTimeNever || load_change < boundary)) {
    boundary = load_change;
  }
  if (boundary == kSimTimeNever) return;  // starved with constant load: waits forever

  const std::string task_id = rec.info.spec.id;
  rec.pending_event =
      sim_.schedule_at(boundary, [this, task_id] { on_segment_boundary(task_id); });
}

void ExecutionService::on_segment_boundary(const std::string& task_id) {
  TaskRec* rec = find(task_id);
  if (!rec || rec->info.state != TaskState::kRunning) return;
  rec->pending_event = sim::kInvalidEvent;
  accrue(*rec);
  const double remaining = rec->info.spec.work_seconds - rec->info.cpu_seconds_used;
  if (remaining <= kWorkEpsilon) {
    rec->info.cpu_seconds_used = rec->info.spec.work_seconds;
    rec->info.progress = 1.0;
    detach_from_node(*rec);
    if (rec->info.spec.output_bytes > 0) {
      grid_.site(site_).store_file(rec->info.spec.id + ".out", rec->info.spec.output_bytes);
      rec->info.output_bytes_written = rec->info.spec.output_bytes;
    }
    finish(*rec, TaskState::kCompleted, "");
    try_dispatch();
    return;
  }
  schedule_segment_end(*rec);
}

void ExecutionService::accrue(TaskRec& rec) {
  if (rec.info.state != TaskState::kRunning || rec.segment_start == kSimTimeNever) return;
  const SimTime now = sim_.now();
  const double dt = to_seconds(now - rec.segment_start);
  const double before = rec.info.cpu_seconds_used;
  rec.info.cpu_seconds_used = std::min(rec.info.spec.work_seconds,
                                       rec.info.cpu_seconds_used + dt * rec.segment_rate);
  rec.info.progress = rec.info.cpu_seconds_used / rec.info.spec.work_seconds;
  rec.segment_start = now;
  owner_usage_[rec.info.spec.owner] += rec.info.cpu_seconds_used - before;
}

void ExecutionService::detach_from_node(TaskRec& rec) {
  if (rec.pending_event != sim::kInvalidEvent) {
    sim_.cancel(rec.pending_event);
    rec.pending_event = sim::kInvalidEvent;
  }
  if (rec.failure_event != sim::kInvalidEvent) {
    sim_.cancel(rec.failure_event);
    rec.failure_event = sim::kInvalidEvent;
  }
  if (rec.checkpoint_event != sim::kInvalidEvent) {
    sim_.cancel(rec.checkpoint_event);
    rec.checkpoint_event = sim::kInvalidEvent;
  }
  if (network_) {
    for (const auto transfer : rec.staging_transfers) network_->cancel(transfer);
  }
  rec.staging_transfers.clear();
  rec.staging_pending = 0;
  if (rec.node_index != SIZE_MAX) {
    node_task_[rec.node_index].clear();
    rec.node_index = SIZE_MAX;
  }
  rec.segment_start = kSimTimeNever;
  rec.segment_rate = 0.0;
}

void ExecutionService::transition(TaskRec& rec, TaskState next, const std::string& detail) {
  const TaskState old = rec.info.state;
  rec.info.state = next;
  TaskEvent ev{rec.info.spec.id, rec.info.spec.job_id, site_, old, next, sim_.now(), detail};
  for (const auto& [_, cb] : listeners_) cb(ev);
}

void ExecutionService::finish(TaskRec& rec, TaskState terminal, const std::string& detail) {
  rec.info.completion_time = sim_.now();
  rec.info.detail = detail;
  // A failed task leaves whatever partial output it wrote on local storage
  // (the steering service retrieves these files, paper §4.2.4).
  if (terminal == TaskState::kFailed && rec.info.spec.output_bytes > 0 &&
      rec.info.progress > 0) {
    const auto partial = static_cast<std::uint64_t>(
        static_cast<double>(rec.info.spec.output_bytes) * rec.info.progress);
    if (partial > 0) {
      grid_.site(site_).store_file(rec.info.spec.id + ".out", partial);
      rec.info.output_bytes_written = partial;
    }
  }
  transition(rec, terminal, detail);
}

double ExecutionService::current_cpu_seconds(const TaskRec& rec) const {
  if (rec.info.state != TaskState::kRunning || rec.segment_start == kSimTimeNever) {
    return rec.info.cpu_seconds_used;
  }
  const double dt = to_seconds(sim_.now() - rec.segment_start);
  return std::min(rec.info.spec.work_seconds,
                  rec.info.cpu_seconds_used + dt * rec.segment_rate);
}

}  // namespace gae::exec
