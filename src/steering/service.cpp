#include "steering/service.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"

namespace gae::steering {

namespace {

std::string format_double(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += ',';
    out += p;
  }
  return out;
}

std::vector<std::string> split_commas(const std::string& in) {
  std::vector<std::string> out;
  std::string current;
  for (char c : in) {
    if (c == ',') {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

}  // namespace

SteeringService::SteeringService(Deps deps, SteeringOptions options)
    : deps_(std::move(deps)), options_(std::move(options)) {
  // Subscriber: concrete job plans flow in from the scheduler (§4.2.1).
  if (deps_.scheduler) {
    plan_subscription_ = deps_.scheduler->subscribe_plans(
        [this](const sphinx::JobDescription& job, const sphinx::ConcreteJobPlan& plan) {
          watch_plan(job, plan);
        });
  }
  for (auto& [site, service] : deps_.services) {
    service_was_up_[site] = service->is_up();
    const int token = service->subscribe(
        [this, site = site](const exec::TaskEvent& ev) { on_task_event(site, ev); });
    exec_subscriptions_.emplace_back(service, token);
  }
  if (deps_.sim) {
    if (options_.auto_steer) arm_optimizer();
    arm_recovery();
  }
}

SteeringService::~SteeringService() {
  stopped_ = true;
  if (deps_.sim) {
    if (optimizer_event_ != sim::kInvalidEvent) deps_.sim->cancel(optimizer_event_);
    if (recovery_event_ != sim::kInvalidEvent) deps_.sim->cancel(recovery_event_);
  }
  for (auto& [service, token] : exec_subscriptions_) service->unsubscribe(token);
  if (deps_.scheduler && plan_subscription_ != 0) {
    deps_.scheduler->unsubscribe_plans(plan_subscription_);
  }
}

// ---------------------------------------------------------------------------
// Subscriber
// ---------------------------------------------------------------------------

void SteeringService::watch_plan(const sphinx::JobDescription& job,
                                 const sphinx::ConcreteJobPlan& plan) {
  std::map<std::string, std::string> placed_at;
  for (const auto& p : plan.placements) placed_at[p.task_id] = p.site;

  for (const auto& dag_task : job.tasks) {
    Watch watch;
    watch.job_id = plan.job_id;
    watch.owner = job.owner.empty() ? dag_task.spec.owner : job.owner;
    watch.spec = dag_task.spec;
    watch.spec.job_id = plan.job_id;

    JournalRecord rec;
    rec.kind = "watch";
    rec.fields["task"] = dag_task.spec.id;
    rec.fields["job"] = plan.job_id;
    rec.fields["owner"] = watch.owner;
    rec.fields["site"] = placed_at.count(dag_task.spec.id)
                             ? placed_at[dag_task.spec.id]
                             : std::string();
    rec.fields["executable"] = dag_task.spec.executable;
    rec.fields["work"] = format_double(dag_task.spec.work_seconds);
    rec.fields["priority"] = std::to_string(dag_task.spec.priority);
    rec.fields["checkpointable"] = dag_task.spec.checkpointable ? "1" : "0";
    rec.fields["output_bytes"] = std::to_string(dag_task.spec.output_bytes);
    if (!dag_task.spec.input_files.empty()) {
      rec.fields["inputs"] = join(dag_task.spec.input_files);
    }
    for (const auto& [key, value] : dag_task.spec.attributes) {
      rec.fields["attr." + key] = value;
    }
    journal_append(std::move(rec));

    watches_[dag_task.spec.id] = std::move(watch);
  }
  GAE_LOG(Debug) << "steering now watching job " << plan.job_id << " ("
                 << job.tasks.size() << " tasks)";
  // (Re)arm the periodic passes now that there is work to watch.
  if (optimizer_event_ == sim::kInvalidEvent) arm_optimizer();
  if (recovery_event_ == sim::kInvalidEvent) arm_recovery();
}

// ---------------------------------------------------------------------------
// Session Manager
// ---------------------------------------------------------------------------

Status SteeringService::authorize(const std::string& token,
                                  const std::string& owner) const {
  if (!deps_.auth) return Status::ok();  // trusted in-process deployment
  auto user = deps_.auth->authenticate(token);
  if (!user.is_ok()) return user.status();
  if (user.value() != owner && user.value() != "admin") {
    return permission_denied_error("user " + user.value() + " may not steer jobs of " +
                                   owner);
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Command Processor
// ---------------------------------------------------------------------------

namespace {
/// Looks up the execution service currently hosting a task.
template <typename Map>
Result<typename Map::mapped_type> service_for(
    const Map& services, const sphinx::SphinxScheduler* scheduler,
    const std::string& task_id) {
  if (!scheduler) return gae::failed_precondition_error("no scheduler configured");
  auto site = scheduler->task_site(task_id);
  if (!site.is_ok()) return site.status();
  auto it = services.find(site.value());
  if (it == services.end()) {
    return gae::not_found_error("no execution service for site " + site.value());
  }
  return it->second;
}
}  // namespace

Status SteeringService::kill(const std::string& token, const std::string& task_id) {
  auto watch = watches_.find(task_id);
  if (watch == watches_.end()) return not_found_error("task not steered: " + task_id);
  const Status auth = authorize(token, watch->second.owner);
  if (!auth.is_ok()) return auth;
  auto service = service_for(deps_.services, deps_.scheduler, task_id);
  if (!service.is_ok()) return service.status();
  const Status s = service.value()->kill(task_id, "killed via steering service");
  if (s.is_ok()) {
    watch->second.done = true;
    JournalRecord rec;
    rec.kind = "done";
    rec.fields["task"] = task_id;
    rec.fields["outcome"] = "killed";
    journal_append(std::move(rec));
  }
  return s;
}

Status SteeringService::pause(const std::string& token, const std::string& task_id) {
  auto watch = watches_.find(task_id);
  if (watch == watches_.end()) return not_found_error("task not steered: " + task_id);
  const Status auth = authorize(token, watch->second.owner);
  if (!auth.is_ok()) return auth;
  auto service = service_for(deps_.services, deps_.scheduler, task_id);
  if (!service.is_ok()) return service.status();
  return service.value()->suspend(task_id);
}

Status SteeringService::resume(const std::string& token, const std::string& task_id) {
  auto watch = watches_.find(task_id);
  if (watch == watches_.end()) return not_found_error("task not steered: " + task_id);
  const Status auth = authorize(token, watch->second.owner);
  if (!auth.is_ok()) return auth;
  auto service = service_for(deps_.services, deps_.scheduler, task_id);
  if (!service.is_ok()) return service.status();
  return service.value()->resume(task_id);
}

Status SteeringService::change_priority(const std::string& token,
                                        const std::string& task_id, int priority) {
  auto watch = watches_.find(task_id);
  if (watch == watches_.end()) return not_found_error("task not steered: " + task_id);
  const Status auth = authorize(token, watch->second.owner);
  if (!auth.is_ok()) return auth;
  auto service = service_for(deps_.services, deps_.scheduler, task_id);
  if (!service.is_ok()) return service.status();
  return service.value()->set_priority(task_id, priority);
}

Result<sphinx::SitePlacement> SteeringService::move(const std::string& token,
                                                    const std::string& task_id,
                                                    const std::string& to_site) {
  auto watch = watches_.find(task_id);
  if (watch == watches_.end()) return not_found_error("task not steered: " + task_id);
  const Status auth = authorize(token, watch->second.owner);
  if (!auth.is_ok()) return auth;
  return do_move(watch->second, task_id, to_site, /*automatic=*/false);
}

Result<sphinx::SitePlacement> SteeringService::restart(const std::string& token,
                                                       const std::string& task_id) {
  auto watch = watches_.find(task_id);
  if (watch == watches_.end()) return not_found_error("task not steered: " + task_id);
  const Status auth = authorize(token, watch->second.owner);
  if (!auth.is_ok()) return auth;
  if (!deps_.scheduler) return failed_precondition_error("no scheduler configured");

  // Only terminal tasks can be restarted; check the last known state.
  if (deps_.jobmon) {
    auto report = deps_.jobmon->info(task_id);
    if (report.is_ok() && !exec::is_terminal(report.value().info.state)) {
      return failed_precondition_error("task is still active: " + task_id);
    }
  }
  Watch& w = watch->second;
  const double carried = w.spec.checkpointable ? w.last_cpu_seconds : 0.0;
  auto placement = deps_.scheduler->reallocate(task_id, {}, carried);
  if (!placement.is_ok()) return placement;
  w.done = false;
  w.failed = false;
  w.first_running_seen = kSimTimeNever;
  w.last_checked = kSimTimeNever;
  w.last_cpu_seconds = carried;
  // Re-arm the periodic passes: the watch is active again.
  if (optimizer_event_ == sim::kInvalidEvent) arm_optimizer();
  if (recovery_event_ == sim::kInvalidEvent) arm_recovery();

  JournalRecord rec;
  rec.kind = "restart";
  rec.fields["task"] = task_id;
  rec.fields["site"] = placement.value().site;
  rec.fields["carried"] = format_double(carried);
  journal_append(std::move(rec));

  Notification n;
  n.time = deps_.sim ? deps_.sim->now() : 0;
  n.kind = "restarted";
  n.job_id = w.job_id;
  n.task_id = task_id;
  n.detail = "resubmitted to " + placement.value().site;
  notify(std::move(n));
  return placement;
}

Result<jobmon::JobMonitorReport> SteeringService::job_info(
    const std::string& token, const std::string& task_id) const {
  auto watch = watches_.find(task_id);
  if (watch == watches_.end()) return not_found_error("task not steered: " + task_id);
  const Status auth = authorize(token, watch->second.owner);
  if (!auth.is_ok()) return auth;
  if (!deps_.jobmon) return failed_precondition_error("no job monitoring service");
  return deps_.jobmon->info(task_id);
}

Result<std::vector<sphinx::SiteScore>> SteeringService::advise(
    const std::string& token, const std::string& task_id) const {
  auto watch = watches_.find(task_id);
  if (watch == watches_.end()) return not_found_error("task not steered: " + task_id);
  const Status auth = authorize(token, watch->second.owner);
  if (!auth.is_ok()) return auth;
  if (!deps_.scheduler) return failed_precondition_error("no scheduler configured");
  return deps_.scheduler->rank_sites(watch->second.spec);
}

// ---------------------------------------------------------------------------
// Move machinery
// ---------------------------------------------------------------------------

Result<sphinx::SitePlacement> SteeringService::do_move(Watch& watch,
                                                       const std::string& task_id,
                                                       const std::string& to_site,
                                                       bool automatic) {
  if (!deps_.scheduler) return failed_precondition_error("no scheduler configured");
  auto current = deps_.scheduler->task_site(task_id);
  if (!current.is_ok()) return current.status();
  if (to_site == current.value()) {
    return invalid_argument_error("task already at site " + to_site);
  }

  // Carry checkpointed progress when possible.
  double carried = 0.0;
  auto svc_it = deps_.services.find(current.value());
  exec::ExecutionService* origin =
      svc_it == deps_.services.end() ? nullptr : svc_it->second;
  if (watch.spec.checkpointable) {
    if (origin && origin->is_up()) {
      carried = origin->checkpoint(task_id).value_or(0.0);
    } else {
      carried = watch.last_cpu_seconds;  // last progress known to monitoring
    }
  }

  // Stop the original unless running it out is wanted (fig. 7 testing mode).
  if (!options_.keep_original_on_move && origin && origin->is_up()) {
    origin->kill(task_id, "moved to another site by steering service");
  }

  auto placement = to_site.empty()
                       ? deps_.scheduler->reallocate(task_id, {current.value()}, carried)
                       : deps_.scheduler->place(task_id, to_site, carried);
  if (!placement.is_ok()) return placement;

  ++watch.moves;
  watch.done = false;
  watch.failed = false;
  watch.last_cpu_seconds = carried;
  watch.last_checked = kSimTimeNever;
  watch.first_running_seen = kSimTimeNever;
  if (automatic) {
    ++stats_.auto_moves;
  } else {
    ++stats_.manual_moves;
  }

  JournalRecord rec;
  rec.kind = "move";
  rec.fields["task"] = task_id;
  rec.fields["from"] = current.value();
  rec.fields["to"] = placement.value().site;
  rec.fields["carried"] = format_double(carried);
  rec.fields["automatic"] = automatic ? "1" : "0";
  journal_append(std::move(rec));

  Notification n;
  n.time = deps_.sim ? deps_.sim->now() : 0;
  n.kind = "moved";
  n.job_id = watch.job_id;
  n.task_id = task_id;
  n.detail = current.value() + " -> " + placement.value().site +
             (automatic ? " (optimizer)" : " (user)") +
             (carried > 0 ? ", checkpointed" : "");
  notify(std::move(n));
  return placement;
}

std::string SteeringService::pick_target_site(const Watch& watch,
                                              const std::string& current_site,
                                              double remaining_at_current_seconds) const {
  if (options_.optimize_for == "cheap" && deps_.quota) {
    std::vector<std::string> candidates;
    for (const auto& [site, service] : deps_.services) {
      if (site != current_site && service->is_up()) candidates.push_back(site);
    }
    auto cheapest = deps_.quota->cheapest_site(candidates);
    if (!cheapest.is_ok()) return "";
    const double current_rate = deps_.quota->site_rate(current_site).value_or(1e18);
    const double target_rate = deps_.quota->site_rate(cheapest.value()).value_or(1e18);
    return target_rate < current_rate ? cheapest.value() : "";
  }

  // "fast": expected completion at the best alternative site, including the
  // restart penalty for non-checkpointable tasks.
  auto ranked = deps_.scheduler->rank_sites(watch.spec, {current_site});
  if (!ranked.is_ok() || ranked.value().empty()) return "";
  const sphinx::SiteScore& best = ranked.value().front();
  double runtime_there = best.est_runtime_seconds;
  if (watch.spec.checkpointable) {
    runtime_there = std::max(0.0, runtime_there - watch.last_cpu_seconds);
  }
  const double cost_there =
      runtime_there + best.est_queue_seconds + best.est_transfer_seconds;
  if (cost_there + options_.min_benefit_seconds < remaining_at_current_seconds) {
    return best.site;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

void SteeringService::optimizer_tick() {
  if (!deps_.jobmon || !deps_.scheduler || !deps_.sim) return;
  const SimTime now = deps_.sim->now();

  for (auto& [task_id, watch] : watches_) {
    if (watch.done || watch.failed) continue;
    auto report = deps_.jobmon->info(task_id);
    if (!report.is_ok()) continue;
    const jobmon::JobMonitorReport& r = report.value();
    if (r.info.state != exec::TaskState::kRunning) {
      // Not accruing progress; reset the rate window.
      watch.last_cpu_seconds = r.info.cpu_seconds_used;
      watch.last_checked = kSimTimeNever;
      continue;
    }
    if (watch.first_running_seen == kSimTimeNever) watch.first_running_seen = now;
    if (watch.last_checked == kSimTimeNever) {
      watch.last_checked = now;
      watch.last_cpu_seconds = r.info.cpu_seconds_used;
      continue;
    }
    const double dt = to_seconds(now - watch.last_checked);
    if (dt <= 0) continue;
    const double rate = (r.info.cpu_seconds_used - watch.last_cpu_seconds) / dt;
    watch.last_cpu_seconds = r.info.cpu_seconds_used;
    watch.last_checked = now;

    if (to_seconds(now - watch.first_running_seen) < options_.min_observation_seconds) {
      continue;
    }
    if (rate >= options_.slow_rate_threshold) continue;
    if (watch.moves >= options_.max_moves_per_task) continue;

    auto current = deps_.scheduler->task_site(task_id);
    if (!current.is_ok()) continue;

    // Expected time to finish if the task stays put, from the monitoring
    // view (estimate-based remaining work over the observed rate).
    double remaining_est = r.remaining_seconds;
    if (remaining_est <= 0) remaining_est = r.estimated_runtime_seconds;
    const double remaining_at_current = remaining_est / std::max(rate, 0.05);

    const std::string target =
        pick_target_site(watch, current.value(), remaining_at_current);
    if (target.empty()) continue;

    GAE_LOG(Info) << "steering optimizer: " << task_id << " slow at " << current.value()
                  << " (rate " << rate << "), moving to " << target;
    do_move(watch, task_id, target, /*automatic=*/true);
  }
}

// ---------------------------------------------------------------------------
// Backup & Recovery
// ---------------------------------------------------------------------------

void SteeringService::recovery_tick() {
  // Detect execution-service transitions.
  for (const auto& [site, service] : deps_.services) {
    const bool up = service->is_up();
    bool& was_up = service_was_up_[site];
    if (was_up && !up) {
      Notification n;
      n.time = deps_.sim ? deps_.sim->now() : 0;
      n.kind = "service_failure";
      n.detail = site;
      notify(std::move(n));
    }
    was_up = up;
  }

  if (!deps_.scheduler) return;
  for (auto& [task_id, watch] : watches_) {
    if (watch.done || !watch.failed) continue;
    auto site = deps_.scheduler->task_site(task_id);
    if (!site.is_ok()) {
      watch.done = true;
      continue;
    }
    auto svc_it = deps_.services.find(site.value());
    exec::ExecutionService* service =
        svc_it == deps_.services.end() ? nullptr : svc_it->second;

    if (service && !service->is_up()) {
      // Execution service failed: ask Sphinx for a new site and resubmit
      // (paper §4.2.4).
      const double carried = watch.spec.checkpointable ? watch.last_cpu_seconds : 0.0;
      auto placement = deps_.scheduler->reallocate(task_id, {site.value()}, carried);
      if (placement.is_ok()) {
        watch.failed = false;
        watch.first_running_seen = kSimTimeNever;
        watch.last_checked = kSimTimeNever;
        watch.last_cpu_seconds = carried;
        ++stats_.recoveries;

        JournalRecord rec;
        rec.kind = "recover";
        rec.fields["task"] = task_id;
        rec.fields["from"] = site.value();
        rec.fields["to"] = placement.value().site;
        rec.fields["carried"] = format_double(carried);
        rec.fields["reason"] = "service_failure";
        journal_append(std::move(rec));

        Notification n;
        n.time = deps_.sim ? deps_.sim->now() : 0;
        n.kind = "recovered";
        n.job_id = watch.job_id;
        n.task_id = task_id;
        n.detail = site.value() + " -> " + placement.value().site;
        notify(std::move(n));
      }
    } else if (watch.resubmits < options_.max_auto_resubmits) {
      // Task-level failure with a live service (e.g. staging aborted by a
      // link failure). When allowed, resubmit through Sphinx — no site is
      // excluded, the same site may win again once the fault clears.
      const double carried = watch.spec.checkpointable ? watch.last_cpu_seconds : 0.0;
      auto placement = deps_.scheduler->reallocate(task_id, {}, carried);
      if (placement.is_ok()) {
        ++watch.resubmits;
        watch.failed = false;
        watch.first_running_seen = kSimTimeNever;
        watch.last_checked = kSimTimeNever;
        watch.last_cpu_seconds = carried;
        ++stats_.resubmits;

        JournalRecord rec;
        rec.kind = "recover";
        rec.fields["task"] = task_id;
        rec.fields["from"] = site.value();
        rec.fields["to"] = placement.value().site;
        rec.fields["carried"] = format_double(carried);
        rec.fields["reason"] = "task_failure";
        journal_append(std::move(rec));

        Notification n;
        n.time = deps_.sim ? deps_.sim->now() : 0;
        n.kind = "recovered";
        n.job_id = watch.job_id;
        n.task_id = task_id;
        n.detail = "resubmitted (" + std::to_string(watch.resubmits) + "/" +
                   std::to_string(options_.max_auto_resubmits) + ") to " +
                   placement.value().site;
        notify(std::move(n));
      }
    } else {
      // Task-level failure with a live service: already reported; the user
      // (or a manual resubmission) decides what happens next.
      watch.done = true;
      JournalRecord rec;
      rec.kind = "done";
      rec.fields["task"] = task_id;
      rec.fields["outcome"] = "failed";
      journal_append(std::move(rec));
    }
  }
}

// ---------------------------------------------------------------------------
// Events & notifications
// ---------------------------------------------------------------------------

void SteeringService::on_task_event(const std::string& site, const exec::TaskEvent& ev) {
  auto it = watches_.find(ev.task_id);
  if (it == watches_.end()) return;
  Watch& watch = it->second;

  // Ignore stale instances left running at a previous site after a move.
  if (deps_.scheduler) {
    auto registered = deps_.scheduler->task_site(ev.task_id);
    if (registered.is_ok() && registered.value() != site) return;
  }

  if (ev.new_state == exec::TaskState::kCompleted) {
    watch.done = true;
    ++stats_.completions;
    JournalRecord rec;
    rec.kind = "done";
    rec.fields["task"] = ev.task_id;
    rec.fields["outcome"] = "completed";
    journal_append(std::move(rec));
    Notification n;
    n.time = ev.time;
    n.kind = "completed";
    n.job_id = watch.job_id;
    n.task_id = ev.task_id;
    n.detail = "completed at " + site;
    // "For completed jobs ... gets the execution state from the execution
    // service. This execution state is made available for download" (§4.2.4).
    auto svc_it = deps_.services.find(site);
    if (svc_it != deps_.services.end()) {
      n.output_files = svc_it->second->local_output_files(ev.task_id);
    }
    notify(std::move(n));
  } else if (ev.new_state == exec::TaskState::kFailed) {
    watch.failed = true;
    ++stats_.failures;
    Notification n;
    n.time = ev.time;
    n.kind = "failed";
    n.job_id = watch.job_id;
    n.task_id = ev.task_id;
    n.detail = ev.detail;
    // "It then contacts the execution service to get all the local files
    // that were produced by the failed job" (§4.2.4).
    auto svc_it = deps_.services.find(site);
    if (svc_it != deps_.services.end()) {
      n.output_files = svc_it->second->local_output_files(ev.task_id);
    }
    notify(std::move(n));
  }
}

void SteeringService::notify(Notification n) {
  log_.push_back(n);
  publish_stats();
  for (const auto& [_, cb] : subscribers_) cb(n);
}

void SteeringService::journal_append(JournalRecord rec) {
  if (!deps_.journal) return;
  rec.fields["t"] = std::to_string(deps_.sim ? deps_.sim->now() : 0);
  const Status s = deps_.journal->append(rec.to_line());
  if (s.is_ok()) {
    ++stats_.journal_appends;
  } else {
    // A journal outage must not take steering down with it; recovery after a
    // crash just gets older state.
    GAE_LOG(Warn) << "recovery journal append failed: " << s.message();
  }
}

void SteeringService::publish_stats() {
  if (!deps_.monitoring) return;
  const SimTime now = deps_.sim ? deps_.sim->now() : 0;
  deps_.monitoring->publish("steering", "auto_moves", now,
                            static_cast<double>(stats_.auto_moves));
  deps_.monitoring->publish("steering", "manual_moves", now,
                            static_cast<double>(stats_.manual_moves));
  deps_.monitoring->publish("steering", "recoveries", now,
                            static_cast<double>(stats_.recoveries));
  deps_.monitoring->publish("steering", "resubmits", now,
                            static_cast<double>(stats_.resubmits));
  deps_.monitoring->publish("steering", "completions", now,
                            static_cast<double>(stats_.completions));
  deps_.monitoring->publish("steering", "failures", now,
                            static_cast<double>(stats_.failures));
  deps_.monitoring->publish("steering", "journal_appends", now,
                            static_cast<double>(stats_.journal_appends));
}

// ---------------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------------

Status SteeringService::restore_from_journal(const std::vector<JournalRecord>& records) {
  struct Replayed {
    Watch watch;
    bool done = false;
  };
  std::map<std::string, Replayed> replayed;

  for (const JournalRecord& rec : records) {
    ++stats_.journal_replayed;
    const std::string task = rec.field("task");
    if (task.empty()) continue;

    if (rec.kind == "watch") {
      Replayed r;
      r.watch.job_id = rec.field("job");
      r.watch.owner = rec.field("owner");
      exec::TaskSpec& spec = r.watch.spec;
      spec.id = task;
      spec.job_id = r.watch.job_id;
      spec.owner = r.watch.owner;
      spec.executable = rec.field("executable");
      spec.work_seconds = rec.field_double("work");
      spec.priority = static_cast<int>(rec.field_double("priority"));
      spec.checkpointable = rec.field("checkpointable") == "1";
      spec.output_bytes =
          static_cast<std::uint64_t>(rec.field_double("output_bytes"));
      spec.input_files = split_commas(rec.field("inputs"));
      for (const auto& [key, value] : rec.fields) {
        if (key.rfind("attr.", 0) == 0) spec.attributes[key.substr(5)] = value;
      }
      replayed[task] = std::move(r);
    } else if (rec.kind == "move" || rec.kind == "recover" || rec.kind == "restart") {
      auto it = replayed.find(task);
      if (it == replayed.end()) continue;  // watch record lost; skip
      it->second.done = false;
      it->second.watch.failed = false;
      it->second.watch.last_cpu_seconds = rec.field_double("carried");
      if (rec.kind == "move") ++it->second.watch.moves;
      if (rec.kind == "recover" && rec.field("reason") == "task_failure") {
        ++it->second.watch.resubmits;
      }
    } else if (rec.kind == "done") {
      auto it = replayed.find(task);
      if (it != replayed.end()) it->second.done = true;
    }
    // Unknown kinds from a newer writer are skipped, not fatal.
  }

  for (auto& [task_id, r] : replayed) {
    if (r.done) continue;
    if (watches_.count(task_id)) continue;  // already watching; replay is idempotent
    // Timers restart from scratch — the optimizer re-observes before judging.
    r.watch.first_running_seen = kSimTimeNever;
    r.watch.last_checked = kSimTimeNever;
    watches_[task_id] = std::move(r.watch);
    ++stats_.journal_adopted;
  }

  if (optimizer_event_ == sim::kInvalidEvent) arm_optimizer();
  if (recovery_event_ == sim::kInvalidEvent) arm_recovery();
  publish_stats();
  return Status::ok();
}

Status SteeringService::restore_from_journal(const std::vector<std::string>& lines) {
  auto records = parse_journal(lines);
  if (!records.is_ok()) return records.status();
  return restore_from_journal(records.value());
}

std::vector<Notification> SteeringService::notifications_since(std::size_t after,
                                                               std::size_t max) const {
  std::vector<Notification> out;
  for (std::size_t i = after; i < log_.size() && out.size() < max; ++i) {
    out.push_back(log_[i]);
  }
  return out;
}

int SteeringService::subscribe(NotificationCallback cb) {
  const int token = next_token_++;
  subscribers_[token] = std::move(cb);
  return token;
}

void SteeringService::unsubscribe(int token) { subscribers_.erase(token); }

bool SteeringService::has_active_watches() const {
  for (const auto& [_, watch] : watches_) {
    if (!watch.done) return true;
  }
  return false;
}

void SteeringService::arm_optimizer() {
  if (!deps_.sim || !options_.auto_steer || !has_active_watches()) {
    optimizer_event_ = sim::kInvalidEvent;
    return;
  }
  optimizer_event_ = deps_.sim->schedule_after(
      from_seconds(options_.optimizer_interval_seconds), [this] {
        if (stopped_) return;
        optimizer_tick();
        arm_optimizer();
      });
}

void SteeringService::arm_recovery() {
  if (!deps_.sim || !has_active_watches()) {
    recovery_event_ = sim::kInvalidEvent;
    return;
  }
  recovery_event_ = deps_.sim->schedule_after(
      from_seconds(options_.recovery_interval_seconds), [this] {
        if (stopped_) return;
        recovery_tick();
        arm_recovery();
      });
}

}  // namespace gae::steering
