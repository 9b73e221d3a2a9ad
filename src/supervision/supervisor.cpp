#include "supervision/supervisor.h"

#include "common/log.h"

namespace gae::supervision {

Supervisor::Supervisor(const Clock& clock, SupervisorOptions options,
                       monalisa::Repository* monitoring, telemetry::MetricsRegistry* metrics)
    : clock_(clock),
      options_(options),
      monitoring_(monitoring),
      metrics_(metrics),
      deaths_(metrics_->counter("supervision.deaths")),
      restart_attempts_(metrics_->counter("supervision.restart_attempts")),
      restarts_succeeded_(metrics_->counter("supervision.restarts_succeeded")),
      restarts_failed_(metrics_->counter("supervision.restarts_failed")),
      gave_up_(metrics_->counter("supervision.gave_up")),
      quarantined_count_(metrics_->counter("supervision.quarantined")) {}

void Supervisor::manage(SupervisedService service) {
  services_[service.name] = std::move(service);
}

void Supervisor::attach(FailureDetector& detector) {
  detector_ = &detector;
  detector.set_verdict_listener([this](const std::string& service, Liveness verdict) {
    if (verdict == Liveness::kDead) on_service_dead(service);
  });
}

void Supervisor::on_service_dead(const std::string& name) {
  if (!services_.count(name)) return;  // not ours to restart
  if (quarantined_.count(name)) return;  // parked until release()
  deaths_.inc();
  if (pending_.count(name)) return;  // restart already scheduled
  Pending p;
  p.attempt = 1;
  p.next_at = clock_.now() + from_millis(options_.restart_backoff.backoff_ms(1));
  pending_[name] = p;
  publish_event(name, "restart_scheduled");
  GAE_LOG_INFO << "supervisor: " << name << " declared dead; restart scheduled";
}

std::size_t Supervisor::tick() {
  const SimTime now = clock_.now();
  std::size_t restarted = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.next_at > now) {
      ++it;
      continue;
    }
    const std::string& name = it->first;
    Pending& p = it->second;
    if (options_.crash_loop_restarts > 0) {
      auto& history = attempt_history_[name];
      while (!history.empty() &&
             now - history.front() > options_.crash_loop_window) {
        history.pop_front();
      }
      if (static_cast<int>(history.size()) >= options_.crash_loop_restarts) {
        // Crash loop: the recipe keeps running but the service keeps dying.
        // Park it — flapping forever burns the ensemble and hides the fault.
        quarantined_.insert(name);
        quarantined_count_.inc();
        metrics_->counter("supervision." + name + ".quarantined").inc();
        publish_event(name, "quarantined");
        GAE_LOG_ERROR << "supervisor: " << name << " crash-looping ("
                      << history.size() << " restarts inside "
                      << to_seconds(options_.crash_loop_window)
                      << "s); quarantined until release()";
        it = pending_.erase(it);
        continue;
      }
      history.push_back(now);
    }
    restart_attempts_.inc();
    const Status s = services_[name].restart();
    if (s.is_ok()) {
      restarts_succeeded_.inc();
      ++restarted;
      publish_event(name, "restarted");
      GAE_LOG_INFO << "supervisor: restarted " << name << " (attempt " << p.attempt
                   << ")";
      if (detector_) detector_->watch(name);  // fresh heartbeat baseline
      it = pending_.erase(it);
      continue;
    }
    restarts_failed_.inc();
    GAE_LOG_WARN << "supervisor: restart of " << name << " failed (attempt "
                 << p.attempt << "): " << s.message();
    if (p.attempt >= options_.restart_backoff.max_attempts) {
      gave_up_.inc();
      publish_event(name, "gave_up");
      GAE_LOG_ERROR << "supervisor: giving up on " << name << " after " << p.attempt
                    << " attempts";
      it = pending_.erase(it);
      continue;
    }
    ++p.attempt;
    p.next_at = now + from_millis(options_.restart_backoff.backoff_ms(p.attempt));
    ++it;
  }
  if (monitoring_) {
    monitoring_->publish("supervisor", "pending_restarts", now,
                         static_cast<double>(pending_.size()));
  }
  return restarted;
}

Status Supervisor::release(const std::string& name) {
  if (!quarantined_.erase(name)) {
    return not_found_error("not quarantined: " + name);
  }
  attempt_history_.erase(name);
  publish_event(name, "released");
  GAE_LOG_INFO << "supervisor: " << name << " released from quarantine";
  return Status::ok();
}

void Supervisor::publish_event(const std::string& service, const std::string& what) {
  if (!monitoring_) return;
  monitoring_->publish_event({clock_.now(), "supervisor", what, service});
}

}  // namespace gae::supervision
