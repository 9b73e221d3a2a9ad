#include "estimators/queue_time_estimator.h"

#include <algorithm>

namespace gae::estimators {

QueueTimeEstimator::QueueTimeEstimator(const exec::ExecutionService& service,
                                       std::shared_ptr<const EstimateDatabase> estimates,
                                       QueueTimeOptions options)
    : service_(service), estimates_(std::move(estimates)), options_(options) {
  if (!estimates_) estimates_ = std::make_shared<EstimateDatabase>();
}

Result<QueueTimeEstimate> QueueTimeEstimator::estimate(const std::string& task_id) const {
  auto target = service_.view(task_id);
  if (!target.is_ok()) return target.status();
  const exec::ExecutionService::TaskView& info = target.value();

  QueueTimeEstimate out;
  // A task that already left the queue waits no further.
  if (info.state != exec::TaskState::kQueued) return out;

  // One walk in task-id order, so the sum adds up as it always has; it also
  // counts the occupied nodes for divide_by_nodes.
  std::size_t occupied = 0;
  service_.for_each_task([&](const exec::ExecutionService::TaskView& other) {
    const bool on_node = other.state == exec::TaskState::kRunning ||
                         other.state == exec::TaskState::kStaging;
    if (on_node) ++occupied;
    if (&other.spec == &info.spec || exec::is_terminal(other.state)) return;
    if (other.state == exec::TaskState::kSuspended) return;  // holds no node, waits idle

    bool counts = other.spec.priority > info.spec.priority;
    if (!counts && options_.include_equal_priority_ahead &&
        other.spec.priority == info.spec.priority &&
        other.state == exec::TaskState::kQueued) {
      counts = other.queue_position < info.queue_position;  // both queued, so both >= 0
    }
    // Running/staging tasks occupy nodes regardless of priority relation:
    // the paper's step (b) pulls elapsed runtimes "from the queue", which in
    // Condor terms includes the running jobs.
    if (!counts && !on_node) return;

    const double estimated =
        estimates_->lookup(other.spec.id).value_or(options_.fallback_estimate_seconds);
    const double remaining = std::max(0.0, estimated - other.cpu_seconds_used);
    out.seconds += remaining;
    ++out.tasks_ahead;
  });

  if (options_.divide_by_nodes) {
    // Pool size = occupied nodes + free nodes (not exposed directly).
    const std::size_t pool = std::max<std::size_t>(1, occupied + service_.free_nodes());
    out.seconds /= static_cast<double>(pool);
  }
  return out;
}

}  // namespace gae::estimators
