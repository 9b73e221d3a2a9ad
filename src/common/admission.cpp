#include "common/admission.h"

#include <algorithm>

namespace gae {

const char* criticality_name(Criticality tier) {
  switch (tier) {
    case Criticality::kControl: return "control";
    case Criticality::kStatus: return "status";
    case Criticality::kBulk: return "bulk";
  }
  return "?";
}

Criticality criticality_from_wire(int value) {
  if (value < 0 || value >= kCriticalityTiers) return Criticality::kStatus;
  return static_cast<Criticality>(value);
}

AdmissionController::AdmissionController(const Clock& clock, AdmissionOptions options)
    : clock_(clock), options_(options), limit_(options.initial_limit) {
  if (options_.min_limit == 0) options_.min_limit = 1;
  limit_.store(std::clamp(options_.initial_limit, options_.min_limit, options_.max_limit));
}

bool AdmissionController::try_admit(Criticality tier) {
  const std::size_t limit = limit_.load(std::memory_order_relaxed);
  const double fraction = options_.tier_fraction[static_cast<int>(tier)];
  // Every tier keeps at least one slot so min_limit never starves tier 0 and
  // a tiny limit still admits occasional low-tier probes.
  const double ceiling = std::max(1.0, fraction * static_cast<double>(limit));
  const std::size_t now_in_flight =
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (static_cast<double>(now_in_flight) > ceiling) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    shed_[static_cast<int>(tier)].fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AdmissionController::release() {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

double AdmissionController::latency_floor_locked() const {
  if (floor_current_ == 0.0) return floor_previous_;
  if (floor_previous_ == 0.0) return floor_current_;
  return std::min(floor_current_, floor_previous_);
}

void AdmissionController::on_sample(std::uint64_t latency_us) {
  const SimTime now = clock_.now();
  const double sample = static_cast<double>(latency_us);

  std::lock_guard<std::mutex> lock(mutex_);
  // Rotate the floor window so a permanently slower regime re-anchors the
  // floor instead of clamping forever against a stale best case.
  const SimTime window = static_cast<SimTime>(options_.floor_window_ms) * 1000;
  if (floor_window_start_ == 0) floor_window_start_ = now;
  if (now - floor_window_start_ >= window) {
    floor_previous_ = floor_current_;
    floor_current_ = 0.0;
    floor_window_start_ = now;
  }
  if (floor_current_ == 0.0 || sample < floor_current_) floor_current_ = sample;

  if (!ewma_primed_) {
    ewma_us_ = sample;
    ewma_primed_ = true;
  } else {
    ewma_us_ += options_.ewma_alpha * (sample - ewma_us_);
  }

  if (++samples_since_update_ < options_.samples_per_update) return;
  samples_since_update_ = 0;

  const double floor = latency_floor_locked();
  const std::size_t limit = limit_.load(std::memory_order_relaxed);
  if (floor > 0.0 && ewma_us_ > options_.latency_tolerance * floor) {
    // Latency has drifted off the no-load floor: multiplicative decrease.
    const auto clamped = static_cast<std::size_t>(
        static_cast<double>(limit) * options_.decrease_factor);
    limit_.store(std::max(options_.min_limit, clamped), std::memory_order_relaxed);
    clamps_.fetch_add(1, std::memory_order_relaxed);
    brownout_until_.store(now + static_cast<SimTime>(options_.brownout_hold_ms) * 1000,
                          std::memory_order_relaxed);
  } else {
    // Healthy: additive increase toward max_limit.
    limit_.store(std::min(options_.max_limit, limit + options_.increase_step),
                 std::memory_order_relaxed);
    raises_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool AdmissionController::queue_overloaded(std::uint64_t queue_delay_us) {
  const SimTime now = clock_.now();
  const auto target = static_cast<std::uint64_t>(options_.queue_target_ms) * 1000;
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_delay_us <= target) {
    queue_above_since_ = 0;
    return false;
  }
  if (queue_above_since_ == 0) {
    // First observation above target: arm the interval, admit this one.
    queue_above_since_ = now;
    return false;
  }
  if (now - queue_above_since_ <
      static_cast<SimTime>(options_.queue_interval_ms) * 1000) {
    return false;
  }
  // Queue delay has stayed above target for a full interval: shed until an
  // observation drops back below target.
  queue_shed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

double AdmissionController::load() const {
  const std::size_t limit = limit_.load(std::memory_order_relaxed);
  if (limit == 0) return 0.0;
  return static_cast<double>(in_flight_.load(std::memory_order_relaxed)) /
         static_cast<double>(limit);
}

bool AdmissionController::browned_out() const {
  if (load() >= options_.brownout_load) return true;
  return clock_.now() < brownout_until_.load(std::memory_order_relaxed);
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  Snapshot s;
  s.limit = limit_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  for (int i = 0; i < kCriticalityTiers; ++i) {
    s.shed[i] = shed_[i].load(std::memory_order_relaxed);
  }
  s.queue_shed = queue_shed_.load(std::memory_order_relaxed);
  s.clamps = clamps_.load(std::memory_order_relaxed);
  s.raises = raises_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.latency_floor_us = latency_floor_locked();
    s.latency_ewma_us = ewma_primed_ ? ewma_us_ : 0.0;
  }
  s.browned_out = browned_out();
  return s;
}

RetryBudget::RetryBudget(RetryBudgetOptions options)
    : options_(options), tokens_(options.max_tokens) {}

void RetryBudget::on_request() {
  std::lock_guard<std::mutex> lock(mutex_);
  tokens_ = std::min(options_.max_tokens, tokens_ + options_.ratio);
}

bool RetryBudget::try_retry() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tokens_ < 1.0) {
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

double RetryBudget::tokens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tokens_;
}

}  // namespace gae
