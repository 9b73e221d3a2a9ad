// Overload protection primitives for the service fabric (paper fig. 6: what
// should happen when concurrent clients exceed capacity).
//
// Three cooperating pieces, all clock-injected and telemetry-free so they
// live in gae_common and virtual-time tests are exact:
//
//   AdmissionController — an adaptive concurrency limiter. The static
//     max-in-flight cap the RPC server shipped with degrades every service
//     equally under a client storm; this one adjusts the limit from measured
//     request latency (AIMD driven by the latency gradient: additive raise
//     while the smoothed latency stays near the no-load floor, multiplicative
//     clamp when it drifts past the tolerance), bounds time spent in the
//     acceptor queue CoDel-style, and sheds by criticality tier — bulk
//     estimator queries first, steering control last.
//
//   RetryBudget — a token bucket that caps retries at a fraction of fresh
//     traffic, so client retry policies cannot amplify an overload into a
//     retry storm (each fresh call deposits `ratio` tokens; a retry spends
//     one whole token).
//
//   Criticality — the request tier that rides the x-gae-tier header.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/clock.h"
#include "common/time_types.h"

namespace gae {

/// Request criticality, most critical first. The numeric value is the wire
/// encoding (x-gae-tier header) and the shed order is descending: when the
/// limiter clamps, kBulk is refused first and kControl last.
enum class Criticality : int {
  kControl = 0,  // steering commands: losing one strands a misplaced job
  kStatus = 1,   // job-status reads: stale data is tolerable, absence is not
  kBulk = 2,     // estimator queries: callers have cheap local fallbacks
};

inline constexpr int kCriticalityTiers = 3;

const char* criticality_name(Criticality tier);

/// Clamps an arbitrary wire integer to a valid tier (out-of-range -> kStatus,
/// the default for peers that do not set the header).
Criticality criticality_from_wire(int value);

/// The more critical of two tiers (numerically smaller). A batched request
/// rides the wire at the criticality of its most critical item.
inline constexpr Criticality more_critical(Criticality a, Criticality b) {
  return static_cast<int>(a) <= static_cast<int>(b) ? a : b;
}

struct AdmissionOptions {
  /// Concurrency limit bounds. The limiter never clamps below min_limit
  /// (tier-0 traffic must always have a path in) nor raises above max_limit.
  std::size_t min_limit = 4;
  std::size_t initial_limit = 32;
  std::size_t max_limit = 256;

  /// EWMA factor for the smoothed latency (higher = reacts faster).
  double ewma_alpha = 0.2;
  /// Clamp when smoothed latency exceeds tolerance * the no-load floor.
  double latency_tolerance = 2.0;
  /// Multiplicative decrease applied on clamp.
  double decrease_factor = 0.8;
  /// Additive increase applied while latency stays inside the tolerance.
  std::size_t increase_step = 1;
  /// Limit is reconsidered every this many samples.
  std::size_t samples_per_update = 16;
  /// The latency floor is the min over this window (rotated two-bucket min,
  /// so a slow regime change eventually re-anchors the floor).
  int floor_window_ms = 10'000;

  /// Fraction of the current limit each tier may occupy; must be
  /// non-increasing. Tier 0 may use the whole limit; lower tiers are refused
  /// once in-flight crosses their smaller ceiling, which is what makes shed
  /// order follow criticality.
  std::array<double, kCriticalityTiers> tier_fraction{1.0, 0.9, 0.75};

  /// CoDel-style acceptor-queue bound: shed when the queue delay has stayed
  /// above target for a full interval.
  int queue_target_ms = 5;
  int queue_interval_ms = 100;

  /// Brownout: degraded modes engage while load >= brownout_load or within
  /// brownout_hold_ms of the last clamp.
  double brownout_load = 0.75;
  int brownout_hold_ms = 1'000;
};

/// Thread-safe. try_admit/release/browned_out are lock-free (the request hot
/// path); on_sample and queue_overloaded take one mutex and are called once
/// per request / per connection pickup.
class AdmissionController {
 public:
  explicit AdmissionController(const Clock& clock, AdmissionOptions options = {});

  /// Admit one request of the given tier. A true return must be paired with
  /// release(); false means the request should be shed (the per-tier shed
  /// counter is bumped).
  bool try_admit(Criticality tier);
  void release();

  /// Feed one completed request's handler latency. Drives the AIMD limit
  /// update; handler faults are answers, not congestion signals, so only
  /// the latency counts.
  void on_sample(std::uint64_t latency_us);

  /// CoDel check on one acceptor-queue delay observation. True = the queue
  /// has been persistently above target; shed this connection.
  bool queue_overloaded(std::uint64_t queue_delay_us);

  std::size_t limit() const { return limit_.load(std::memory_order_relaxed); }
  std::size_t in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  /// in_flight / limit, the load factor brownout decisions key off.
  double load() const;
  /// True while degraded modes (cheap estimates, cached snapshots) should
  /// serve instead of the full path.
  bool browned_out() const;

  struct Snapshot {
    std::size_t limit = 0;
    std::size_t in_flight = 0;
    std::uint64_t admitted = 0;
    std::array<std::uint64_t, kCriticalityTiers> shed{};
    std::uint64_t queue_shed = 0;
    std::uint64_t clamps = 0;  // multiplicative decreases
    std::uint64_t raises = 0;  // additive increases
    double latency_floor_us = 0.0;
    double latency_ewma_us = 0.0;
    bool browned_out = false;
  };
  Snapshot snapshot() const;

 private:
  const Clock& clock_;
  AdmissionOptions options_;

  std::atomic<std::size_t> limit_;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::array<std::atomic<std::uint64_t>, kCriticalityTiers> shed_{};
  std::atomic<std::uint64_t> queue_shed_{0};
  std::atomic<std::uint64_t> clamps_{0};
  std::atomic<std::uint64_t> raises_{0};
  /// Clock instant until which brownout holds after a clamp (µs).
  std::atomic<SimTime> brownout_until_{0};

  // Sample path (one caller at a time is fine; workers serialise briefly).
  mutable std::mutex mutex_;
  double ewma_us_ = 0.0;
  bool ewma_primed_ = false;
  /// Two-bucket rotating min for the latency floor.
  double floor_current_ = 0.0;   // min of the open window (0 = empty)
  double floor_previous_ = 0.0;  // min of the closed window (0 = empty)
  SimTime floor_window_start_ = 0;
  std::size_t samples_since_update_ = 0;
  // CoDel state.
  SimTime queue_above_since_ = 0;  // 0 = below target

  double latency_floor_locked() const;
};

struct RetryBudgetOptions {
  /// Tokens deposited per fresh request; 0.1 caps retries at ~10% of fresh
  /// traffic once the initial bucket drains.
  double ratio = 0.1;
  /// Bucket capacity (also the starting balance, so a cold client can retry
  /// through a brief blip immediately).
  double max_tokens = 10.0;
};

/// Token-bucket retry budget, shared by however many RpcClients serve one
/// logical client. Thread-safe.
class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetOptions options = {});

  /// A fresh (non-retry) request: deposits ratio tokens, capped.
  void on_request();
  /// Spend one token for a retry; false = budget exhausted, do not retry.
  bool try_retry();

  double tokens() const;
  std::uint64_t exhausted() const { return exhausted_.load(std::memory_order_relaxed); }

 private:
  RetryBudgetOptions options_;
  mutable std::mutex mutex_;
  double tokens_;
  std::atomic<std::uint64_t> exhausted_{0};
};

}  // namespace gae
