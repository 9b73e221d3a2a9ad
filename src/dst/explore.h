// dst::explore — randomized schedule search over dst::Cluster.
//
// Each seed deterministically derives a fault schedule (kills, restarts,
// partitions, clock skew, bit rot) and a workload interleaving; run_seed
// plays it against a fresh cluster and returns every invariant violation.
// explore() sweeps a seed range — thousands of distinct whole-cluster
// schedules in seconds of wall time, because everything runs on virtual
// time. A failing seed reproduces bit-identically: same seed, same binary,
// same trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dst/cluster.h"

namespace gae::dst {

struct ExploreOptions {
  /// Faulted ticks per schedule (50ms of virtual time each by default).
  int ticks = 40;
  /// Probability that any given tick boundary injects a fault.
  double action_prob = 0.15;
  /// Quiet ticks after healing every partition, long enough for a pending
  /// failover to complete (lease lapse + promotion) so the final invariant
  /// checks run against a settled cluster.
  int settle_ticks = 40;
  /// Template for each run; `seed` is overridden per seed.
  ClusterOptions cluster;
};

struct SeedResult {
  std::uint64_t seed = 0;
  bool ok = true;
  std::vector<std::string> violations;
  std::vector<std::string> actions;
  std::uint64_t invariant_checks = 0;
  std::uint64_t writes_acked = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_err = 0;
  bool promoted = false;
  /// The network event trace (SimNetwork::trace()) when
  /// `ExploreOptions::cluster.trace` is set; empty otherwise.
  std::vector<std::string> trace;
};

struct ExploreReport {
  std::uint64_t seeds_run = 0;
  std::uint64_t total_invariant_checks = 0;
  std::uint64_t total_writes_acked = 0;
  std::vector<SeedResult> failures;
};

/// Draws the next scripted fault from a schedule RNG (the per-seed action
/// distribution; exposed so tests can bias it).
Action draw_action(Rng& rng);

/// Plays seed's schedule against a fresh cluster; never throws on
/// violations — they come back in the result for the caller to report.
SeedResult run_seed(std::uint64_t seed, const ExploreOptions& options = {});

/// Runs every seed in [begin, end).
ExploreReport explore(std::uint64_t begin, std::uint64_t end,
                      const ExploreOptions& options = {});

/// Human-readable failure block: seed, action schedule, violations, and the
/// replay command.
std::string format_failure(const SeedResult& result);

}  // namespace gae::dst
