// File-transfer-time estimator (paper §6.3): measure the bandwidth between
// two endpoints (the paper used iperf between client and Clarens server),
// then estimate transfer time as size / bandwidth.
//
// Two bandwidth sources are provided:
//  - a simulated probe against the grid model's links, with optional
//    measurement noise (an iperf sample is never exact);
//  - a real loopback-TCP probe for live deployments and microbenchmarks.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "sim/grid.h"

namespace gae::estimators {

struct TransferEstimate {
  double seconds = 0.0;
  double bandwidth_bytes_per_sec = 0.0;  // as measured by the probe
};

struct TransferEstimatorOptions {
  /// Relative stddev of probe measurement noise (0 = perfect probe).
  double probe_noise = 0.05;
  /// Probe results are cached this many virtual seconds.
  double probe_ttl_seconds = 300.0;
  std::uint64_t noise_seed = 7;
};

/// Estimates transfers across the simulated grid. Thread-safe: concurrent
/// RPC workers share one instance.
class FileTransferEstimator {
 public:
  FileTransferEstimator(const sim::Grid& grid, TransferEstimatorOptions options = {});

  /// Probes (or reuses a cached probe of) the src->dst link at virtual time
  /// `now`, then returns bytes / measured-bandwidth + latency.
  Result<TransferEstimate> estimate(const std::string& src, const std::string& dst,
                                    std::uint64_t bytes, SimTime now);

  /// The last measured bandwidth for a pair; NOT_FOUND before any probe.
  Result<double> cached_bandwidth(const std::string& src, const std::string& dst) const;

 private:
  struct Probe {
    double bandwidth = 0.0;
    SimTime at = kSimTimeNever;
  };

  const sim::Grid& grid_;
  TransferEstimatorOptions options_;
  mutable std::mutex mutex_;  // guards rng_ and cache_
  Rng rng_;
  std::map<std::pair<std::string, std::string>, Probe> cache_;
};

/// Measures real loopback TCP throughput by streaming `bytes` through a
/// socket pair (an iperf stand-in for live runs). Returns bytes/second.
Result<double> measure_loopback_bandwidth(std::uint64_t bytes);

}  // namespace gae::estimators
