// The GAE service deployments the benchmark drives, one per workload.
//
// A World builds the services the way dst::Cluster wires them (same grid,
// same admission/cache/metrics choices), serves them over live loopback
// TCP, and hands out closed-loop clients. It measures its layers only from
// outside: it times calls into public functions, arms the tracer and
// metrics the services already expose, and reads counters through
// MetricsRegistry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "rpc/client.h"
#include "rpc/value.h"
#include "summary.h"
#include "telemetry/trace.h"

namespace gaebench {

/// Client deadline for every benchmark call, as dst::Cluster's clients use.
/// A failed call is ranked at this latency in the percentiles.
inline constexpr int kDeadlineMs = 400;

/// Answer-check tallies shared by every client of a world.
class CheckTally {
 public:
  void record(const Check& check);
  std::uint64_t correct() const { return correct_.load(); }
  std::uint64_t flagged() const { return flagged_.load(); }
  std::uint64_t wrong() const { return wrong_.load(); }
  std::string first_wrong() const;

 private:
  std::atomic<std::uint64_t> correct_{0};
  std::atomic<std::uint64_t> flagged_{0};
  std::atomic<std::uint64_t> wrong_{0};
  mutable std::mutex mutex_;
  std::string first_wrong_;
};

/// One recorded exchange, kept for the codec timings of the traced run.
struct Exchange {
  std::string method;
  gae::rpc::Array params;
  gae::rpc::Value response;
};

/// One closed-loop caller: step() performs one operation, checks the
/// answer, and returns the operation's status (kOk = success).
class Client {
 public:
  virtual ~Client() = default;
  virtual gae::StatusCode step() = 0;
  /// Exchanges recorded so far (only when recording was requested).
  const std::vector<Exchange>& exchanges() const { return exchanges_; }

 protected:
  /// Keeps the first few exchanges when `record` is set.
  void remember(bool record, const std::string& method, const gae::rpc::Array& params,
                const gae::rpc::Value& response);

 private:
  std::vector<Exchange> exchanges_;
};

/// What the run loop observed around the traced window, for the per-layer
/// metrics.
struct LayerInputs {
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  const SpanTree* spans = nullptr;
  double queue_depth_max = 0.0;  // sampled rpc.server.queue_depth gauge
  double brownout_share = 0.0;   // mean sampled brownout_fraction()
};

using MetricMap = std::map<std::string, double>;

class World {
 public:
  virtual ~World() = default;

  virtual std::size_t client_count() const = 0;
  /// Builds client `index`; `record` keeps exchanges for codec timings.
  virtual std::unique_ptr<Client> make_client(std::size_t index, bool record) = 0;
  virtual gae::rpc::Protocol protocol() const = 0;

  /// Point-in-time gauge reads for the traced run's sampler thread.
  virtual std::int64_t queue_depth() const = 0;
  /// Share of the world's hosts currently browned out (0 without admission).
  virtual double brownout_fraction() const { return 0.0; }

  /// Checks the services' in-process state against what the clients sent,
  /// recording the verdicts in tally(). Runs after every window, with the
  /// clients idle.
  virtual void check_quiescent() {}

  /// Snapshots the counters the per-layer metrics are deltas of.
  virtual void begin_window() = 0;
  /// Fills this world's per-layer metrics after the window closed. Runs
  /// with the clients idle, so direct calls into the services are safe.
  virtual void layer_metrics(const LayerInputs& in, gae::telemetry::Tracer* tracer,
                             MetricMap& out) = 0;

  CheckTally& tally() { return tally_; }

 protected:
  CheckTally tally_;
};

/// Builds the world for `workload` from `seed`. `tracer` (null = untraced)
/// is armed on every host, binding and client of the world. Null for an
/// unknown workload.
std::unique_ptr<World> make_world(const std::string& workload, std::uint64_t seed,
                                  gae::telemetry::Tracer* tracer);

}  // namespace gaebench
