// Telemetry metrics: a process-wide registry of named counters, gauges and
// fixed log-bucket latency histograms. The registry is mutex-sharded — name
// lookup takes one shard lock, but the returned handles are lock-free
// atomics, so the RPC hot path records without contending on the registry.
// Snapshots are consistent-enough views (each atomic read is itself atomic;
// concurrent recording may straddle a snapshot, never corrupt it) and merge
// following the RunningStats::merge pattern, enabling per-shard or
// per-process aggregation in the MonALISA bridge.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace gae::telemetry {

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, in-flight requests). Lock-free.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Read-only copy of a histogram, with percentile estimation.
struct HistogramSnapshot {
  static constexpr int kBuckets = 48;  // covers [0, 2^47) µs ≈ 4.5 years

  std::uint64_t count = 0;
  std::uint64_t sum = 0;  // in recorded units (µs for latencies)
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};  // bucket i: [2^(i-1), 2^i), bucket 0: {0}

  double mean() const { return count ? static_cast<double>(sum) / count : 0.0; }

  /// Estimated value at percentile `p` in [0,100], interpolated linearly
  /// within the containing bucket. Exact at bucket boundaries; error is
  /// bounded by the 2x bucket width.
  double percentile(double p) const;

  /// Bucket-wise merge (the RunningStats::merge analogue).
  void merge(const HistogramSnapshot& other);
};

/// Fixed log2-bucket histogram for non-negative integer samples (latency in
/// microseconds, sizes in bytes). Recording is lock-free: one atomic add per
/// bucket plus count/sum, and CAS loops for min/max.
class Histogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  void record(std::uint64_t value);
  HistogramSnapshot snapshot() const;

  /// Bucket holding `value`: 0 for value 0, otherwise 1 + floor(log2(value))
  /// clamped to the last bucket.
  static int bucket_index(std::uint64_t value);
  /// Inclusive lower bound of bucket `i` (0 for bucket 0, 2^(i-1) above).
  static std::uint64_t bucket_lower_bound(int i);
  /// Exclusive upper bound of bucket `i`.
  static std::uint64_t bucket_upper_bound(int i);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Full registry contents at one instant. Maps are ordered so exported
/// output is stable across runs.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counters and gauges add; histograms merge bucket-wise. Summing gauges
  /// is right for the sharded/aggregated use (total queue depth across
  /// processes); callers wanting last-writer semantics snapshot separately.
  void merge(const MetricsSnapshot& other);

  /// Sum of every counter named "<prefix>...<suffix>": how readers total a
  /// per-endpoint or per-stream family (rpc.client.*.retries,
  /// wal.*.scrub.corrupt) instead of keeping an aggregate twin.
  std::uint64_t counter_sum(const std::string& prefix, const std::string& suffix) const;
};

/// Name -> metric registry. Handle lookup locks one shard; the handles
/// themselves are stable for the registry's lifetime (node-based storage),
/// so callers cache references and record lock-free.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Process-wide default registry (services that are not handed one
  /// explicitly record here).
  static MetricsRegistry& global();

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
    std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  Shard& shard_for(const std::string& name);
  const Shard& shard_for(const std::string& name) const;

  std::array<Shard, kShards> shards_;
};

/// The registry a component counts into: the one it was handed, or one it
/// owns when handed none. Either way the handles it resolves are never
/// null, so recording needs no guard. Components sharing one registry add
/// up into the same counters.
class RegistryRef {
 public:
  explicit RegistryRef(MetricsRegistry* injected)
      : owned_(injected ? nullptr : std::make_unique<MetricsRegistry>()),
        registry_(injected ? injected : owned_.get()) {}

  MetricsRegistry& operator*() const { return *registry_; }
  MetricsRegistry* operator->() const { return registry_; }
  MetricsRegistry* get() const { return registry_; }

 private:
  std::unique_ptr<MetricsRegistry> owned_;
  MetricsRegistry* registry_;
};

}  // namespace gae::telemetry
