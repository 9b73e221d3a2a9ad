#include "telemetry/metrics.h"

#include <algorithm>
#include <functional>

namespace gae::telemetry {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_index(std::uint64_t value) {
  if (value == 0) return 0;
  int bit = 63 - __builtin_clzll(value);  // floor(log2(value))
  return std::min(bit + 1, kBuckets - 1);
}

std::uint64_t Histogram::bucket_lower_bound(int i) {
  if (i <= 0) return 0;    // bucket 0: {0}
  return 1ull << (i - 1);  // bucket i: [2^(i-1), 2^i)
}

std::uint64_t Histogram::bucket_upper_bound(int i) {
  if (i <= 0) return 1;
  if (i >= kBuckets - 1) return UINT64_MAX;  // last bucket is open-ended
  return 1ull << i;
}

void Histogram::record(std::uint64_t value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.sum = sum_.load(std::memory_order_relaxed);
  const std::uint64_t min = min_.load(std::memory_order_relaxed);
  snap.min = min == UINT64_MAX ? 0 : min;
  snap.max = max_.load(std::memory_order_relaxed);
  // The count is the sum of the buckets just loaded, so the two always agree
  // even while writers record.
  for (int i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  return snap;
}

double HistogramSnapshot::percentile(double p) const {
  // Percentiles rank over the bucket counts themselves, so a hand-built
  // snapshot whose `count` disagrees with its buckets still ranks sanely.
  std::uint64_t total = 0;
  for (const auto b : buckets) total += b;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= rank) {
      const double lo = static_cast<double>(Histogram::bucket_lower_bound(i));
      // Clamp the open-ended last bucket to the observed max.
      double hi = i >= kBuckets - 1 ? static_cast<double>(max)
                                    : static_cast<double>(Histogram::bucket_upper_bound(i));
      hi = std::max(hi, lo);
      const double frac =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(buckets[i]);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (int i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

std::uint64_t MetricsSnapshot::counter_sum(const std::string& prefix,
                                           const std::string& suffix) const {
  std::uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    const std::string& name = it->first;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Shard& MetricsRegistry::shard_for(const std::string& name) {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

const MetricsRegistry::Shard& MetricsRegistry::shard_for(const std::string& name) const {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto& slot = shard.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto& slot = shard.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto& slot = shard.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, c] : shard.counters) snap.counters[name] = c->value();
    for (const auto& [name, g] : shard.gauges) snap.gauges[name] = g->value();
    for (const auto& [name, h] : shard.histograms) snap.histograms[name] = h->snapshot();
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace gae::telemetry
